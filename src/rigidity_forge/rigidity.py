"""The d-dimensional generic rigidity matroid, evaluated over Z_p.

Generic placements are emulated by uniform random coordinates in a large
prime field; a random evaluation never overestimates the generic rank, and
underestimates it with negligible probability.  Verdicts carry an explicit
one-sided confidence tag: "certain" when the computed rank is forced by an
a-priori cap, "whp" otherwise.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Iterator, Sequence
from math import comb
from typing import NamedTuple

from .graph_core import Edge, Graph, iter_maximal_cliques, normalize_edge
from .modlinalg import (
    DEFAULT_PRIME,
    ModMatrix,
    Row,
    RowBasis,
    is_prime,
    left_kernel_basis,
    make_rng,
    rank_of_rows,
)

CERTAIN = "certain"
WHP = "whp"


class RankReport(NamedTuple):
    """Computed matroid rank plus the confidence of the verdict."""

    rank: int
    dim: int
    trials: int
    confidence: str
    seed: int


class Verdict(NamedTuple):
    """Boolean answer with its one-sided confidence tag."""

    value: bool
    confidence: str
    rank: int | None = None

    def __bool__(self) -> bool:
        return self.value


class RedundancyReport(NamedTuple):
    value: bool
    confidence: str
    witness: tuple[Edge, ...] | None
    subsets_checked: int


class Cover(NamedTuple):
    """An edge cover E_0, E_1..E_s for the clique-decomposition rank bound."""

    loose_edges: tuple[Edge, ...]
    parts: tuple[tuple[Edge, ...], ...]


def generic_rank_cap(n: int, d: int) -> int:
    """A-priori cap on the generic rank: the dn - C(d+1,2) bound for
    n >= d+1, and C(n,2) (every graph independent) below that."""
    if n >= d + 1:
        return d * n - comb(d + 1, 2)
    return comb(n, 2)


def placements(
    g: Graph, d: int, trials: int, seed: int, p: int
) -> Iterator[tuple[list[Row], random.Random]]:
    """The seeded placement stream behind every randomized verdict.

    Yields, for each of `trials` placements, the rows of the rigidity matrix
    R(G,p) and the stream itself, from which a caller may draw more before
    the next placement.  Coordinates are uniform in [1, p-1], drawn vertex
    by vertex.  R(G,p) has one row per sorted edge uv: the block of vertex u
    holds p(u)-p(v), the block of v holds p(v)-p(u).  The modulus must be
    prime: over a ring with zero divisors elimination is undefined.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _require_prime(p)
    rng = make_rng(seed)
    for _ in range(trials):
        points = [rng.randrange(1, p) for _ in range(g.n * d)]
        yield _matrix_rows(g, d, points, p), rng


@functools.lru_cache(maxsize=64)
def _require_prime(p: int) -> None:
    # cached: theorem-level checks open thousands of streams on one modulus,
    # and a Miller-Rabin run costs far more than the lookup
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _matrix_rows(g: Graph, d: int, points: Sequence[int], p: int) -> list[Row]:
    rows = []
    for u, v in g.sorted_edges():
        row = {}
        for t in range(d):
            diff = (points[u * d + t] - points[v * d + t]) % p
            if diff:
                row[u * d + t] = diff
                row[v * d + t] = p - diff
        rows.append(row)
    return rows


def _cap_first(g: Graph, d: int) -> list[int]:
    """The indices of g's sorted edges, arranged so that :meth:`RowBasis.extend`,
    which feeds rows last-first, takes each vertex's first d edges of that
    last-first order before all other edges.  On K_n those edges are a basis,
    K_{d+1} and then one vertex joined to d earlier ones at a time, so an
    elimination stopped at the cap adds no dependent row.  The rank does not
    depend on the order.
    """
    edges = g.sorted_edges()
    seen = [0] * g.n
    first, rest = [], []
    for i in reversed(range(len(edges))):
        u, v = edges[i]
        (first if seen[u] < d or seen[v] < d else rest).append(i)
        seen[u] += 1
        seen[v] += 1
    return rest[::-1] + first[::-1]


def _cover_first(g: Graph, d: int) -> tuple[list[int], int]:
    """A feed order for :func:`rank_of_rows` and an upper bound on the
    generic rank of g, from a greedy clique cover.

    The maximal cliques on k >= d+2 vertices are taken largest first, and
    each is kept when its rank bound d*k - C(d+1,2) is below its number of
    still-uncovered edges.  The bound is :func:`cover_rank_bound` of the kept
    cliques, with every other edge loose.  The feed takes first each kept
    clique's d-tree, from its top vertex down: K_{d+1}, then each vertex
    joined to the d fed before it.  The other edges follow in
    :func:`_cap_first` order, the loose ones before those of kept cliques.
    A d-tree spans its clique's rows, so an elimination stopped at the bound
    reduces none of the clique's other rows.

    The search is skipped, and the plain :func:`_cap_first` order returned
    with the bound |E|, when no edge has d common neighbours (so there is no
    K_{d+2}) or g has more maximal cliques than vertices.
    """
    order, m = _cap_first(g, d), g.edge_count
    mask = g.neighbor_mask
    if not any((mask(u) & mask(v)).bit_count() >= d for u, v in g.edges):
        return order, m
    cliques = list(itertools.islice(iter_maximal_cliques(g), g.n + 1))
    if len(cliques) > g.n:
        return order, m
    covered: set[Edge] = set()
    parts, tree = [], []
    for c in sorted((c for c in cliques if len(c) >= d + 2), key=len, reverse=True):
        pairs = tuple(itertools.combinations(c, 2))
        if generic_rank_cap(len(c), d) < sum(e not in covered for e in pairs):
            covered.update(pairs)
            parts.append(pairs)
            top = c[::-1]
            tree += itertools.combinations(top[: d + 1], 2)
            tree += ((w, top[i]) for i in range(d + 1, len(top)) for w in top[i - d : i])
    if not parts:
        return order, m
    bound = cover_rank_bound(g, d, Cover(tuple(g.edges - covered), tuple(parts)))
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    # overlapping cliques can share tree edges: each goes in once
    fed_first = list(dict.fromkeys(index[normalize_edge(u, v)] for u, v in tree))
    skip = set(fed_first)
    rest = sorted((i for i in order if i not in skip), key=lambda i: edges[i] not in covered)
    return rest + fed_first[::-1], bound


def generic_rank(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> RankReport:
    """Max rank of the rigidity matrix over independent random placements.

    The result is a certain lower bound on the generic rank and equals it
    with high probability; "certain" is reported exactly when the rank hits
    the a-priori cap min(|E|, dn - C(d+1,2)).  No placement ranks above a
    clique-cover bound either, so eliminations and trials stop at the lower
    of the two (see :func:`_cover_first`).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    cap = min(g.edge_count, generic_rank_cap(g.n, d))
    order, bound = _cover_first(g, d)
    stop = min(cap, bound)
    best = 0
    for rows, _ in placements(g, d, trials, seed, p):
        best = max(best, rank_of_rows([rows[i] for i in order], d * g.n, p, stop))
        if best == stop:
            break
    confidence = CERTAIN if best == cap else WHP
    return RankReport(best, d, trials, confidence, seed)


def is_independent(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Verdict:
    """True iff the generic rank equals |E|; true verdicts are certain."""
    rep = generic_rank(g, d, trials, seed, p)
    value = rep.rank == g.edge_count
    return Verdict(value, CERTAIN if value else WHP, rank=rep.rank)


def is_rigid(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Verdict:
    """Generic rigidity via the rank characterization.

    For n <= d+1 the rank condition degenerates; there rigidity is defined
    as completeness (simplices and sub-simplices), so graphs on 0 or 1
    vertices are rigid.
    """
    n = g.n
    if n <= d + 1:
        return Verdict(g.is_complete(), CERTAIN)
    target = generic_rank_cap(n, d)
    rep = generic_rank(g, d, trials, seed, p)
    value = rep.rank == target
    return Verdict(value, CERTAIN if value else WHP, rank=rep.rank)


def linked_pairs(
    g: Graph,
    d: int,
    pairs: Sequence[Edge],
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> list[Verdict]:
    """For each pair uv: True iff adding uv does not raise the generic rank.

    Each trial eliminates R(G,p) once and tests whether the row of each uv on
    the same placement lies in its row space, which makes
    rank(G) <= rank(G+uv) <= rank(G)+1 hold exactly per trial.  A pair is
    linked when its best rank over the trials equals the best rank of G.
    Edges of G are linked with certainty and cost nothing.
    """
    for u, v in pairs:
        if u == v:
            raise ValueError("endpoints must differ")
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError("endpoint out of range")
    queries = {normalize_edge(u, v) for u, v in pairs} - g.edges
    if not queries:
        return [Verdict(True, CERTAIN) for _ in pairs]
    # placing G plus every queried pair draws the same coordinates as placing G
    placed = g.add_edges(queries)
    cap = generic_rank_cap(g.n, d)
    best_g = 0
    best_uv = dict.fromkeys(queries, 0)
    for rows, _ in placements(placed, d, trials, seed, p):
        row_of = dict(zip(placed.sorted_edges(), rows))
        basis = RowBasis(p).extend([row_of[e] for e in g.sorted_edges()], cap)
        best_g = max(best_g, basis.rank)
        # at the cap no row raises the rank: no placement of a graph on n vertices ranks higher
        raises = basis.rank < cap
        for uv in queries:
            best_uv[uv] = max(best_uv[uv], basis.rank + (raises and not basis.in_span(row_of[uv])))
    out = []
    for u, v in pairs:
        if g.has_edge(u, v):
            out.append(Verdict(True, CERTAIN))
            continue
        value = best_g == best_uv[normalize_edge(u, v)]
        if value and best_g == cap:
            # rank is at the cap, so no edge can raise it
            confidence = CERTAIN
        elif not value and best_g == g.edge_count:
            # G is certainly independent and the new edge certainly adds rank
            confidence = CERTAIN
        else:
            confidence = WHP
        out.append(Verdict(value, confidence, rank=best_g))
    return out


def is_linked(
    g: Graph, d: int, u: int, v: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Verdict:
    """True iff adding uv does not raise the generic rank (see :func:`linked_pairs`)."""
    return linked_pairs(g, d, [(u, v)], trials, seed, p)[0]


def kernel_view(rows: list[Row], cols: int, p: int) -> tuple[int, int, list[Row]]:
    """What edge deletions need from one placement: the rank of R(G,p), the
    dimension of its left kernel, and the canonical left-kernel basis K held
    as one dual row per edge (the edge's column of K, keyed by basis index).

    Deleting an edge set S leaves rank(G - S) = rank - |S| + rank of the
    dual rows of S, and the stresses of G - S are the K-combinations that
    vanish on S.
    """
    kernel = left_kernel_basis(ModMatrix(rows, cols, p))
    dual = [{f: vec[i] for f, vec in enumerate(kernel) if vec[i]} for i in range(len(rows))]
    return len(rows) - len(kernel), len(kernel), dual


def _leaves(dual: list[Row], m: int, k: int, p: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Every k-subset of range(m) in lexicographic order, with whether its dual
    rows are independent.  Depth-first with one basis per prefix: a leaf costs
    one in_span, and a dependent prefix settles its extensions unreduced."""
    def walk(prefix: tuple[int, ...], basis: RowBasis):
        depth = len(prefix)
        if depth == k:  # only when k == 0
            yield prefix, True
            return
        for i in range(prefix[-1] + 1 if prefix else 0, m - k + depth + 1):
            if depth == k - 1:
                yield prefix + (i,), not basis.in_span(dual[i])
                continue
            child = RowBasis(p)
            child.pivots = dict(basis.pivots)  # pivot rows are never mutated
            if child.add(dual[i]):
                yield from walk(prefix + (i,), child)
            else:
                for rest in itertools.combinations(range(i + 1, m), k - depth - 1):
                    yield prefix + (i,) + rest, False

    return walk((), RowBasis(p))


def is_t_redundantly_rigid(
    g: Graph, d: int, t: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> RedundancyReport:
    """Rigid after deleting any edge set of size < t.

    By rank monotonicity it suffices to enumerate deletions of size exactly
    t-1.  Per trial one shared placement is evaluated; the per-subset rank
    drop is read off the left-kernel matrix (the dual representation), which
    is exactly the rank of the remaining rows for that placement.  A subset
    fails iff it is dependent in every full-rank view; the witness is the
    first failing subset in lexicographic order, and subsets_checked counts up
    to it.  :func:`_leaves` walks the first view; only its rejects are re-tested.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    k = t - 1
    m = g.edge_count
    if k > m:
        raise ValueError(f"cannot delete {k} edges from {m}")
    edges = g.sorted_edges()
    n = g.n
    if n <= d + 1:
        ok = g.is_complete() and k == 0
        return RedundancyReport(ok, CERTAIN, None if ok else edges[:k], 1)
    target = generic_rank_cap(n, d)
    views = [kernel_view(rows, d * n, p) for rows, _ in placements(g, d, trials, seed, p)]
    # rank(G - S) = full_rank - |S| + rank of the dual rows of S
    views = [(kernel_dim, dual) for full_rank, kernel_dim, dual in views if full_rank >= target]
    if not views:
        return RedundancyReport(False, WHP, edges[:k], 1)
    for checked, (subset, ok) in enumerate(_leaves(views[0][1], m, k, p), 1):
        if not ok and not any(rank_of_rows([dual[i] for i in subset], kernel_dim, p) == k
                              for kernel_dim, dual in views[1:]):
            return RedundancyReport(False, WHP, tuple(edges[i] for i in subset), checked)
    return RedundancyReport(True, CERTAIN, None, comb(m, k))


def cover_rank_bound(g: Graph, d: int, cover: Cover) -> int:
    """Upper bound |E_0| + sum(d |V(E_i)| - C(d+1,2)) over the cover parts.

    The parts must jointly cover E exactly, and every part must span at
    least d+1 vertices.
    """
    loose = {normalize_edge(u, v) for u, v in cover.loose_edges}
    parts = [tuple(normalize_edge(u, v) for u, v in part) for part in cover.parts]
    union = set(loose)
    for part in parts:
        union.update(part)
    if union != g.edges:
        raise ValueError("cover does not union to the edge set")
    bound = len(loose)
    for part in parts:
        span = {w for e in part for w in e}
        if len(span) < d + 1:
            raise ValueError(f"part spans {len(span)} vertices, need at least {d + 1}")
        bound += generic_rank_cap(len(span), d)
    return bound
