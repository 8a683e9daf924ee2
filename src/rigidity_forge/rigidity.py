"""The d-dimensional generic rigidity matroid, evaluated over Z_p.

Generic placements are emulated by uniform random coordinates in the one
prime field it computes over, that of :data:`modlinalg.DEFAULT_PRIME`; a
random evaluation never overestimates the generic rank, and underestimates
it with negligible probability.  :func:`settled` tags each verdict "certain"
when certain bounds decide it (the rank found below; |E|, the cap
dn - C(d+1,2) and a clique cover's bound above), "whp" otherwise.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator, Sequence
from math import comb
from typing import NamedTuple

from .graph_core import MAX_VERTICES, Edge, Graph, iter_maximal_cliques, normalize_edge
from .modlinalg import (
    DEFAULT_PRIME,
    ModMatrix,
    Row,
    RowBasis,
    TRIALS,
    left_kernel_sample,
    make_rng,
    rank_of_rows,
)

CERTAIN = "certain"
WHP = "whp"

#: The most coordinates (n*d) a placement takes, so that a huge dimension is
#: refused before it exhausts memory; every graph `Graph` accepts is placeable
#: up to d = 6.  At the limit the rank of one edge takes 0.2 s and 54 MB in a
#: CLI call (2-core x86-64 box, CPython 3.11).
MAX_COORDINATES = 6 * MAX_VERTICES
#: The most placements one verdict draws (each misses with odds of about rank/p
#: at most), and edge subsets one redundancy verdict tests.  In-process on that
#: box, 1,000 trials rank 20 edges in 0.3 s; 8.2e6 subsets (K_16, t = 5) take 1.4-2.1 s.
MAX_TRIALS = 1000
REDUNDANCY_BUDGET = 10**7


class RankReport(NamedTuple):
    """Computed matroid rank, its confidence, and the certain upper bound it stopped at."""

    rank: int
    confidence: str
    upper: int


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


def generic_rank_cap(n: int, d: int) -> int:
    """A-priori cap on the generic rank: the dn - C(d+1,2) bound for
    n >= d+1, and C(n,2) (every graph independent) below that."""
    if n >= d + 1:
        return d * n - comb(d + 1, 2)
    return comb(n, 2)


def settled(lower: int, upper: int, target: int) -> str:
    """The tag of a verdict on whether a quantity reaches `target`, from certain
    bounds lower <= quantity <= upper: "certain" exactly when they decide it."""
    return CERTAIN if lower >= target or upper < target else WHP


def placements(n: int, d: int, trials: int, seed: int) -> Iterator[tuple[list[int], random.Random]]:
    """The seeded placement stream behind every randomized verdict.

    Yields, for each of `trials` placements of n vertices in d dimensions,
    its coordinates and the stream itself, from which a caller may draw more
    before the next placement.  Coordinates are uniform in [1, p-1] for
    p = DEFAULT_PRIME, drawn vertex by vertex: p(v) is points[v*d : v*d + d].
    A dimension below 1, more than MAX_TRIALS placements or MAX_COORDINATES
    coordinates are refused at the call.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the limit of {MAX_TRIALS}")
    if n * d > MAX_COORDINATES:
        raise ValueError(f"{n * d} coordinates exceed the limit of {MAX_COORDINATES}")
    rng, p = make_rng(seed), DEFAULT_PRIME
    return (([rng.randrange(1, p) for _ in range(n * d)], rng) for _ in range(trials))


def _matrix_rows(edges: Iterable[Edge], d: int, points: Sequence[int]) -> list[Row]:
    """The rows of the rigidity matrix on a placement, one per edge uv, u < v,
    in the order given: the block of vertex u holds p(u)-p(v), the block of
    v holds p(v)-p(u)."""
    rows, p = [], DEFAULT_PRIME
    for u, v in edges:
        row = {}
        for t in range(d):
            diff = (points[u * d + t] - points[v * d + t]) % p
            if diff:
                row[u * d + t] = diff
                row[v * d + t] = p - diff
        rows.append(row)
    return rows


def _stresses(g: Graph, d: int, seed: int, count: int = 1) -> Iterator[tuple[int, list]]:
    """Per seeded placement (TRIALS of them), the rank of R(G,p), rows in sorted edge order, and `count`
    random stresses from its left kernel, each zero iff there is none, seeded by the stream's next draw.
    The stream's settings are refused at the call, before any is drawn."""
    return (left_kernel_sample(ModMatrix(_matrix_rows(g.sorted_edges(), d, points), d * g.n),
                               rng.getrandbits(64), count) for points, rng in placements(g.n, d, TRIALS, seed))


def _cap_first(g: Graph, d: int) -> list[Edge]:
    """g's edges, arranged so that :meth:`RowBasis.extend`, which feeds rows
    last-first, takes each vertex's first d edges of that last-first order
    before all other edges.  On K_n those edges are a basis, K_{d+1} and then
    one vertex joined to d earlier ones at a time, so an elimination stopped
    at the cap adds no dependent row.  The rank does not depend on the order.
    """
    seen = [0] * g.n
    first, rest = [], []
    for u, v in reversed(g.sorted_edges()):
        (first if seen[u] < d or seen[v] < d else rest).append((u, v))
        seen[u] += 1
        seen[v] += 1
    return rest[::-1] + first[::-1]


def _cover_first(g: Graph, d: int) -> tuple[list[Edge], int]:
    """g's edges in a feed order for :func:`rank_of_rows`, and the certain bound
    min(|E|, dn - C(d+1,2), a greedy clique cover's) on the generic rank of g.

    The maximal cliques on k >= d+2 vertices are taken largest first, and
    each is kept when its rank bound d*k - C(d+1,2) is below its number of
    still-uncovered edges.  The bound is the clique-decomposition bound of
    Lovasz and Yemini: the kept cliques' rank bounds plus one for each edge
    that no kept clique covers.  The feed takes first each kept clique's
    d-tree, from its top vertex down: K_{d+1}, then each vertex joined to
    the d fed before it.  The other edges follow in :func:`_cap_first`
    order, the uncovered ones before those of kept cliques.  A d-tree spans
    its clique's rows, so an elimination stopped at the bound reduces none
    of the clique's other rows.

    The search is skipped, and the plain :func:`_cap_first` order returned
    with the bound min(|E|, cap), when no edge has d common neighbours (so
    there is no K_{d+2}) or g has more maximal cliques than vertices.
    """
    order, m = _cap_first(g, d), g.edge_count
    ceiling, mask = min(m, generic_rank_cap(g.n, d)), g.neighbor_mask
    if not any((mask(u) & mask(v)).bit_count() >= d for u, v in g.sorted_edges()):
        return order, ceiling
    cliques = list(itertools.islice(iter_maximal_cliques(g), g.n + 1))
    if len(cliques) > g.n:
        return order, ceiling
    covered: set[Edge] = set()
    bound, tree = 0, []
    for c in sorted((c for c in cliques if len(c) >= d + 2), key=len, reverse=True):
        pairs = tuple(itertools.combinations(c, 2))
        cap = generic_rank_cap(len(c), d)
        if cap < sum(e not in covered for e in pairs):
            covered.update(pairs)
            bound += cap
            top = c[::-1]
            tree += itertools.combinations(top[: d + 1], 2)
            tree += ((w, top[i]) for i in range(d + 1, len(top)) for w in top[i - d : i])
    # a clique is sorted, so each tree pair runs from the larger vertex down;
    # overlapping cliques can share tree edges: each goes in once
    fed_first = list(dict.fromkeys((v, u) for u, v in tree))
    skip = set(fed_first)
    rest = sorted((e for e in order if e not in skip), key=lambda e: e not in covered)
    return rest + fed_first[::-1], min(ceiling, bound + m - len(covered))


def generic_rank(g: Graph, d: int, trials: int = TRIALS, seed: int = 0) -> RankReport:
    """Max rank of the rigidity matrix over independent random placements.

    The result is a certain lower bound on the generic rank and equals it
    with high probability.  The report's `upper` is the lowest certain upper
    bound held, that of :func:`_cover_first`: min(|E|, dn - C(d+1,2), a
    clique-cover bound).  Eliminations and trials stop there, and the rank
    is "certain" exactly when it reaches it.  A graph on n <= d+1 vertices
    is independent (K_{d+1} is), so its rank is |E|, certain, with no placement.
    """
    stream = placements(g.n, d, trials, seed)  # refuses its settings before the clique search
    if g.n <= d + 1:
        return RankReport(g.edge_count, CERTAIN, g.edge_count)
    order, stop = _cover_first(g, d)
    best = 0
    for points, _ in stream:
        best = max(best, rank_of_rows(_matrix_rows(order, d, points), d * g.n, cap=stop))
        if best == stop:
            break
    return RankReport(best, settled(best, stop, stop), stop)


def is_independent(g: Graph, d: int, seed: int = 0) -> Verdict:
    """True iff the generic rank equals |E|; true verdicts are certain."""
    rep = generic_rank(g, d, TRIALS, seed)
    return Verdict(rep.rank == g.edge_count, settled(rep.rank, rep.upper, g.edge_count), rank=rep.rank)


def is_rigid(g: Graph, d: int, seed: int = 0) -> Verdict:
    """Generic rigidity via the rank characterization: rank dn - C(d+1,2), or
    C(n,2) on n <= d+1 vertices, where rigid means complete (simplices and
    sub-simplices), so graphs on 0 or 1 vertices are rigid."""
    rep = generic_rank(g, d, TRIALS, seed)  # refuses d < 1 before the cap reads d
    target = generic_rank_cap(g.n, d)
    return Verdict(rep.rank == target, settled(rep.rank, rep.upper, target), rank=rep.rank)


def linked_pairs(g: Graph, d: int, pairs: Sequence[Edge], seed: int = 0) -> list[Verdict]:
    """For each pair uv: True iff adding uv does not raise the generic rank.

    Each trial eliminates R(G,p) once, in :func:`_cover_first`'s order up to
    its bound, and tests whether the row of each uv on the same placement lies
    in its row space, which makes rank(G) <= rank(G+uv) <= rank(G)+1 hold
    exactly per trial.  A pair is linked when its best rank over the trials
    equals the best rank of G.  Edges of G are linked with certainty and cost
    nothing.  A pair's row is built only for its span test, which a pair
    above a trial's rank of G skips, and trials end once none can rise.
    """
    for u, v in pairs:
        if u == v:
            raise ValueError("endpoints must differ")
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError("endpoint out of range")
    queries = {normalize_edge(u, v) for u, v in pairs if not g.has_edge(u, v)}
    if not queries:
        return [Verdict(True, CERTAIN) for _ in pairs]
    stream = placements(g.n, d, TRIALS, seed)  # refuses its settings before any arithmetic on d
    cap = generic_rank_cap(g.n, d)
    order, full = _cover_first(g, d)  # rank(G) <= full, so rank(G + uv) <= min(full + 1, cap)
    best_g = 0
    best_uv = dict.fromkeys(queries, 0)
    for points, _ in stream:
        basis = RowBasis().extend(_matrix_rows(order, d, points), full)
        best_g = max(best_g, basis.rank)
        # at the cap no row raises the rank: no placement of a graph on n vertices ranks higher
        raises = basis.rank < cap
        for uv in queries:
            if best_uv[uv] <= basis.rank:
                best_uv[uv] = basis.rank + (raises and not basis.in_span(_matrix_rows([uv], d, points)[0]))
        # G at full and every pair one above it, or at the cap: no trial ranks higher
        top = best_g + (best_g < cap)
        if best_g == full and all(r == top for r in best_uv.values()):
            break
    # uv raises the rank by at least best - full and at most min(full + 1, cap) - best_g, and it
    # is linked iff by 0: certain when rank(G) is at the cap, or uv raises it from full
    verdict = {uv: Verdict(best == best_g, settled(best - full, min(full + 1, cap) - best_g, 1), rank=best_g)
               for uv, best in best_uv.items()}
    return [Verdict(True, CERTAIN) if g.has_edge(u, v) else verdict[normalize_edge(u, v)] for u, v in pairs]


def is_linked(g: Graph, d: int, u: int, v: int, seed: int = 0) -> Verdict:
    """True iff adding uv does not raise the generic rank (see :func:`linked_pairs`)."""
    return linked_pairs(g, d, [(u, v)], seed)[0]


def _slopes(rows: list[Sequence[int]]) -> list[int | None]:
    """The slope y/x mod p of each row (x, y), p where only x is 0 and None at (0, 0),
    with one inverse for them all (Montgomery's batch inversion)."""
    p = DEFAULT_PRIME
    running = list(itertools.accumulate((x or 1 for x, _ in rows), lambda u, v: u * v % p, initial=1))
    inv, keys = pow(running[-1], -1, p), [None] * len(rows)
    for a in range(len(rows) - 1, -1, -1):  # inv = 1/running[a + 1]
        x, y = rows[a]
        keys[a] = y * inv * running[a] % p if x else p if y else None
        inv = inv * (x or 1) % p
    return keys


def _rejects(dual: list[tuple[int, ...]], k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every k-subset of range(len(dual)) whose dual rows are dependent, in lexicographic
    order, each after its position in that order (from 1).  Depth-first: a prefix holds a
    basis c_1, c_2, ... of the vectors orthogonal to its rows, one per row still to add, as
    the dot products c_i.s of each later row s.  A row r is independent of the prefix iff
    some c_j.r is nonzero; adding it replaces every other c_i by (c_j.r) c_i - (c_i.r) c_j
    and drops c_j.  A prefix with every c.r zero rejects its extensions unreduced.  With two
    vectors left, a last pair is dependent iff its 2 x 2 determinant vanishes: the two rows'
    slopes match or one row is zero, whose pairs take no comparison."""
    m, p = len(dual), DEFAULT_PRIME

    def walk(prefix: tuple[int, ...], rows: list[Sequence[int]], pos: int):  # pos subsets precede
        lo, left = m - len(rows), k - len(prefix)
        if left == 2:
            keys = _slopes(rows)
            for a, key in enumerate(keys):
                later = range(a + 1, len(keys))
                if key is not None:
                    later = [b for b, other in zip(later, keys[a + 1:]) if other == key or other is None]
                for b in later:
                    yield pos + b - a, prefix + (lo + a, lo + b)
                pos += len(keys) - a - 1
            return
        for a, r in enumerate(rows[: len(rows) - left + 1]):
            j = next((j for j, x in enumerate(r) if x), None)
            if j is None:
                for at, rest in enumerate(itertools.combinations(range(lo + a + 1, m), left - 1), pos + 1):
                    yield at, prefix + (lo + a,) + rest
            elif left > 1:
                reduced = ([(r[j] * x - s[j] * y) % p for x, y in zip(s, r)] for s in rows[a + 1:])
                yield from walk(prefix + (lo + a,), [s[:j] + s[j + 1:] for s in reduced], pos)
            pos += comb(len(rows) - a - 1, left - 1)

    return walk((), dual, 0) if k else iter(())


def is_t_redundantly_rigid(g: Graph, d: int, t: int, seed: int = 0) -> RedundancyReport:
    """Rigid after deleting any edge set of size < t.

    By rank monotonicity it suffices to enumerate deletions of size exactly k = t-1.  After the
    refusals (of t and k, the subset budget, the placement settings), one count decides with no
    placement: G - S ranks at most min(|E| - k, rank(G)), so the first k edges fail, certainly,
    when that or :func:`_cover_first`'s bound on rank(G) is below the cap; on n <= d+1, where
    every graph is independent, the count is exact and is the verdict.  Otherwise each placement
    gives every edge a dual row, its entries in k stresses of :func:`_stresses`: its column of
    the left-kernel basis projected on k random directions, which makes a subset independent in
    the kernel dependent with probability at most k/p (Schwartz-Zippel on a k x k determinant).
    A subset independent in a full-rank view keeps the rank at the cap once deleted, so True is
    certain; a failure left to the views is whp.  The witness is the first failing subset in
    lexicographic order, subsets_checked counts up to it, and :func:`_rejects` walks the first
    view; only its rejects are re-tested.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    k, m = t - 1, g.edge_count
    if k > m:
        raise ValueError(f"cannot delete {k} edges from {m}")
    if comb(m, k) > REDUNDANCY_BUDGET:
        raise ValueError(f"C({m}, {k}) edge subsets exceed the budget of {REDUNDANCY_BUDGET}")
    stresses = _stresses(g, d, seed, k)  # refuses its settings before the count
    edges, target = g.sorted_edges(), generic_rank_cap(g.n, d)
    if not (ok := m - k >= target and _cover_first(g, d)[1] >= target) or g.n <= d + 1:
        return RedundancyReport(ok, CERTAIN, None if ok else edges[:k], 1)
    # rank(G - S) = full_rank - |S| + rank of the kernel's dual rows of S, at least those of a view
    views = (list(zip(*view)) for full_rank, view in stresses if full_rank >= target)
    first, drawn = next(views, None), []
    if first is None:
        return RedundancyReport(False, WHP, edges[:k], 1)
    def later():  # the views after the first, each drawn when a reject first needs it
        yield from drawn
        for view in views:
            drawn.append(view)
            yield view
    for checked, subset in _rejects(first, k):
        if all(any(_rejects([dual[i] for i in subset], k)) for dual in later()):
            return RedundancyReport(False, WHP, tuple(edges[i] for i in subset), checked)
    return RedundancyReport(True, CERTAIN, None, comb(m, k))
