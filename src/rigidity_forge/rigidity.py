"""The d-dimensional generic rigidity matroid, evaluated over Z_p.

Generic placements are emulated by uniform random coordinates in a large
prime field; a random evaluation never overestimates the generic rank, and
underestimates it with negligible probability.  Verdicts carry an explicit
one-sided confidence tag: "certain" when the computed rank is forced by an
a-priori cap, "whp" otherwise.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb

from .graph_core import Edge, Graph, normalize_edge
from .modlinalg import (
    DEFAULT_PRIME,
    ModMatrix,
    Row,
    RowBasis,
    left_kernel_basis,
    make_rng,
    rank_of_rows,
)

CERTAIN = "certain"
WHP = "whp"


@dataclass(frozen=True)
class RankReport:
    """Computed matroid rank plus the confidence of the verdict."""

    rank: int
    dim: int
    trials: int
    confidence: str
    seed: int


@dataclass(frozen=True)
class Verdict:
    """Boolean answer with its one-sided confidence tag."""

    value: bool
    confidence: str
    rank: int | None = None

    def __bool__(self) -> bool:
        return self.value


@dataclass(frozen=True)
class RedundancyReport:
    value: bool
    confidence: str
    witness: tuple[Edge, ...] | None
    subsets_checked: int


@dataclass(frozen=True)
class Cover:
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
    holds p(u)-p(v), the block of v holds p(v)-p(u).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = make_rng(seed)
    for _ in range(trials):
        points = [rng.randrange(1, p) for _ in range(g.n * d)]
        yield _matrix_rows(g, d, points, p), rng


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


def generic_rank(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> RankReport:
    """Max rank of the rigidity matrix over independent random placements.

    The result is a certain lower bound on the generic rank and equals it
    with high probability; "certain" is reported exactly when the rank hits
    the a-priori cap min(|E|, dn - C(d+1,2)).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    cap = min(g.edge_count, generic_rank_cap(g.n, d))
    best = 0
    for rows, _ in placements(g, d, trials, seed, p):
        best = max(best, rank_of_rows(rows, d * g.n, p))
        if best == cap:
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
    as completeness (simplices and sub-simplices).  Graphs on 0 or 1
    vertices are rigid.
    """
    n = g.n
    if n <= 1:
        return Verdict(True, CERTAIN)
    if n <= d + 1:
        return Verdict(g.is_complete(), CERTAIN)
    target = d * n - comb(d + 1, 2)
    rep = generic_rank(g, d, trials, seed, p)
    value = rep.rank == target
    return Verdict(value, CERTAIN if value else WHP, rank=rep.rank)


def is_linked(
    g: Graph, d: int, u: int, v: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Verdict:
    """True iff adding uv does not raise the generic rank.

    Each trial eliminates R(G,p) once and tests whether the row of uv on the
    same placement lies in its row space, which makes
    rank(G) <= rank(G+uv) <= rank(G)+1 hold exactly per trial.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint out of range")
    if g.has_edge(u, v):
        return Verdict(True, CERTAIN)
    g2 = g.add_edge(u, v)
    new_row = g2.sorted_edges().index(normalize_edge(u, v))
    best_g = best_g2 = 0
    for rows, _ in placements(g2, d, trials, seed, p):
        uv_row = rows.pop(new_row)
        basis = RowBasis(p)
        for row in rows:
            basis.add(row)
        best_g = max(best_g, basis.rank)
        best_g2 = max(best_g2, basis.rank + (not basis.in_span(uv_row)))
    value = best_g == best_g2
    cap = generic_rank_cap(g.n, d)
    if value and best_g == cap:
        # rank is at the cap, so no edge can raise it
        confidence = CERTAIN
    elif not value and best_g == g.edge_count:
        # G is certainly independent and the new edge certainly adds rank
        confidence = CERTAIN
    else:
        confidence = WHP
    return Verdict(value, confidence, rank=best_g)


def is_t_redundantly_rigid(
    g: Graph, d: int, t: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> RedundancyReport:
    """Rigid after deleting any edge set of size < t.

    By rank monotonicity it suffices to enumerate deletions of size exactly
    t-1.  Per trial one shared placement is evaluated; the per-subset rank
    drop is read off the left-kernel matrix (the dual representation), which
    is exactly the rank of the remaining rows for that placement.
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
        if not g.is_complete():
            return RedundancyReport(False, CERTAIN, tuple(edges[:k]), 1)
        if k == 0:
            return RedundancyReport(True, CERTAIN, None, 1)
        return RedundancyReport(False, CERTAIN, tuple(edges[:k]), 1)
    target = d * n - comb(d + 1, 2)
    trial_data: list[tuple[int, list[Row], int]] = []
    for rows, _ in placements(g, d, trials, seed, p):
        kernel = left_kernel_basis(ModMatrix(rows, d * n, p))
        # dual vectors per edge: column i of the kernel matrix
        dual = [{f: vec[i] for f, vec in enumerate(kernel) if vec[i]} for i in range(m)]
        trial_data.append((m - len(kernel), dual, len(kernel)))
    checked = 0
    for subset in itertools.combinations(range(m), k):
        checked += 1
        ok = False
        for full_rank, dual, dual_cols in trial_data:
            if full_rank < target:
                continue
            # rank(G - S) = full_rank - |S| + rank of the dual rows of S
            if rank_of_rows([dual[i] for i in subset], dual_cols, p) == k:
                ok = True
                break
        if not ok:
            witness = tuple(edges[i] for i in subset)
            return RedundancyReport(False, WHP, witness, checked)
    return RedundancyReport(True, CERTAIN, None, checked)


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
        bound += d * len(span) - comb(d + 1, 2)
    return bound
