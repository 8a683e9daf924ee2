"""Generic global rigidity via randomized stress-matrix certificates.

A graph on n >= d+2 vertices is generically globally rigid exactly when it
is rigid and a generic placement carries an equilibrium stress whose stress
matrix has rank n-d-1.  A random stress of the one stress stream,
:func:`rigidity._stresses`, evaluates that with one-sided error each way, so
both verdicts are "whp" (a graph found not rigid keeps :func:`is_rigid`'s),
but a False is certain when exact connectivity is at most d (Hendrickson).
In the plane it is rigid, 3-connected and redundantly rigid (Jackson & Jordan,
*JCTB* 94, 2005).  There a False keeps the tag of the test it failed, certain for
exact 3-connectivity, and a True is certain: rigidity at the cap and redundancy are.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph_core import Graph, _bits, as_vertex_set, induced_subgraph, path_avoiding, vertex_connectivity
from .modlinalg import DEFAULT_PRIME, ModMatrix, rank
from .rigidity import CERTAIN, WHP, Verdict, _stresses, is_linked, is_rigid, is_t_redundantly_rigid


class StressCertificate(NamedTuple):
    """A sampled equilibrium stress and the rank of its stress matrix."""

    stress: tuple[int, ...]
    omega_rank: int
    target: int


def stress_matrix(g: Graph, stress: tuple[int, ...]) -> ModMatrix:
    """Assemble the n x n stress matrix over Z_p: -w_uv off-diagonal, row sums zero."""
    n, p = g.n, DEFAULT_PRIME
    data: list[dict[int, int]] = [{} for _ in range(n)]
    for w, (u, v) in zip(stress, g.sorted_edges()):
        w %= p
        if w:
            data[u][v] = data[v][u] = p - w
            data[u][u] = (data[u].get(u, 0) + w) % p
            data[v][v] = (data[v].get(v, 0) + w) % p
    for i, row in enumerate(data):
        if row.get(i) == 0:
            del row[i]
    return ModMatrix(data, n, p)


def stress_matrix_rank(g: Graph, d: int, seed: int = 0) -> StressCertificate:
    """Best stress-matrix rank over the stresses of :func:`rigidity._stresses`.

    The first best trial is kept; a zero stress's matrix ranks 0.  Requires
    n >= d+2; the target rank is n-d-1.
    """
    n = g.n
    if n < d + 2:
        raise ValueError("stress certificates need at least d+2 vertices")
    target = n - d - 1
    best = StressCertificate((0,) * g.edge_count, 0, target)
    for _, (stress,) in _stresses(g, d, seed):
        omega_rank = rank(stress_matrix(g, stress))
        if omega_rank > best.omega_rank:
            best = StressCertificate(tuple(stress), omega_rank, target)
            if omega_rank >= target:
                break
    return best


def is_globally_rigid(g: Graph, d: int, seed: int = 0) -> Verdict:
    """Generic global rigidity verdict.

    Complete graphs are globally rigid; on n <= d+1 vertices completeness is
    also necessary.  Dimension 1 reduces to 2-connectivity, which is decided
    exactly.  Otherwise the verdict combines the rigidity rank test with the
    stress-matrix certificate, or in the plane with 3-connectivity and
    redundant rigidity (every edge in a K4, a plane circuit, or t = 2).
    """
    if g.is_complete():
        return Verdict(True, CERTAIN)
    if d == 1:
        return Verdict(vertex_connectivity(g, 2) >= 2, CERTAIN)
    if not (rigid := is_rigid(g, d, seed)).value:
        return rigid
    if d == 2:
        if vertex_connectivity(g, 3) < 3:  # Hendrickson, SIAM J. Comput. 21, 1992
            return Verdict(False, CERTAIN, rank=rigid.rank)
        mask = g.neighbor_mask
        common = (mask(u) & mask(v) for u, v in g.sorted_edges())  # uv is in a K4 iff two are adjacent
        if all(any(mask(w) & c for w in _bits(c)) for c in common):
            return Verdict(True, CERTAIN, rank=rigid.rank)
        redundant = is_t_redundantly_rigid(g, 2, 2, seed)
        return Verdict(redundant.value, redundant.confidence, rank=rigid.rank)
    if (cert := stress_matrix_rank(g, d, seed)).omega_rank == cert.target:
        return Verdict(True, WHP, rank=rigid.rank)
    # connectivity only for a False: a globally rigid graph on n >= d+2 vertices is (d+1)-connected
    return Verdict(False, CERTAIN if vertex_connectivity(g, d + 1) <= d else WHP, rank=rigid.rank)


def wgl_sufficient(g: Graph, d: int, u: int, v: int, v0, seed: int = 0) -> Verdict:
    """Sufficient condition for {u,v} weakly globally linked in g.

    True iff {u,v} is linked in the subgraph induced on v0 and some u-v path
    is internally disjoint from v0.  True implies weak global linkedness;
    false verdicts say only that this particular certificate failed.
    """
    vs = as_vertex_set(v0, g.n)
    if u == v:
        raise ValueError("endpoints must differ")
    if u not in vs or v not in vs:
        raise ValueError("both endpoints must lie in v0")
    if not path_avoiding(g, u, v, vs):
        return Verdict(False, CERTAIN)
    sub, mapping = induced_subgraph(g, vs)
    local = {old: new for new, old in enumerate(mapping)}
    linked = is_linked(sub, d, local[u], local[v], seed)
    return Verdict(linked.value, linked.confidence)
