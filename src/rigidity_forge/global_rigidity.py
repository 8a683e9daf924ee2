"""Generic global rigidity via randomized stress-matrix certificates.

A graph on n >= d+2 vertices is generically globally rigid exactly when it
is rigid and a generic placement carries an equilibrium stress whose stress
matrix has rank n-d-1.  Random field placements plus a random kernel stress
evaluate that condition with one-sided error in each direction, so both
verdicts are tagged "whp".  In the plane the verdict is instead rigid,
3-connected and redundantly rigid (Jackson & Jordan, *JCTB* 94, 2005).
"""

from __future__ import annotations

from typing import NamedTuple

from .graph_core import Graph, as_vertex_set, induced_subgraph, path_avoiding, vertex_connectivity
from .modlinalg import DEFAULT_PRIME, ModMatrix, left_kernel_sample, rank, rank_of_rows
from .rigidity import CERTAIN, WHP, Verdict, generic_rank_cap, is_linked, is_rigid, placements


class StressCertificate(NamedTuple):
    """A sampled equilibrium stress and the rank of its stress matrix."""

    graph: Graph
    dim: int
    stress: tuple[int, ...]
    omega_rank: int
    target: int
    seed: int


def stress_matrix(g: Graph, stress: tuple[int, ...], p: int = DEFAULT_PRIME) -> ModMatrix:
    """Assemble the n x n stress matrix: -w_uv off-diagonal, row sums zero."""
    n = g.n
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


def stress_matrix_rank(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> StressCertificate:
    """Best stress-matrix rank over seeded trials.

    Each trial draws a placement, samples a random equilibrium stress from
    the left kernel of the rigidity matrix and ranks the assembled stress
    matrix.  Requires n >= d+2; the target rank is n-d-1.
    """
    n = g.n
    if n < d + 2:
        raise ValueError("stress certificates need at least d+2 vertices")
    target = n - d - 1
    best: StressCertificate | None = None
    for rows, rng in placements(g, d, trials, seed, p):
        stress = tuple(left_kernel_sample(ModMatrix(rows, d * n, p), rng.getrandbits(64)))
        omega_rank = rank(stress_matrix(g, stress, p)) if any(stress) else 0
        if best is None or omega_rank > best.omega_rank:
            best = StressCertificate(g, d, stress, omega_rank, target, seed)
        if best.omega_rank >= target:
            break
    assert best is not None
    return best


def is_globally_rigid(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Verdict:
    """Generic global rigidity verdict.

    Complete graphs are globally rigid; on n <= d+1 vertices completeness is
    also necessary.  Dimension 1 reduces to 2-connectivity, which is decided
    exactly.  Otherwise the verdict combines the rigidity rank test with the
    stress-matrix certificate, or in the plane with 3-connectivity and
    :func:`_plane_redundant`.
    """
    n = g.n
    if n <= d + 1 or g.is_complete():
        return Verdict(g.is_complete(), CERTAIN)
    if d == 1:
        return Verdict(vertex_connectivity(g, 2) >= 2, CERTAIN)
    rigid = is_rigid(g, d, trials, seed, p)
    if not rigid.value:
        return Verdict(False, WHP, rank=rigid.rank)
    if d == 2:
        value = vertex_connectivity(g, 3) >= 3 and _plane_redundant(g, trials, seed, p)
        return Verdict(value, WHP, rank=rigid.rank)
    cert = stress_matrix_rank(g, d, trials, seed, p)
    return Verdict(cert.omega_rank == cert.target, WHP, rank=rigid.rank)


def _plane_redundant(g: Graph, trials: int, seed: int, p: int) -> bool:
    """Redundant rigidity of a rigid graph in the plane.  True is certain:
    every edge lies in a K4, a circuit of the plane rigidity matroid, or a
    stress drawn as :func:`stress_matrix_rank` draws it is nonzero on every
    edge of a placement of rank 2n-3, so every edge lies in a circuit."""
    mask = g.neighbor_mask
    if all(any(mask(w) & mask(u) & mask(v) for w in g.neighbors(u) & g.neighbors(v))
           for u, v in g.edges):
        return True
    return any(all(left_kernel_sample(ModMatrix(rows, 2 * g.n, p), rng.getrandbits(64)))
               and rank_of_rows(rows, 2 * g.n, p) == generic_rank_cap(g.n, 2)
               for rows, rng in placements(g, 2, trials, seed, p))


def wgl_sufficient(
    g: Graph,
    d: int,
    u: int,
    v: int,
    v0,
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> Verdict:
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
    linked = is_linked(sub, d, local[u], local[v], trials, seed, p)
    return Verdict(linked.value, linked.confidence)
