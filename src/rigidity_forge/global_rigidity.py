"""Generic global rigidity via randomized stress-matrix certificates.

A graph on n >= d+2 vertices is generically globally rigid exactly when it
is rigid and a generic placement carries an equilibrium stress whose stress
matrix has rank n-d-1.  Random field placements plus a random kernel stress
evaluate that condition with one-sided error in each direction, so both
verdicts are tagged "whp".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graph_core import Graph, as_vertex_set, induced_subgraph, path_avoiding, vertex_connectivity
from .modlinalg import DEFAULT_PRIME, ModMatrix, left_kernel_sample, rank
from .rigidity import CERTAIN, WHP, Verdict, is_linked, is_rigid, placements


@dataclass(frozen=True)
class StressCertificate:
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
    stress-matrix certificate.
    """
    n = g.n
    if n <= d + 1:
        return Verdict(g.is_complete(), CERTAIN)
    if g.is_complete():
        return Verdict(True, CERTAIN)
    if d == 1:
        return Verdict(vertex_connectivity(g) >= 2, CERTAIN)
    rigid = is_rigid(g, d, trials, seed, p)
    if not rigid.value:
        return Verdict(False, WHP, rank=rigid.rank)
    cert = stress_matrix_rank(g, d, trials, seed, p)
    return Verdict(cert.omega_rank == cert.target, WHP, rank=rigid.rank)


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
    sub, mapping = induced_subgraph(g, vs)
    local = {old: new for new, old in enumerate(mapping)}
    linked = is_linked(sub, d, local[u], local[v], trials, seed, p)
    if not path_avoiding(g, u, v, vs):
        return Verdict(False, CERTAIN)
    return Verdict(linked.value, linked.confidence)


@dataclass(frozen=True)
class Lemma4Report:
    """Consistency of global rigidity of g and g+uv on a certified pair."""

    status: str  # "checked" or "inapplicable"
    base: Verdict | None
    augmented: Verdict | None
    passed: bool | None


def lemma4_consistency(
    g: Graph,
    d: int,
    u: int,
    v: int,
    v0,
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> Lemma4Report:
    """For a certified weakly globally linked non-edge {u,v}, global rigidity
    of g and of g+uv must agree.  Skipped when the certificate fails."""
    if g.has_edge(u, v):
        raise ValueError("pair must be non-adjacent")
    if not wgl_sufficient(g, d, u, v, v0, trials, seed, p).value:
        return Lemma4Report("inapplicable", None, None, None)
    base = is_globally_rigid(g, d, trials, seed, p)
    augmented = is_globally_rigid(g.add_edge(u, v), d, trials, seed, p)
    return Lemma4Report("checked", base, augmented, base.value == augmented.value)
