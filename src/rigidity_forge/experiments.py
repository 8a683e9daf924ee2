"""Theorem-level harness: hypothesis checkers, Monte Carlo sampling of the
ordered construction, brute-force oracles for tiny inputs, and spot checks
of the connectivity-implies-rigidity results.

The spot checks treat the underlying theorems as ground truth: a failure on
an applicable input means an implementation bug (or an astronomically
unlikely rank miss, cleared by rerunning with a fresh seed).
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, sqrt

from .combinatorics import m_dk
from .constructions import build_gpi, gpi_edge_count, sharpness_example, sharpness_matching
from .global_rigidity import is_globally_rigid, wgl_sufficient
from .graph_core import Edge, Graph, induced_subgraph, maximal_cliques, vertex_connectivity
from .modlinalg import DEFAULT_PRIME, make_rng
from .rigidity import (
    Verdict,
    generic_rank,
    is_independent,
    is_linked,
    is_rigid,
    is_t_redundantly_rigid,
)

# two-sided 99% normal quantile; the t correction is negligible at the
# trial counts used here (>= 10^3)
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class MonteCarloStats:
    """Sample statistics of |E_pi| over random orderings."""

    trials: int
    mean: float
    stdev: float
    half_width_99: float
    seed: int


def monte_carlo_gpi(g: Graph, d: int, trials: int, seed: int = 0) -> MonteCarloStats:
    """Sample |E_pi| over seeded Fisher-Yates random orderings.

    With a single trial the spread fields are reported as 0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = make_rng(seed)
    order = list(range(g.n))
    samples = []
    for _ in range(trials):
        rng.shuffle(order)
        samples.append(gpi_edge_count(g, d, order))
    mean = statistics.fmean(samples)
    stdev = statistics.stdev(samples) if trials > 1 else 0.0
    half_width = Z99 * stdev / sqrt(trials)
    return MonteCarloStats(trials, mean, stdev, half_width, seed)


def brute_force_expected_gpi(g: Graph, d: int) -> Fraction:
    """Average |E_pi| over all n! orderings; independent oracle, n <= 8."""
    if g.n > 8:
        raise ValueError("full ordering enumeration is limited to n <= 8")
    total = 0
    for order in itertools.permutations(range(g.n)):
        total += gpi_edge_count(g, d, order)
    return Fraction(total, factorial(g.n))


def exact_generic_rank(g: Graph, d: int, seed: int = 11) -> int:
    """Rank oracle over exact rationals: random integer coordinates, Fraction
    elimination.  Tiny instances only; independent of the mod-p path."""
    if d * g.n > 36:
        raise ValueError("rational oracle is limited to d*n <= 36")
    rng = make_rng(seed)
    coords = [rng.randrange(1, 10**9) for _ in range(g.n * d)]
    rows = []
    for u, v in g.sorted_edges():
        row = [Fraction(0)] * (d * g.n)
        for t in range(d):
            diff = Fraction(coords[u * d + t] - coords[v * d + t])
            row[u * d + t] = diff
            row[v * d + t] = -diff
        rows.append(row)
    rank = 0
    ncols = d * g.n
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / prow[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class HypothesisReport:
    """Per-vertex conditions for the expected-edge-count lower bound."""

    min_degree_ok: bool
    no_clique_neighborhood: bool
    intersection_ok: bool
    witness: tuple[int, str] | None

    @property
    def all_ok(self) -> bool:
        return self.min_degree_ok and self.no_clique_neighborhood and self.intersection_ok


def check_lemma7_hypotheses(g: Graph, d: int) -> HypothesisReport:
    """Every vertex needs degree >= d(d+1), a non-clique neighborhood, and
    pairwise intersections of maximal neighborhood cliques of size <= d-2."""
    if d < 2:
        raise ValueError("requires dimension >= 2")
    threshold = d * (d + 1)
    degree_ok = clique_ok = inter_ok = True
    witness: tuple[int, str] | None = None
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        if len(nbrs) < threshold:
            degree_ok = False
            if witness is None:
                witness = (v, f"degree {len(nbrs)} < {threshold}")
            continue
        sub, mapping = induced_subgraph(g, nbrs)
        if sub.is_complete():
            clique_ok = False
            if witness is None:
                witness = (v, "neighborhood induces a clique")
            continue
        cliques = [frozenset(mapping[i] for i in c) for c in maximal_cliques(sub)]
        for a, b in itertools.combinations(cliques, 2):
            if len(a & b) > d - 2:
                inter_ok = False
                if witness is None:
                    witness = (v, f"maximal cliques overlap in {len(a & b)} > d-2 vertices")
                break
    return HypothesisReport(degree_ok, clique_ok, inter_ok, witness)


@dataclass(frozen=True)
class SpotCheckReport:
    status: str  # "checked" or "inapplicable"
    connectivity: int
    threshold: int
    verdict: Verdict | None
    passed: bool | None


def _connectivity_spot_check(verdict, g, d, trials, seed, p) -> SpotCheckReport:
    kappa = vertex_connectivity(g)
    threshold = d * (d + 1)
    if kappa < threshold:
        return SpotCheckReport("inapplicable", kappa, threshold, None, None)
    v = verdict(g, d, trials, seed, p)
    return SpotCheckReport("checked", kappa, threshold, v, v.value)


def theorem1_spot_check(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> SpotCheckReport:
    """d(d+1)-connected graphs must be rigid; inapplicable below threshold."""
    return _connectivity_spot_check(is_rigid, g, d, trials, seed, p)


def theorem2_spot_check(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> SpotCheckReport:
    """d(d+1)-connected graphs must be globally rigid."""
    return _connectivity_spot_check(is_globally_rigid, g, d, trials, seed, p)


@dataclass(frozen=True)
class Theorem9Report:
    """Redundancy profile of the two-cliques-plus-matching example."""

    dim: int
    redundantly_rigid: bool
    over_deletion_nonrigid: bool
    redundantly_globally_rigid: bool
    gr_witness: tuple[Edge, ...] | None
    boundary_rigid: bool
    boundary_not_globally_rigid: bool

    @property
    def passed(self) -> bool:
        return (
            self.redundantly_rigid
            and self.over_deletion_nonrigid
            and self.redundantly_globally_rigid
            and self.boundary_rigid
            and self.boundary_not_globally_rigid
        )


def theorem9_check(
    d: int = 2,
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    allow_large: bool = False,
) -> Theorem9Report:
    """Exercise the sharp redundancy constants on the matched-cliques example.

    Deleting any C(d+1,2) edges must keep it rigid and any C(d+1,2)-1 edges
    must keep it globally rigid; one more matching edge breaks each property.
    Larger d is gated behind ``allow_large`` (the subset enumerations grow
    fast).
    """
    if d != 2 and not allow_large:
        raise ValueError("pass allow_large=True for d > 2 (long runtime)")
    g = sharpness_example(d)
    matching = sharpness_matching(d)
    c = comb(d + 1, 2)

    red = is_t_redundantly_rigid(g, d, c + 1, trials, seed, p)
    over = is_rigid(g.remove_edges(matching[: c + 1]), d, trials, seed, p)

    gr_witness = None
    edges = g.sorted_edges()
    rng = make_rng(seed)
    for subset in itertools.combinations(range(len(edges)), c - 1):
        gone = [edges[i] for i in subset]
        sub_seed = rng.getrandbits(64)
        if not is_globally_rigid(g.remove_edges(gone), d, trials, sub_seed, p).value:
            gr_witness = tuple(gone)
            break

    boundary = g.remove_edges(matching[:c])
    boundary_rigid = is_rigid(boundary, d, trials, seed, p)
    boundary_gr = is_globally_rigid(boundary, d, trials, seed, p)
    return Theorem9Report(
        d,
        red.value,
        not over.value,
        gr_witness is None,
        gr_witness,
        boundary_rigid.value,
        not boundary_gr.value,
    )


@dataclass(frozen=True)
class Theorem10Report:
    status: str  # "checked" or "inapplicable"
    connectivity: int
    rank: int | None
    bound: Fraction | None
    passed: bool | None


def theorem10_check(
    g: Graph, d: int, trials: int = 2, seed: int = 0, p: int = DEFAULT_PRIME
) -> Theorem10Report:
    """k-connected non-rigid graphs have rank at least m_{d,k} |V|."""
    kappa = vertex_connectivity(g)
    rigid = is_rigid(g, d, trials, seed, p)
    if rigid.value or not 1 <= kappa < d * (d + 1):
        return Theorem10Report("inapplicable", kappa, None, None, None)
    bound = m_dk(d, kappa) * g.n
    report = generic_rank(g, d, trials, seed, p)
    return Theorem10Report("checked", kappa, report.rank, bound, Fraction(report.rank) >= bound)


@dataclass(frozen=True)
class Lemma6Report:
    status: str  # "checked" or "inapplicable"
    linked_nonedge: Edge | None
    orderings_checked: int
    all_independent: bool | None

    @property
    def passed(self) -> bool | None:
        return None if self.status == "inapplicable" else self.all_independent


def lemma6_property_check(
    g: Graph,
    d: int,
    orderings_count: int = 20,
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> Lemma6Report:
    """When no non-adjacent pair is linked, every ordered subgraph must be
    independent.  The hypothesis scan is exhaustive over non-edges, hence
    the n <= 40 bound."""
    if g.n > 40:
        raise ValueError("hypothesis verification is limited to n <= 40")
    rng = make_rng(seed)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if is_linked(g, d, u, v, trials, rng.getrandbits(64), p).value:
                return Lemma6Report("inapplicable", (u, v), 0, None)
    order = list(range(g.n))
    for _ in range(orderings_count):
        rng.shuffle(order)
        result = build_gpi(g, d, order)
        if not is_independent(result.subgraph, d, trials, rng.getrandbits(64), p).value:
            return Lemma6Report("checked", None, orderings_count, False)
    return Lemma6Report("checked", None, orderings_count, True)


@dataclass(frozen=True)
class Lemma8Report:
    """Like the linked-pair variant but for weak global linkedness, whose
    hypothesis admits only a partial (sufficient-condition) filter."""

    status: str  # "inapplicable" or "hypothesis-not-verifiable"
    certified_pair: Edge | None
    orderings_checked: int
    all_independent: bool | None


def lemma8_property_check(
    g: Graph,
    d: int,
    orderings_count: int = 20,
    trials: int = 2,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> Lemma8Report:
    """Filter non-edges through the sufficient weak-global-linkedness test.

    Candidate separators per non-edge {u,v}: the joint closed neighborhood,
    and the whole vertex set minus one common neighbor z (the 2-path u-z-v is
    then the outside path).  A certified pair falsifies the hypothesis;
    otherwise the hypothesis stays unverifiable and the independence runs
    are advisory."""
    if g.n > 40:
        raise ValueError("non-edge scan is limited to n <= 40")
    rng = make_rng(seed)
    everything = set(range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            candidates = [set(g.neighbors(u)) | set(g.neighbors(v)) | {u, v}]
            candidates.extend(
                everything - {z} for z in sorted(g.neighbors(u) & g.neighbors(v))
            )
            for v0 in candidates:
                cert = wgl_sufficient(g, d, u, v, v0, trials, rng.getrandbits(64), p)
                if cert.value:
                    return Lemma8Report("inapplicable", (u, v), 0, None)
    order = list(range(g.n))
    for _ in range(orderings_count):
        rng.shuffle(order)
        result = build_gpi(g, d, order)
        if not is_independent(result.subgraph, d, trials, rng.getrandbits(64), p).value:
            return Lemma8Report("hypothesis-not-verifiable", None, orderings_count, False)
    return Lemma8Report("hypothesis-not-verifiable", None, orderings_count, True)
