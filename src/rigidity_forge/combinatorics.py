"""Exact counting layer: covered-subset bounds, the sharp per-vertex rank
densities, and lemma 7's exact expected ordered-subgraph size and hypotheses.

Everything here is exact rational or integer arithmetic; no floats.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import comb, isqrt
from typing import TYPE_CHECKING, NamedTuple

from .graph_core import Graph, maximal_cliques

if TYPE_CHECKING:
    from fractions import Fraction


class CliqueSystem:
    """A family H_1..H_r of subsets of [n] with a dimension parameter d.

    The set-system hypotheses (proper subsets, pairwise distinct, pairwise
    intersections of size at most d-2) are checked by
    :meth:`hypothesis_violation` rather than at construction, so that the
    verifier can classify bad systems as inapplicable instead of crashing.
    """

    __slots__ = ("n", "d", "sets")

    def __init__(self, n: int, d: int, sets: Iterable[Iterable[int]]) -> None:
        if n < 0:
            raise ValueError("ground set size must be non-negative")
        self.n, self.d = n, d
        self.sets: tuple[frozenset[int], ...] = tuple(frozenset(h) for h in sets)
        for h in self.sets:
            for x in h:
                if not (0 <= x < n):
                    raise ValueError(f"member {x} outside [0, {n})")

    def hypothesis_violation(self, m: int | None = None) -> str | None:
        """Reason the counting-lemma hypotheses fail, or None if they hold."""
        if self.d < 2:
            return f"d={self.d} < 2"
        if m is not None and not (self.d + 1 <= m <= self.n - 1):
            return f"m={m} outside [{self.d + 1}, {self.n - 1}]"
        for j, h in enumerate(self.sets):
            if len(h) >= self.n:
                return f"H_{j} is not a proper subset of the ground set"
        for j1, j2 in itertools.combinations(range(len(self.sets)), 2):
            a, b = self.sets[j1], self.sets[j2]
            if a == b:
                return f"H_{j1} and H_{j2} coincide"
            if len(a & b) > self.d - 2:
                return f"|H_{j1} ∩ H_{j2}| = {len(a & b)} > d-2"
        return None


def covered_subset_count(system: CliqueSystem, m: int, method: str = "auto") -> int:
    """Number of m-subsets of [n] contained in some H_j.

    "enumerate" checks every m-subset (always valid).  "binomial" is the
    closed form sum_j C(|H_j|, m), exact when no m-subset lies in two of the
    sets: the system hypotheses bound every pairwise intersection by d-2, so
    it is guarded by m > d-2 plus the hypotheses.  "auto" takes the closed
    form when the guard holds and enumerates otherwise.
    """
    if not (0 <= m <= system.n):
        raise ValueError(f"m={m} out of range [0, {system.n}]")
    if method not in ("enumerate", "binomial", "auto"):
        raise ValueError(f"unknown method {method!r}")
    closed_form_ok = m > system.d - 2 and system.hypothesis_violation() is None
    if method == "binomial" and not closed_form_ok:
        raise ValueError("binomial shortcut guard failed; use enumerate")
    if method != "enumerate" and closed_form_ok:
        return sum(comb(len(h), m) for h in system.sets)
    return _enumerated_covered_count(system, m)


def _enumerated_covered_count(system: CliqueSystem, m: int) -> int:
    masks = [sum(1 << x for x in h) for h in system.sets]
    bit = [1 << i for i in range(system.n)]
    count = 0
    for combo in itertools.combinations(bit, m):
        s = 0
        for b in combo:
            s |= b
        for h in masks:
            if s & ~h == 0:
                count += 1
                break
    return count


class CombLemmaReport(NamedTuple):
    status: str  # "checked" or "inapplicable"
    reason: str | None
    count: int | None
    bound: int | None
    holds: bool | None


def verify_comblemma(system: CliqueSystem, m: int) -> CombLemmaReport:
    """Check count <= C(n-1, m) for an admissible system; the inequality is a
    theorem, so this exists for fuzzing, not deciding.  Admissibility puts m
    at d+1 or more, inside :func:`covered_subset_count`'s closed-form guard,
    so the count is sum_j C(|H_j|, m), taken without checking the
    hypotheses a second time."""
    reason = system.hypothesis_violation(m)
    if reason is not None:
        return CombLemmaReport("inapplicable", reason, None, None, None)
    count = sum(comb(len(h), m) for h in system.sets)
    bound = comb(system.n - 1, m)
    return CombLemmaReport("checked", None, count, bound, count <= bound)


def m_dk(d: int, k: int) -> Fraction:
    """Sharp per-vertex rank density for k-connected non-rigid graphs."""
    from fractions import Fraction  # on use: a call that builds none skips `fractions`
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not 1 <= k < d * (d + 1):
        raise ValueError(f"k={k} outside [1, {d * (d + 1)})")
    if k <= d:
        return Fraction(k, 2)
    return d + Fraction(1, 2) - Fraction(d * (d + 1), 2 * k)


def grn_lower_bound(n_vertices: int, n_edges: int) -> int:
    """floor(sqrt(|E| / (6 |V|))), computed exactly in integers."""
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    if n_edges < 0:
        raise ValueError("edge count must be non-negative")
    return isqrt(n_edges // (6 * n_vertices))


#: Most masks one clique polynomial may memoise: about 20x the most that a
#: search over degree-20 neighbourhoods found (3,011), a measured margin.
CLIQUE_STATE_BUDGET = 1 << 16


def _clique_size_counts(g: Graph, v: int) -> list[int]:
    """counts[i] = number of i-subsets of N(v) inducing a clique in g.

    These are the coefficients of the clique polynomial of N(v), the
    independence polynomial of its complement (Hoede & Li 1994).  For a
    vertex i of a mask with a non-neighbour in the mask,
    P(mask) = P(mask - i) + x P(mask & N(i)); a mask that is a clique of c
    vertices has P = (1 + x)^c.  P is memoised on the mask and evaluated
    from an explicit stack, not by recursion, so a neighbourhood of any depth
    is limited only by the memo: ValueError once it would exceed
    CLIQUE_STATE_BUDGET masks.
    """
    nbrs = sorted(g.neighbors(v))
    k = len(nbrs)
    index = {w: i for i, w in enumerate(nbrs)}
    local = [0] * k
    for i, w in enumerate(nbrs):
        mask = 0
        for x in g.neighbors(w):
            j = index.get(x)
            if j is not None:
                mask |= 1 << j
        local[i] = mask
    memo: dict[int, list[int]] = {}
    # (mask, -1) asks for P(mask); (mask, i) combines its two terms, which the
    # entries above it compute first
    stack = [((1 << k) - 1, -1)]
    while stack:
        mask, i = stack.pop()
        if i < 0:
            if mask in memo:
                continue
            rest = mask
            while rest:
                bit = rest & -rest
                i = bit.bit_length() - 1
                if mask & ~local[i] != bit:  # i has a non-neighbour in mask
                    break
                rest ^= bit
            if rest:
                stack += ((mask, i), (mask ^ bit, -1), (mask & local[i], -1))
                continue
            c = mask.bit_count()
            row = [comb(c, s) for s in range(c + 1)]
        else:
            without, within = memo[mask ^ 1 << i], memo[mask & local[i]]
            row = without + [0] * (len(within) + 1 - len(without))
            for s, c in enumerate(within, start=1):
                row[s] += c
        if len(memo) >= CLIQUE_STATE_BUDGET:
            raise ValueError(f"the clique polynomial of vertex {v}'s neighbourhood needs "
                             f"more than {CLIQUE_STATE_BUDGET} states")
        memo[mask] = row
    counts = memo[(1 << k) - 1]
    return counts + [0] * (k + 1 - len(counts))


def exact_expected_gpi_edges(g: Graph, d: int) -> Fraction:
    """Exact expectation of |E_pi| over a uniformly random vertex ordering.

    Linearity over vertices: conditioned on the backward degree being i, the
    backward neighborhood is uniform over the i-subsets of N(v), and the
    backward degree itself is uniform on 0..deg(v).  A vertex keeps
    min(i, d) edges, plus one more exactly when i >= d+1 and the backward
    set is not a clique.  Raises ValueError where a neighbourhood's clique
    polynomial exceeds its state budget (:func:`_clique_size_counts`).
    """
    from fractions import Fraction
    if d < 2:
        raise ValueError("ordered construction requires dimension >= 2")
    total = Fraction(0)
    for v in range(g.n):
        k = g.degree(v)
        expected_min = Fraction(sum(min(i, d) for i in range(k + 1)), k + 1)
        rule_c_prob = Fraction(0)
        if k >= d + 1:
            counts = _clique_size_counts(g, v)
            for i in range(d + 1, k + 1):
                rule_c_prob += Fraction(comb(k, i) - counts[i], (k + 1) * comb(k, i))
        total += expected_min + rule_c_prob
    return total


class HypothesisReport(NamedTuple):
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
    pairwise intersections of maximal neighborhood cliques of size <= d-2
    (tested until one vertex fails it)."""
    if d < 2:
        raise ValueError("requires dimension >= 2")
    threshold = d * (d + 1)
    degree_ok = clique_ok = inter_ok = True
    witness: tuple[int, str] | None = None
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) < threshold:
            degree_ok = False
            if witness is None:
                witness = (v, f"degree {len(nbrs)} < {threshold}")
            continue
        if g.is_clique(nbrs):
            clique_ok = False
            if witness is None:
                witness = (v, "neighborhood induces a clique")
            continue
        if not inter_ok:
            continue  # settled: no later vertex changes the report
        cliques = [frozenset(c) for c in maximal_cliques(g, nbrs)]
        for a, b in itertools.combinations(cliques, 2):
            if len(a & b) > d - 2:
                inter_ok = False
                if witness is None:
                    witness = (v, f"maximal cliques overlap in {len(a & b)} > d-2 vertices")
                break
    return HypothesisReport(degree_ok, clique_ok, inter_ok, witness)
