"""Exact counting layer: covered-subset bounds, the sharp per-vertex rank
densities, and lemma 7's exact expected ordered-subgraph size and hypotheses.

Everything here is exact rational or integer arithmetic; no floats.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable
from math import comb, isqrt
from typing import TYPE_CHECKING, NamedTuple

from .graph_core import Graph, _bits, _non_adjacent_pair, check_size

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
        check_size(n, 0)  # before any binomial of n: the ground set is a vertex set, bounded as a graph's
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

    "enumerate" checks every m-subset (always valid).  "auto" takes the
    closed form sum_j C(|H_j|, m) exactly when its guard holds, and
    enumerates otherwise.  The closed form is exact when no m-subset lies in
    two of the sets: the system hypotheses bound every pairwise intersection
    by d-2, so the guard is m > d-2 plus the hypotheses.
    """
    if not (0 <= m <= system.n):
        raise ValueError(f"m={m} out of range [0, {system.n}]")
    if method not in ("enumerate", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and m > system.d - 2 and system.hypothesis_violation() is None:
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
    hypotheses a second time.  A bound with more digits than the interpreter
    prints is refused; the count, at most the bound, never has more."""
    reason = system.hypothesis_violation(m)
    if reason is not None:
        return CombLemmaReport("inapplicable", reason, None, None, None)
    bound, digits = comb(system.n - 1, m), getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if digits and bound >= 10**digits:
        raise ValueError(f"C({system.n - 1}, {m}) exceeds the limit of {digits} digits")
    count = sum(comb(len(h), m) for h in system.sets)
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
    independence polynomial of its complement (Hoede & Li 1994), over N(v)
    relabelled 0..k-1.  For a vertex i of a mask with a non-neighbour in the
    mask, P(mask) = P(mask - i) + x P(mask & N(i)); a mask that is a clique of
    c vertices has P = (1 + x)^c.  P is memoised on the mask and evaluated
    from an explicit stack, so a neighbourhood of any depth is limited only by
    the memo: ValueError once it would exceed CLIQUE_STATE_BUDGET masks.
    """
    within = g.neighbor_mask(v)
    nbrs = _bits(within)
    k = len(nbrs)
    # each neighbour's row read off its bitmask, linear in k; the shift keeps
    # the row's bits in a short int
    lo = nbrs[0] if nbrs else 0
    bit = {w - lo: 1 << i for i, w in enumerate(nbrs)}
    local = [sum(map(bit.__getitem__, _bits((g.neighbor_mask(w) & within) >> lo))) for w in nbrs]
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
        if k <= d:  # the sum of min(i, d) over the backward degrees i = 0..k
            kept = comb(k + 1, 2)
        else:  # that sum plus P(rule c | i) = 1 - counts[i]/C(k, i) over i = d+1..k
            counts = _clique_size_counts(g, v)
            kept = comb(d + 1, 2) + d * (k - d) + (k - d) - sum(
                Fraction(c, comb(k, i)) for i, c in enumerate(counts) if i > d and c)
        total += Fraction(kept, k + 1)
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
    (tested by :func:`_overlapping_cliques` until one vertex fails it)."""
    if d < 2:
        raise ValueError("requires dimension >= 2")
    threshold = d * (d + 1)
    degree_ok = clique_ok = inter_ok = True
    witness: tuple[int, str] | None = None
    for v in range(g.n):
        nbrs = g.neighbor_mask(v)
        if g.degree(v) < threshold:
            degree_ok = False
            if witness is None:
                witness = (v, f"degree {g.degree(v)} < {threshold}")
            continue
        if _non_adjacent_pair(g, nbrs) is None:
            clique_ok = False
            if witness is None:
                witness = (v, "neighborhood induces a clique")
            continue
        if not inter_ok:
            continue  # settled: no later vertex changes the report
        found = _overlapping_cliques(g, nbrs, d - 1)
        if found is not None:
            inter_ok = False
            if witness is None:
                k, a, b = found
                witness = (v, f"maximal cliques overlap in > d-2 vertices: clique {k} "
                              f"has non-adjacent common neighbours {a} and {b}")
    return HypothesisReport(degree_ok, clique_ok, inter_ok, witness)


def _overlapping_cliques(g: Graph, within: int, size: int) -> tuple[list[int], int, int] | None:
    """A clique K of ``size`` vertices and two non-adjacent common neighbours
    a < b of K, all in the vertex bitmask ``within``: the first such K in
    lexicographic order with its first pair, or None.

    They exist exactly when two maximal cliques of the graph induced on
    ``within`` meet in ``size`` or more vertices: K lies in the meet, a in one
    clique only and b, not adjacent to a, in the other; conversely K + a and
    K + b extend to two distinct maximal cliques.  A depth-first search grows
    K in increasing vertex order and drops a K whose common neighbours are
    pairwise adjacent, since growing K only shrinks them; so it visits at
    most the cliques of up to ``size`` vertices, polynomially many.
    """
    stack = [((), within)]  # (K, the common neighbours of K in `within`)
    while stack:
        clique, common = stack.pop()
        pair = _non_adjacent_pair(g, common)
        if pair and len(clique) == size:
            return list(clique), *pair
        if pair:
            larger = common & -(2 << clique[-1]) if clique else common
            stack += [(clique + (w,), common & g.neighbor_mask(w))
                      for w in reversed(_bits(larger))]  # the least w is searched first
    return None
