"""Shared test utilities: random instance generators and independent
brute-force oracles (kept deliberately naive, separate from the library)."""

from __future__ import annotations

import itertools
import random
import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, sqrt

from rigidity_forge.combinatorics import CliqueSystem
from rigidity_forge.graph_core import Graph
from rigidity_forge.modlinalg import ModMatrix, RowBasis, make_rng, rank_of_rows
from rigidity_forge.rigidity import RedundancyReport, _kernel_view, placements


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_clique_system(
    rng: random.Random, n: int, d: int, max_sets: int = 5
) -> CliqueSystem:
    """Random system satisfying the pairwise-intersection hypotheses."""
    target = rng.randint(1, max_sets)
    sets: list[frozenset[int]] = []
    for _ in range(40):
        if len(sets) >= target:
            break
        size = rng.randint(1, n - 1)
        h = frozenset(rng.sample(range(n), size))
        if h in sets:
            continue
        if any(len(h & other) > d - 2 for other in sets):
            continue
        sets.append(h)
    return CliqueSystem(n, d, tuple(sets))


# -- oracles ---------------------------------------------------------------


def brute_vertex_connectivity(g: Graph) -> int:
    """Minimum vertex-cut size by exhaustive subset search (tiny n only)."""
    n = g.n
    if n <= 1:
        return 0
    if g.is_complete():
        return n - 1

    def disconnected_without(gone: set[int]) -> bool:
        remaining = [v for v in range(n) if v not in gone]
        if len(remaining) <= 1:
            return False
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            a = stack.pop()
            for b in g.neighbors(a):
                if b not in gone and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) < len(remaining)

    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            if disconnected_without(set(cut)):
                return k
    return n - 1


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques by checking every vertex subset (tiny n only)."""
    cliques = [
        set(sub)
        for size in range(1, g.n + 1)
        for sub in itertools.combinations(range(g.n), size)
        if g.is_clique(sub)
    ]
    maximal = [
        c for c in cliques if not any(c < other for other in cliques)
    ]
    return sorted(tuple(sorted(c)) for c in maximal)


def brute_covered_count(system: CliqueSystem, m: int) -> int:
    count = 0
    for sub in itertools.combinations(range(system.n), m):
        s = frozenset(sub)
        if any(s <= h for h in system.sets):
            count += 1
    return count


def enumerated_clique_size_counts(g: Graph, v: int) -> list[int]:
    """counts[i] = number of i-subsets of N(v) inducing a clique in g, by
    listing every clique of N(v) (degree 20 at most, in practice)."""
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
    counts = [0] * (k + 1)

    def grow(candidates: int, size: int) -> None:
        counts[size] += 1
        m = candidates
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            m ^= bit
            grow(candidates & local[i] & ~((bit << 1) - 1), size + 1)

    grow((1 << k) - 1, 0)
    return counts


def gpi_edge_count(g: Graph, d: int, ordering: Sequence[int]) -> int:
    """|E_pi| without building the subgraph or trace (Monte Carlo hot path)."""
    if d < 2:
        raise ValueError("ordered construction requires dimension >= 2")
    placed = 0
    total = 0
    for v in ordering:
        back_mask = g.neighbor_mask(v) & placed
        k = back_mask.bit_count()
        if k <= d:
            total += k
        else:
            clique = True
            m = back_mask
            while m:
                bit = m & -m
                u = bit.bit_length() - 1
                if back_mask & ~(g.neighbor_mask(u) | bit):
                    clique = False
                    break
                m ^= bit
            total += d if clique else d + 1
        placed |= 1 << v
    return total


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


# -- forward-order references for the elimination core ---------------------


def forward_column_basis(m: ModMatrix) -> RowBasis:
    """The column basis with the columns fed first-to-last (the feed order
    `modlinalg._column_basis` used before it went last-first)."""
    columns: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, x in row.items():
            columns[j][i] = x
    basis = RowBasis(m.p)
    for column in columns:
        basis.add(column)
    return basis


def _back_substitute(basis: RowBasis, w: list[int]) -> list[int]:
    for q in sorted(basis.pivots, reverse=True):
        w[q] = -sum(x * w[j] for j, x in basis.pivots[q].items()) % basis.p
    return w


def forward_left_kernel_basis(m: ModMatrix) -> list[list[int]]:
    """`left_kernel_basis` on :func:`forward_column_basis`."""
    basis = forward_column_basis(m)
    out = []
    for f in range(m.rows):
        if f not in basis.pivots:
            w = [0] * m.rows
            w[f] = 1
            out.append(_back_substitute(basis, w))
    return out


def forward_left_kernel_sample(m: ModMatrix, seed: int) -> list[int]:
    """`left_kernel_sample` on :func:`forward_column_basis`."""
    basis = forward_column_basis(m)
    free = [f for f in range(m.rows) if f not in basis.pivots]
    w = [0] * m.rows
    if not free:
        return w
    rng = make_rng(seed)
    for _ in range(8):
        coeffs = [rng.randrange(m.p) for _ in free]
        if any(coeffs):
            break
    else:
        coeffs = [1] + [0] * (len(free) - 1)
    for f, c in zip(free, coeffs):
        w[f] = c
    return _back_substitute(basis, w)


# -- per-subset redundancy scan ----------------------------------------------


def per_subset_redundancy(
    g: Graph, d: int, t: int, trials: int, seed: int, p: int
) -> RedundancyReport:
    """`is_t_redundantly_rigid` as one fresh rank per subset and view, in
    lexicographic order: the loop the prefix walk replaced, kept as its
    oracle (argument checks left out)."""
    k = t - 1
    edges = g.sorted_edges()
    n = g.n
    if n <= d + 1:
        if not g.is_complete():
            return RedundancyReport(False, "certain", edges[:k], 1)
        if k == 0:
            return RedundancyReport(True, "certain", None, 1)
        return RedundancyReport(False, "certain", edges[:k], 1)
    target = d * n - comb(d + 1, 2)
    views = [_kernel_view(rows, d * n, p) for rows, _ in placements(g, d, trials, seed, p)]
    checked = 0
    for subset in itertools.combinations(range(g.edge_count), k):
        checked += 1
        ok = False
        for full_rank, kernel_dim, dual in views:
            if full_rank < target:
                continue
            if rank_of_rows([dual[i] for i in subset], kernel_dim, p) == k:
                ok = True
                break
        if not ok:
            return RedundancyReport(False, "whp", tuple(edges[i] for i in subset), checked)
    return RedundancyReport(True, "certain", None, checked)
