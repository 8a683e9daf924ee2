"""Shared test utilities: random instance generators and independent
brute-force oracles (kept deliberately naive, separate from the library)."""

from __future__ import annotations

import itertools
import random
import statistics
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, sqrt

from rigidity_forge import global_rigidity, modlinalg, rigidity
from rigidity_forge.combinatorics import CliqueSystem
from rigidity_forge.experiments import Theorem9Report
from rigidity_forge.global_rigidity import stress_matrix, stress_matrix_rank
from rigidity_forge.graph_core import (
    Edge,
    Graph,
    induced_subgraph,
    iter_maximal_cliques,
    normalize_edge,
)
from rigidity_forge.modlinalg import (
    ModMatrix,
    Row,
    RowBasis,
    left_kernel_basis,
    left_kernel_sample,
    make_rng,
    rank_of_rows,
)
from rigidity_forge.rigidity import (
    CERTAIN,
    WHP,
    RedundancyReport,
    Verdict,
    _matrix_rows,
    _rejects,
    generic_rank_cap,
    is_rigid,
    is_t_redundantly_rigid,
    placements,
)


def add_edges(g: Graph, new_edges: Iterable[Edge]) -> Graph:
    """g plus the edges given, on the same vertices."""
    return Graph(g.n, itertools.chain(g.sorted_edges(), new_edges))


def nonedges(g: Graph) -> list[Edge]:
    """The pairs uv, u < v, that are not edges of g, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique_union(n: int, cliques: Iterable[Iterable[int]]) -> Graph:
    """The graph on n vertices whose edges are those of the cliques given."""
    return Graph(n, [e for c in cliques for e in itertools.combinations(sorted(c), 2)])


def field() -> int:
    """The modulus every layer computes over: `DEFAULT_PRIME` as it stands
    at the call, so the oracles below follow :func:`use_field`."""
    return rigidity.DEFAULT_PRIME


def use_field(monkeypatch, p: int) -> None:
    """Make every layer, the elimination core included, and the oracles
    below compute over Z_p for the rest of the test: the small fields where
    placements miss ranks and eliminations meet dependencies that Q lacks."""
    for module in (modlinalg, rigidity, global_rigidity):
        monkeypatch.setattr(module, "DEFAULT_PRIME", p)


def use_trials(monkeypatch, k: int) -> None:
    """Make every randomized verdict draw k placements for the rest of the
    test; `rigidity.generic_rank` called directly keeps its own `trials`."""
    monkeypatch.setattr(rigidity, "TRIALS", k)


def placed_rows(
    g: Graph, d: int, trials: int, seed: int
) -> Iterator[tuple[list[dict[int, int]], random.Random]]:
    """The rows of R(G,p), one per sorted edge of g, for each placement
    `rigidity.placements` draws, with its stream."""
    for points, rng in placements(g.n, d, trials, seed):
        yield _matrix_rows(g.sorted_edges(), d, points), rng


def edge_positions(g: Graph, edges: Iterable[Edge]) -> list[int]:
    """Where each of the edges given stands among g's sorted edges."""
    index = {e: i for i, e in enumerate(g.sorted_edges())}
    return [index[e] for e in edges]


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


def zero_extension(g: Graph, d: int, targets: Iterable[int]) -> Graph:
    """Henneberg 0-extension: a new vertex joined to the d distinct vertices
    ``targets`` (unchecked)."""
    return Graph(g.n + 1, [*g.sorted_edges(), *((t, g.n) for t in targets)])


def one_extension(g: Graph, d: int, edge: Edge, targets: Iterable[int]) -> Graph:
    """Henneberg 1-extension: delete the edge ab and join a new vertex to a, b
    and the d-1 further vertices ``targets`` (unchecked)."""
    kept = g.remove_edges([edge]).sorted_edges()
    return Graph(g.n + 1, [*kept, *((w, g.n) for w in (*edge, *targets))])


# -- oracles ---------------------------------------------------------------


def neighbors(g: Graph, v: int) -> frozenset[int]:
    """The neighbours of v, read off the sorted edges (never off a bitmask)."""
    return frozenset(a if b == v else b for a, b in g.sorted_edges() if v in (a, b))


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
            for b in neighbors(g, a):
                if b not in gone and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) < len(remaining)

    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            if disconnected_without(set(cut)):
                return k
    return n - 1


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise adjacent, asked of g pair by pair."""
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def maximal_cliques(g: Graph, vertices: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """All of :func:`iter_maximal_cliques` of g, or of the subgraph induced on
    ``vertices`` in g's own labels, in lexicographic order: the lemma 7
    hypothesis check's oracle."""
    if vertices is None:
        return sorted(iter_maximal_cliques(g))
    sub, labels = induced_subgraph(g, vertices)
    return sorted(tuple(labels[i] for i in c) for c in iter_maximal_cliques(sub))


def graph6(n: int, edges: Iterable[Edge], padding: int = 0) -> str:
    """The graph on n vertices with these edges (u < v) in graph6, with one or
    four size bytes and the padding bits of the last byte set to the low bits
    of ``padding`` (0 is the standard encoding)."""
    total = n * (n - 1) // 2
    data = bytearray(-(-total // 6))  # six bits a byte, the first bit highest
    for u, v in edges:
        k = v * (v - 1) // 2 + u
        data[k // 6] |= 32 >> k % 6
    if data:
        data[-1] |= padding & (1 << (-total % 6)) - 1
    size = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    return (bytes(size) + data).translate(bytes(range(63, 256)) + bytes(63)).decode() + "\n"


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques by checking every vertex subset (tiny n only)."""
    cliques = [
        set(sub)
        for size in range(1, g.n + 1)
        for sub in itertools.combinations(range(g.n), size)
        if is_clique(g, sub)
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
    nbrs = sorted(neighbors(g, v))
    k = len(nbrs)
    index = {w: i for i, w in enumerate(nbrs)}
    local = [0] * k
    for i, w in enumerate(nbrs):
        mask = 0
        for x in neighbors(g, w):
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


def expected_gpi_by_backward_degree(g: Graph, d: int) -> Fraction:
    """Exact E|E_pi| summed term by term over each vertex's backward degree
    i = 0..k: min(i, d), plus P(rule c | i) = 1 - counts[i]/C(k, i) for
    i > d, each term over k + 1 (the sum before its closed form)."""
    total = Fraction(0)
    for v in range(g.n):
        k = g.degree(v)
        counts = enumerated_clique_size_counts(g, v)
        for i in range(k + 1):
            total += Fraction(min(i, d), k + 1)
            if i > d:
                total += Fraction(comb(k, i) - counts[i], (k + 1) * comb(k, i))
    return total


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
    basis = RowBasis()
    for column in columns:
        basis.add(column)
    return basis


def _back_substitute(basis: RowBasis, w: list[int]) -> list[int]:
    for q in sorted(basis.pivots, reverse=True):
        w[q] = -sum(x * w[j] for j, x in basis.pivots[q].items()) % field()
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


def forward_left_kernel_sample(m: ModMatrix, seed: int) -> tuple[int, list[list[int]]]:
    """`left_kernel_sample` of one element on :func:`forward_column_basis`."""
    basis = forward_column_basis(m)
    free = [f for f in range(m.rows) if f not in basis.pivots]
    w = [0] * m.rows
    if not free:
        return basis.rank, [w]
    rng = make_rng(seed)
    for _ in range(8):
        coeffs = [rng.randrange(field()) for _ in free]
        if any(coeffs):
            break
    else:
        coeffs = [1] + [0] * (len(free) - 1)
    for f, c in zip(free, coeffs):
        w[f] = c
    return basis.rank, [_back_substitute(basis, w)]


# -- stop-free references for the randomized scans -----------------------------


def stop_free_linked_pairs(
    g: Graph, d: int, pairs: Sequence[Edge], trials: int, seed: int
) -> list[Verdict]:
    """`linked_pairs` drawing every one of its `trials` placements and making
    every span test below the cap: the loop before its early stops, kept as
    their oracle (argument checks left out).  It reads the rows of G plus
    every queried pair on one placement, so it also checks the pair rows
    `linked_pairs` builds one at a time.  A pair that raises rank(G) is
    certainly not linked when rank(G) meets the one certain bound on it,
    that of `rigidity._cover_first`."""
    queries = {normalize_edge(u, v) for u, v in pairs if not g.has_edge(u, v)}
    if not queries:
        return [Verdict(True, CERTAIN) for _ in pairs]
    # placing G plus every queried pair draws the same coordinates as placing G
    placed = add_edges(g, queries)
    cap = generic_rank_cap(g.n, d)
    bound = rigidity._cover_first(g, d)[1]
    best_g = 0
    best_uv = dict.fromkeys(queries, 0)
    for rows, _ in placed_rows(placed, d, trials, seed):
        row_of = dict(zip(placed.sorted_edges(), rows))
        basis = RowBasis().extend([row_of[e] for e in g.sorted_edges()], cap)
        best_g = max(best_g, basis.rank)
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
            confidence = CERTAIN
        elif not value and best_g == bound:
            confidence = CERTAIN
        else:
            confidence = WHP
        out.append(Verdict(value, confidence, rank=best_g))
    return out


def kernel_view(rows: list[Row], cols: int) -> tuple[int, int, list[Row]]:
    """What edge deletions need from one placement: the rank of R(G,p), the
    dimension of its left kernel, and the canonical left-kernel basis K held
    as one dual row per edge (the edge's column of K, keyed by basis index).

    Deleting an edge set S leaves rank(G - S) = rank - |S| + rank of the
    dual rows of S, and the stresses of G - S are the K-combinations that
    vanish on S.  The exact route, the oracle of the sampled views.
    """
    kernel = left_kernel_basis(ModMatrix(rows, cols))
    dual = [{f: vec[i] for f, vec in enumerate(kernel) if vec[i]} for i in range(len(rows))]
    return len(rows) - len(kernel), len(kernel), dual


def kernel_views(g: Graph, d: int, trials: int, seed: int) -> list[tuple[int, int, list[Row]]]:
    """:func:`kernel_view` of every placement `placed_rows` draws: each
    edge's dual row is its column of the left-kernel basis."""
    return [kernel_view(rows, d * g.n) for rows, _ in placed_rows(g, d, trials, seed)]


def redundancy_views(g: Graph, d: int, t: int, trials: int, seed: int) -> list[tuple[int, int, list[Row]]]:
    """The views `is_t_redundantly_rigid` reads: per placement `placed_rows`
    draws, its rank, k = t - 1 and each edge's entries in k stresses,
    one `left_kernel_sample` seeded by the stream's next draw, as a sparse
    dual row of k columns."""
    k = t - 1
    views = []
    for rows, rng in placed_rows(g, d, trials, seed):
        full, stresses = left_kernel_sample(ModMatrix(rows, d * g.n), rng.getrandbits(64), k)
        views.append((full, k, [{f: x for f, x in enumerate(col) if x} for col in zip(*stresses)]))
    return views


def redundancy_failure(g: Graph, d: int, witness: tuple[Edge, ...], checked: int) -> RedundancyReport:
    """A failing redundancy report, "certain" when the edges left, or the
    certain bound of `rigidity._cover_first` on the rank of G, are below the
    rank cap, since G - S ranks at most min(|E| - |S|, rank(G))."""
    left = min(g.edge_count - len(witness), rigidity._cover_first(g, d)[1])
    short = left < d * g.n - comb(d + 1, 2)
    return RedundancyReport(False, CERTAIN if short else WHP, witness, checked)


def eager_redundancy(g: Graph, d: int, t: int, trials: int, seed: int) -> RedundancyReport:
    """`is_t_redundantly_rigid` building all `trials` views before its
    prefix walk: the loop before views were drawn on demand, kept as its
    oracle (argument checks left out)."""
    k = t - 1
    m = g.edge_count
    edges = g.sorted_edges()
    n = g.n
    if n <= d + 1:
        ok = g.is_complete() and k == 0
        return RedundancyReport(ok, CERTAIN, None if ok else edges[:k], 1)
    target = generic_rank_cap(n, d)
    views = redundancy_views(g, d, t, trials, seed)
    views = [(kernel_dim, dual) for full_rank, kernel_dim, dual in views if full_rank >= target]
    if not views:
        return redundancy_failure(g, d, edges[:k], 1)
    dim, first = views[0]
    dense = [tuple(row.get(f, 0) for f in range(dim)) for row in first]
    for checked, subset in _rejects(dense, k):
        if not any(rank_of_rows([dual[i] for i in subset], kernel_dim) == k
                   for kernel_dim, dual in views[1:]):
            return redundancy_failure(g, d, tuple(edges[i] for i in subset), checked)
    return RedundancyReport(True, CERTAIN, None, comb(m, k))


# -- per-subset redundancy scan ----------------------------------------------


def per_subset_redundancy(g: Graph, d: int, t: int, trials: int, seed: int, views=None) -> RedundancyReport:
    """`is_t_redundantly_rigid` as one fresh rank per subset and view, in
    lexicographic order: the loop the prefix walk replaced, kept as its
    oracle (argument checks left out).  It reads `redundancy_views` unless
    given other views of g."""
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
    if views is None:
        views = redundancy_views(g, d, t, trials, seed)
    checked = 0
    for subset in itertools.combinations(range(g.edge_count), k):
        checked += 1
        ok = False
        for full_rank, kernel_dim, dual in views:
            if full_rank < target:
                continue
            if rank_of_rows([dual[i] for i in subset], kernel_dim) == k:
                ok = True
                break
        if not ok:
            return redundancy_failure(g, d, tuple(edges[i] for i in subset), checked)
    return RedundancyReport(True, "certain", None, checked)


# -- global rigidity through stress matrices ----------------------------------


def stress_globally_rigid(g: Graph, d: int, seed: int = 0) -> Verdict:
    """`is_globally_rigid` of a graph on n >= d+2 vertices by the stress route
    in every dimension: rigid, then a sampled stress matrix of rank n-d-1.
    The oracle of the plane route (3-connected and redundantly rigid)."""
    rigid = is_rigid(g, d, seed)
    if not rigid.value:
        return Verdict(False, "whp", rank=rigid.rank)
    cert = stress_matrix_rank(g, d, seed)
    return Verdict(cert.omega_rank == cert.target, "whp", rank=rigid.rank)


def globally_rigid_deletions(
    g: Graph,
    d: int,
    deletions: Iterable[Iterable[Edge]],
    seed: int = 0,
) -> Iterator[Verdict]:
    """Yield the global-rigidity verdict of G - S for each edge set S of G.

    Every verdict is read off the same `rigidity.TRIALS` placements of G,
    each eliminated once.  Per placement, the rank of G - S is the rank of G
    minus |S| plus the rank of the dual rows of S, and a stress of G - S is
    w = K.c with K the left-kernel basis of G and c a uniform left-kernel
    element of the |S|-column matrix of the dual entries of S, so w
    vanishes on S.  As in :func:`is_globally_rigid`, G - S needs a rigid
    placement and then a stress matrix of rank n-d-1; both verdicts are
    whp.  Requires d >= 2 and n >= d+2.
    """
    n = g.n
    if d < 2 or n < d + 2:
        raise ValueError("deletion scans need d >= 2 and at least d+2 vertices")
    target, omega_target, p = d * n - comb(d + 1, 2), n - d - 1, field()
    index = {e: i for i, e in enumerate(g.sorted_edges())}
    views = []
    for rows, rng in placed_rows(g, d, rigidity.TRIALS, seed):  # rng then draws the stresses
        views.append(kernel_view(rows, d * n))
    for gone in deletions:
        try:
            subset = sorted({index[normalize_edge(u, v)] for u, v in gone})
        except KeyError:
            raise ValueError("deleted edges must be edges of the graph") from None
        best = 0
        for full, kernel_dim, dual in views:
            best = max(best, full - len(subset)
                       + rank_of_rows([dual[i] for i in subset], kernel_dim))
            if best == target:  # no placement ranks higher
                break
        value = False
        if best == target:
            for _, kernel_dim, dual in views:
                # row f, column j: entry S_j of kernel basis vector f
                picked: list[dict[int, int]] = [{} for _ in range(kernel_dim)]
                for j, i in enumerate(subset):
                    for f, x in dual[i].items():
                        picked[f][j] = x
                _, (c,) = left_kernel_sample(ModMatrix(picked, len(subset)), rng.getrandbits(64))
                # entry e of K.c, summed over the dual row of edge e
                stress = tuple(sum(c[f] * x for f, x in row.items()) % p for row in dual)
                omega = stress_matrix(g, stress).data if any(stress) else []
                if rank_of_rows(omega, n, cap=omega_target) >= omega_target:
                    value = True
                    break
        yield Verdict(value, WHP, rank=best)


def random_regular_graph(rng: random.Random, n: int, k: int) -> Graph:
    """A k-regular graph on n vertices (k even): the circulant with offsets
    1..k/2, mixed by random double-edge swaps."""
    edges = sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in range(1, k // 2 + 1)})
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        e, f = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and e not in present and f not in present:
            present -= {edges[i], edges[j]}
            present |= {e, f}
            edges[i], edges[j] = e, f
    return Graph(n, edges)


# -- theorem 9 through the stress-matrix scan ----------------------------------


def theorem9_by_scan(
    g: Graph, matching: Sequence[tuple[int, int]], d: int, seed: int
) -> Theorem9Report:
    """`theorem9_check` on (g, matching) with every (c-1)-edge deletion run
    through `globally_rigid_deletions` and the boundary through
    :func:`stress_globally_rigid`: the stress-matrix route, kept as the
    oracle of the plane route."""
    c = comb(d + 1, 2)
    red = is_t_redundantly_rigid(g, d, c + 1, seed)
    over = is_rigid(g.remove_edges(matching[: c + 1]), d, seed)
    shown, scanned = itertools.tee(itertools.combinations(g.sorted_edges(), c - 1))
    verdicts = globally_rigid_deletions(g, d, scanned, seed)
    gr_witness = next((gone for gone, v in zip(shown, verdicts) if not v.value), None)
    boundary = g.remove_edges(matching[:c])
    return Theorem9Report(
        d,
        red.value,
        not over.value,
        gr_witness is None,
        gr_witness,
        is_rigid(boundary, d, seed).value,
        not stress_globally_rigid(boundary, d, seed).value,
        "whp",  # the stress route's verdicts are all whp
    )
