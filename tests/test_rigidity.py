import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import comb

import pytest

from rigidity_forge import modlinalg, rigidity
from rigidity_forge.combinatorics import m_dk
from rigidity_forge.constructions import (
    harary_graph,
    lovasz_yemini_family,
    sharpness_example,
    sharpness_matching,
)
from rigidity_forge.graph_core import MAX_VERTICES, Graph, vertex_connectivity
from rigidity_forge.modlinalg import DEFAULT_PRIME, RowBasis, make_rng, rank_of_rows
from rigidity_forge.rigidity import (
    Verdict,
    generic_rank,
    generic_rank_cap,
    is_independent,
    is_linked,
    is_rigid,
    is_t_redundantly_rigid,
    linked_pairs,
    placements,
)

from helpers import (
    add_edges,
    complete_graph,
    cycle_graph,
    eager_redundancy,
    edge_positions,
    exact_generic_rank,
    kernel_views,
    nonedges,
    per_subset_redundancy,
    placed_rows,
    random_graph,
    redundancy_views,
    stop_free_linked_pairs,
    use_field,
    use_trials,
)

P = DEFAULT_PRIME


# -- rigidity matrix -------------------------------------------------------


def first_placement(g, d, seed):
    rows, _ = next(placed_rows(g, d, 1, seed))
    return rows


def test_rigidity_matrix_single_edge_d1():
    rows = first_placement(Graph(2, [(0, 1)]), 1, seed=0)
    rng = make_rng(0)
    a, b = rng.randrange(1, P), rng.randrange(1, P)  # p(0), then p(1)
    assert rows == [{0: (a - b) % P, 1: (b - a) % P}]


def test_rigidity_matrix_empty_graph():
    assert first_placement(Graph(4), 2, seed=0) == []


def test_rigidity_matrix_triangle_rank():
    rows = first_placement(complete_graph(3), 2, seed=3)
    assert len(rows) == 3 and all(len(row) == 4 for row in rows)  # 2d entries per edge
    assert rank_of_rows(rows, 6) == 3  # the cap 2*3 - 3


def test_placements_draw_fresh_points_per_trial():
    (first, _), (second, _) = placements(3, 2, 2, 7)
    assert len(first) == len(second) == 6 and first != second
    with pytest.raises(ValueError):
        next(placements(3, 2, 0, 7))


def test_placements_refuse_more_coordinates_than_the_limit():
    # every graph Graph accepts is placeable up to d = 6; LY(3,12), the
    # largest benchmark placement, has 396 coordinates
    assert rigidity.MAX_COORDINATES >= MAX_VERTICES * 6
    (points, _), = placements(MAX_VERTICES, 6, 1, 7)
    assert len(points) == MAX_VERTICES * 6
    too_many = rigidity.MAX_COORDINATES + 1
    with pytest.raises(ValueError, match=f"^{too_many} coordinates exceed the limit"):
        next(placements(too_many, 1, 1, 7))


# -- generic rank ----------------------------------------------------------


def test_generic_rank_examples():
    rep = generic_rank(complete_graph(6), 2)
    assert (rep.rank, rep.confidence) == (9, "certain")
    rep = generic_rank(complete_graph(5), 3)
    # rank hits the cap 3*5 - 6, which forces the generic value exactly
    assert (rep.rank, rep.confidence) == (9, "certain")
    rep = generic_rank(cycle_graph(4), 2)
    assert (rep.rank, rep.confidence) == (4, "certain")


def test_generic_rank_matches_rational_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 6)
        d = rng.randint(1, 3)
        g = random_graph(rng, n, rng.random())
        assert generic_rank(g, d).rank == exact_generic_rank(g, d)


def test_generic_rank_respects_caps():
    rng = random.Random(88)
    for _ in range(40):
        n = rng.randint(1, 8)
        d = rng.randint(1, 4)
        g = random_graph(rng, n, 0.6)
        rep = generic_rank(g, d)
        assert rep.rank <= min(g.edge_count, generic_rank_cap(n, d))


def test_capped_rank_matches_the_uncapped_rank():
    # per placement, the cap-first feed stopped at the cap ranks exactly as
    # the full elimination, on rigid, non-rigid and independent graphs alike
    rng = random.Random(15)
    kinds = set()
    for _ in range(150):
        d = rng.randint(1, 3)
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        cap = min(g.edge_count, generic_rank_cap(g.n, d))
        order = edge_positions(g, rigidity._cap_first(g, d))
        assert sorted(order) == list(range(g.edge_count))
        seed = rng.getrandbits(64)
        ranks = []
        for rows, _ in placed_rows(g, d, 2, seed):
            ranks.append(rank_of_rows(rows, d * g.n))
            assert rank_of_rows([rows[i] for i in order], d * g.n, cap=cap) == ranks[-1]
        best = max(ranks)
        assert generic_rank(g, d, 2, seed).rank == best
        if best == g.edge_count:
            kinds.add("independent")
        else:
            kinds.add("rigid" if best == generic_rank_cap(g.n, d) else "flexible")
    assert kinds == {"independent", "rigid", "flexible"}


@pytest.mark.parametrize("n, d", [(2, 1), (7, 1), (3, 2), (9, 2), (4, 3), (11, 3)])
def test_capped_rank_of_a_complete_graph_adds_only_basis_rows(monkeypatch, n, d):
    # each vertex's first d edges of K_n are a basis: K_{d+1} plus one
    # d-valent vertex at a time, so the elimination adds exactly cap rows;
    # K_n on n <= d+1 vertices is independent, ranked with no elimination
    counts = count_basis_calls(monkeypatch)
    rep = generic_rank(complete_graph(n), d)
    cap = min(comb(n, 2), generic_rank_cap(n, d))
    assert (rep.rank, rep.confidence) == (cap, "certain")
    assert counts["add"] == (cap if n > d + 1 else 0)


def test_generic_rank_stops_its_trials_at_the_cover_bound(monkeypatch):
    # LY(2,8) ranks 76 below the cap 77; its clique cover bounds it by 76,
    # so the first trial that reaches 76 is the last
    calls = []
    feed = rigidity.rank_of_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return feed(*args, **kwargs)

    monkeypatch.setattr(rigidity, "rank_of_rows", counted)
    ly = lovasz_yemini_family(2, 8)
    rep = generic_rank(ly, 2, trials=2)
    # the rank meets the certain cover bound, so it is certain, below the cap
    assert rep == (76, "certain", 76)
    assert len(calls) == 1


def moon_moser_graph(n):
    """The complement of n/3 disjoint triangles: 3**(n/3) maximal cliques."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3])


def test_cover_feed_ranks_as_the_cap_first_feed():
    # per placement, the bound, min(|E|, cap, cover bound), is never below the
    # rank, and the cover-fed elimination stopped there ranks as the full one
    rng = random.Random(18)
    graphs = [(lovasz_yemini_family(2, s), 2) for s in (6, 10)]
    graphs += [(lovasz_yemini_family(3, s), 3) for s in (12, 14)]
    gated = []
    for d in (2, 3):
        matching = sharpness_matching(d)
        graphs.append((sharpness_example(d).remove_edges(matching[: comb(d + 1, 2) + 1]), d))
    for d in (1, 2, 3):
        graphs += [(random_graph(rng, rng.randint(4, 12), rng.random()), d) for _ in range(12)]
        gated += [(moon_moser_graph(15), d), (cycle_graph(9), d)]
    kinds = set()
    for g, d in graphs + gated:
        edges, bound = rigidity._cover_first(g, d)
        order = edge_positions(g, edges)
        assert sorted(order) == list(range(g.edge_count))
        cap = min(g.edge_count, generic_rank_cap(g.n, d))
        assert bound <= cap
        if (g, d) in gated:
            assert (edges, bound) == (rigidity._cap_first(g, d), cap)
        kinds.add("below cap" if bound < cap else "gated" if (g, d) in gated else "at cap")
        if d * g.n <= 36:
            assert bound >= exact_generic_rank(g, d)
        for rows, _ in placed_rows(g, d, 1, rng.getrandbits(64)):
            full = rank_of_rows(rows, d * g.n)
            assert full <= bound
            assert rank_of_rows([rows[i] for i in order], d * g.n, cap=bound) == full
    assert kinds == {"below cap", "gated", "at cap"}


def test_generic_rank_is_seed_reproducible():
    g = random_graph(random.Random(6), 7, 0.5)
    assert generic_rank(g, 2, seed=42) == generic_rank(g, 2, seed=42)


def test_fewer_than_one_trial_is_refused_before_any_placement(monkeypatch):
    def forbidden(seed):
        raise AssertionError("placement stream seeded")

    monkeypatch.setattr(rigidity, "make_rng", forbidden)
    with pytest.raises(ValueError, match="^need at least one trial$"):
        generic_rank(complete_graph(4), 2, trials=0)


def test_generic_rank_rejects_bad_params():
    with pytest.raises(ValueError):
        generic_rank(complete_graph(3), 0)


# -- verdicts ----------------------------------------------------------------


def test_is_independent():
    rng = random.Random(9)
    for d in (1, 2, 3):
        g = random_graph(rng, d + 1, 0.8)
        assert is_independent(g, d).value  # any graph on <= d+1 vertices
    v = is_independent(complete_graph(5), 3)
    assert not v.value and v.confidence == "certain"  # 10 edges above the cap 9
    v = is_independent(double_banana(), 3)
    assert not v.value and v.confidence == "whp"  # 18 edges at the cap, and no K_5
    v = is_independent(cycle_graph(4), 2)
    assert v.value and v.confidence == "certain"


def double_banana():
    """Two K_5 less the edge 01, glued at 0 and 1: 18 = 3*8 - 6 edges, rank 17 in R^3."""
    return Graph(8, [e for block in ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7))
                     for e in itertools.combinations(block, 2) if e != (0, 1)])


def test_rigidity_tags_come_from_the_certain_bounds():
    # |E| below the cap, a cover bound below the cap, or neither
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_rigid(path, 2) == (False, "certain", 3)
    assert is_rigid(lovasz_yemini_family(2, 8), 2) == (False, "certain", 76)
    assert is_rigid(double_banana(), 3) == (False, "whp", 17)
    assert generic_rank(double_banana(), 3) == (17, "whp", 18)
    assert [rigidity.settled(*bounds, 5) for bounds in ((5, 9), (2, 4), (2, 5), (4, 4))] == \
        ["certain", "certain", "whp", "certain"]


def test_is_rigid_examples():
    assert is_rigid(complete_graph(4), 2).value
    assert not is_rigid(cycle_graph(4), 2).value
    ly = lovasz_yemini_family(2, 8)
    assert not is_rigid(ly, 2).value


def test_is_rigid_small_vertex_conventions():
    assert is_rigid(Graph(0), 2).value
    assert is_rigid(Graph(1), 2).value
    assert is_rigid(complete_graph(3), 2).value
    assert not is_rigid(Graph(3, [(0, 1)]), 2).value  # n <= d+1, not complete
    assert is_rigid(Graph(2, [(0, 1)]), 3).value


def test_a_small_graphs_verdict_carries_its_exact_rank(monkeypatch):
    # every graph on at most d+1 vertices is independent (K_{d+1} is), ranked
    # with no row added to any basis: 1,192 graphs
    counts = count_basis_calls(monkeypatch)
    graphs = 0
    for d in range(1, 5):
        for n in range(d + 2):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                assert is_rigid(g, d) == (g.is_complete(), "certain", g.edge_count)
                assert generic_rank(g, d) == (g.edge_count, "certain", g.edge_count)
                graphs += 1
    assert graphs == 1192
    assert counts == {"add": 0, "in_span": 0}


def test_rigid_implies_d_connected():
    # cross-module consistency on a mixed bag of suite graphs
    graphs = [
        complete_graph(5),
        complete_graph(4).remove_edges([(0, 1)]),
        cycle_graph(5),
        sharpness_example(2),
        random_graph(random.Random(2), 8, 0.7),
    ]
    for g in graphs:
        if g.n >= 4 and not g.is_complete() and is_rigid(g, 2).value:
            assert vertex_connectivity(g) >= 2


def test_is_linked():
    g = cycle_graph(4)
    assert is_linked(g, 2, 0, 1).value and is_linked(g, 2, 0, 1).confidence == "certain"
    v = is_linked(g, 2, 0, 2)
    assert not v.value  # opposite corners of C4 are loose
    k5e = complete_graph(5).remove_edges([(0, 1)])
    assert is_linked(k5e, 2, 0, 1).value  # K5-e is rigid, rank already at cap
    with pytest.raises(ValueError):
        is_linked(g, 2, 1, 1)


def test_rank_monotone_per_shared_framework():
    rng = random.Random(55)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        e = rng.choice(non_edges)
        g2 = add_edges(g, [e])
        rows = first_placement(g2, 2, seed=rng.randrange(2**32))
        uv_row = rows.pop(g2.sorted_edges().index(e))
        basis = RowBasis()
        for row in rows:
            basis.add(row)
        r1 = basis.rank
        r2 = r1 + (not basis.in_span(uv_row))
        assert r1 == rank_of_rows(rows, 2 * g.n)
        assert r2 == rank_of_rows(rows + [uv_row], 2 * g.n)
        assert r1 <= r2 <= r1 + 1


# -- linked-pair scans -------------------------------------------------------


@pytest.mark.parametrize(
    "g, stride",
    [
        (cycle_graph(20), 1),
        (cycle_graph(40), 1),
        (harary_graph(4, 30), 1),
        # every 5th of 680 pairs: a one-pair call costs two eliminations here
        (lovasz_yemini_family(2, 8), 5),
    ],
    ids=["C20", "C40", "harary(4,30)", "LY(2,8)"],
)
def test_linked_pairs_match_one_pair_calls(g, stride):
    pairs = nonedges(g)
    scan = linked_pairs(g, 2, pairs, seed=9)
    assert len(scan) == len(pairs)
    for (u, v), verdict in list(zip(pairs, scan))[::stride]:
        assert is_linked(g, 2, u, v, seed=9) == verdict


def test_linked_pairs_match_rank_increments_on_random_graphs():
    # the definition on the same placements: uv is linked iff the best rank
    # of G + uv over the trials equals the best rank of G
    rng = random.Random(61)
    linked = unlinked = 0
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 10), rng.random())
        d = rng.choice((2, 3))
        pairs = nonedges(g)
        pairs += [(v, u) for u, v in pairs[:2]] + list(g.sorted_edges()[:2])
        seed = rng.getrandbits(64)
        scan = linked_pairs(g, d, pairs, seed=seed)
        assert scan == [is_linked(g, d, u, v, seed=seed) for u, v in pairs]
        for (u, v), verdict in zip(pairs, scan):
            if g.has_edge(u, v):
                assert verdict.value and verdict.confidence == "certain"
                continue
            g2 = add_edges(g, [(u, v)])
            uv = g2.sorted_edges().index((min(u, v), max(u, v)))
            best_g = best_g2 = 0
            for rows, _ in placed_rows(g2, d, 2, seed):
                best_g2 = max(best_g2, rank_of_rows(rows, d * g.n))
                best_g = max(best_g, rank_of_rows(rows[:uv] + rows[uv + 1:], d * g.n))
            assert verdict.value == (best_g == best_g2) and verdict.rank == best_g
            linked += verdict.value
            unlinked += not verdict.value
    assert linked and unlinked


def test_linked_pairs_at_the_cap_make_no_in_span_call(monkeypatch):
    g = complete_graph(12).remove_edges([(3, 7), (0, 11)])
    counts = count_basis_calls(monkeypatch)
    scan = linked_pairs(g, 2, [(3, 7), (0, 11)], seed=9)
    assert scan == [Verdict(True, "certain", rank=21)] * 2
    # two trials, each stopped at the cap before its last row
    assert counts["in_span"] == 0 and counts["add"] < 2 * g.edge_count


def test_linked_pairs_build_no_graph(monkeypatch):
    # the pairs' rows come from G's placement: no graph of G plus the pairs
    g = cycle_graph(12)
    built = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    scan = linked_pairs(g, 2, nonedges(g), seed=9)
    assert len(scan) == 54 and built == []


def test_linked_pairs_at_the_cap_build_no_pair_row(monkeypatch):
    # K12 less two edges ranks at the cap on its first placement, so no span
    # test runs: the only rows built are G's, once, in _cover_first's order
    g = complete_graph(12).remove_edges([(3, 7), (0, 11)])
    built = []
    matrix_rows = rigidity._matrix_rows
    monkeypatch.setattr(rigidity, "_matrix_rows", lambda edges, *a: built.append(list(edges))
                        or matrix_rows(edges, *a))
    drawn = count_placements(monkeypatch)
    assert linked_pairs(g, 2, [(3, 7), (0, 11)], seed=9) == [Verdict(True, "certain", rank=21)] * 2
    assert len(drawn) == 1 and built == [rigidity._cover_first(g, 2)[0]]


def test_linked_pairs_of_c40_hold_only_the_rows_of_g():
    # 740 pair rows held at once peaked at 0.48 MB; one at a time they fit in half that.
    # The pairs are built, and a scan on another seed makes the first-call allocations,
    # before the trace starts, so the peak is the scan's alone in any test order
    g = cycle_graph(40)
    pairs = nonedges(g)
    linked_pairs(g, 2, pairs, seed=8)
    tracemalloc.start()
    try:
        scan = linked_pairs(g, 2, pairs, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan) == 740 and peak <= 250_000, peak


def test_linked_pairs_validation_and_edges(monkeypatch):
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 5)])
    assert linked_pairs(g, 2, []) == []
    # pairs that are edges need no placement, so no trial either
    use_trials(monkeypatch, 0)
    assert linked_pairs(g, 2, [(0, 1), (4, 0)]) == [Verdict(True, "certain")] * 2
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 2)])


def count_placements(monkeypatch):
    """The placements `rigidity` draws from its stream, one entry each."""
    drawn = []
    stream = rigidity.placements

    def counted(*args):
        for item in stream(*args):
            drawn.append(item)
            yield item

    monkeypatch.setattr(rigidity, "placements", counted)
    return drawn


def test_linked_pairs_of_c40_draw_one_placement(monkeypatch):
    # the first trial ranks C40 at |E| and every chord one above it: no
    # later placement can raise either, so the second is never drawn
    g = cycle_graph(40)
    drawn = count_placements(monkeypatch)
    scan = linked_pairs(g, 2, nonedges(g), seed=9)
    assert len(scan) == 740 and set(scan) == {Verdict(False, "certain", rank=40)}
    assert len(drawn) == 1


def test_early_stops_match_the_stop_free_loops(monkeypatch):
    # small primes make placements disagree, so a later trial often raises a
    # best rank: it must still be drawn then, and the stops must be reached
    rng = random.Random(3737)
    primes = (5, 7, 11, 13, P)
    raised = stopped = redrawn = 0
    drawn = count_placements(monkeypatch)
    for _ in range(250):
        d = rng.choice((1, 2, 3))
        g = random_graph(rng, rng.randint(2, 11), rng.random())
        trials, seed = rng.randint(1, 3), rng.getrandbits(32)
        use_field(monkeypatch, rng.choice(primes))
        use_trials(monkeypatch, trials)
        pairs = nonedges(g)
        if pairs:
            drawn.clear()
            want = stop_free_linked_pairs(g, d, pairs, trials, seed)
            assert linked_pairs(g, d, pairs, seed) == want
            stopped += len(drawn) < trials
            raised += stop_free_linked_pairs(g, d, pairs, 1, seed) != want
        t = rng.randint(1, min(3, g.edge_count + 1))
        want = eager_redundancy(g, d, t, trials, seed)
        assert is_t_redundantly_rigid(g, d, t, seed) == want
        redrawn += eager_redundancy(g, d, t, 1, seed) != want
    assert raised and stopped and redrawn


# -- redundant rigidity ------------------------------------------------------


def test_redundancy_examples():
    k4 = complete_graph(4)
    assert is_t_redundantly_rigid(k4, 2, 1).value  # plain rigidity
    assert is_t_redundantly_rigid(k4, 2, 2).value  # every K4-e is still rigid
    with pytest.raises(ValueError):
        is_t_redundantly_rigid(k4, 2, 8)  # t-1 exceeds |E|
    with pytest.raises(ValueError):
        is_t_redundantly_rigid(k4, 2, 0)


def test_redundancy_small_vertex_cases(monkeypatch):
    # on n <= d+1 every graph is independent, so the count is exact: no stress is drawn
    def forbidden(*args):
        raise AssertionError("left kernel sampled")

    monkeypatch.setattr(rigidity, "left_kernel_sample", forbidden)
    for g in (Graph(0), Graph(1), complete_graph(3)):
        assert is_t_redundantly_rigid(g, 2, 1) == (True, "certain", None, 1)
    rep = is_t_redundantly_rigid(complete_graph(3), 2, 2)
    assert not rep.value and rep.witness is not None
    started = time.perf_counter()
    assert is_t_redundantly_rigid(complete_graph(80), 79, 1) == (True, "certain", None, 1)
    assert is_t_redundantly_rigid(complete_graph(80), 79, 2) == (False, "certain", ((0, 1),), 1)
    assert is_t_redundantly_rigid(Graph(4, [(0, 1), (1, 2)]), 3, 1) == (False, "certain", (), 1)
    assert time.perf_counter() - started < 0.5


def test_redundancy_agrees_with_direct_deletion():
    rng = random.Random(40)
    for _ in range(15):
        g = random_graph(rng, rng.randint(5, 7), 0.75)
        t = rng.randint(1, 3)
        if t - 1 > g.edge_count:
            continue
        rep = is_t_redundantly_rigid(g, 2, t, seed=1)
        direct = all(
            is_rigid(g.remove_edges(subset), 2, seed=2).value
            for subset in itertools.combinations(g.sorted_edges(), t - 1)
        )
        assert rep.value == direct
        if not rep.value:
            assert not is_rigid(g.remove_edges(rep.witness), 2, seed=3).value


def test_sharpness_redundancy_witness(monkeypatch):
    g = sharpness_example(2)
    use_trials(monkeypatch, 1)
    rep = is_t_redundantly_rigid(g, 2, 5)
    assert not rep.value
    assert rep.witness == sharpness_matching(2)[:4]


@pytest.mark.parametrize("t", [3, 4])
def test_redundant_matched_cliques_build_one_kernel_view(monkeypatch, t):
    # no subset is rejected by the first view, so no later view is drawn
    samples = []
    sample = rigidity.left_kernel_sample
    monkeypatch.setattr(rigidity, "left_kernel_sample", lambda *a: samples.append(a) or sample(*a))
    rep = is_t_redundantly_rigid(sharpness_example(2), 2, t)
    assert rep == (True, "certain", None, comb(36, t - 1))
    assert len(samples) == 1


def test_redundancy_builds_no_left_kernel(monkeypatch):
    # every t reads t - 1 sampled stresses per placement; small primes make
    # views reject subsets, so later placements are drawn and re-tested too
    def forbidden(*args):
        raise AssertionError("left kernel built")

    monkeypatch.setattr(modlinalg, "left_kernel_basis", forbidden)
    rng = random.Random(1616)
    seen = set()
    use_trials(monkeypatch, 3)
    for _ in range(100):
        d = rng.randint(1, 3)
        g = random_graph(rng, rng.randint(d + 2, d + 5), rng.uniform(0.5, 1.0))
        t = rng.randint(1, min(5, g.edge_count + 1))
        use_field(monkeypatch, rng.choice((5, 7, P)))
        seen.add((t, is_t_redundantly_rigid(g, d, t, rng.getrandbits(32)).value))
    use_field(monkeypatch, P)
    use_trials(monkeypatch, 2)
    assert {t for t, _ in seen} == set(range(1, 6)) and {value for _, value in seen} == {True, False}
    assert is_t_redundantly_rigid(sharpness_example(2), 2, 4) == (True, "certain", None, comb(36, 3))


def test_redundancy_matches_the_kernel_oracle(monkeypatch):
    # the kernel views rank every deletion exactly, an independent route; at
    # p = 2^61 - 1, t - 1 stresses per placement give the same report, though
    # the stress stream draws each later placement after its seed
    rng = random.Random(6161)
    seen = Counter()
    for _ in range(300):
        d = rng.randint(1, 3)
        t = rng.randint(1, 5)
        g = random_graph(rng, rng.randint(d + 2, d + (8 if t <= 2 else 5)), rng.uniform(0.4, 1.0))
        if t - 1 > g.edge_count:
            continue
        trials, seed = rng.randint(1, 3), rng.getrandbits(32)
        use_trials(monkeypatch, trials)
        rep = is_t_redundantly_rigid(g, d, t, seed)
        assert rep == per_subset_redundancy(g, d, t, trials, seed, kernel_views(g, d, trials, seed))
        seen[t, rep.value, rep.confidence] += 1
    # every flexible sample at t = 1 is certain (a triangle and an edge apart in the line rank at
    # most its cover bound 3 < 4); the double banana, with no K5 and |E| at the cap, is flexible
    # by its placements alone
    g = double_banana()
    use_trials(monkeypatch, 2)
    rep = is_t_redundantly_rigid(g, 3, 1, 7)
    assert rep == per_subset_redundancy(g, 3, 1, 2, 7, kernel_views(g, 3, 2, 7))
    seen[1, rep.value, rep.confidence] += 1
    assert set(seen) == {(t, value, tag) for t in range(1, 6) for value, tag in
                         ((True, "certain"), (False, "certain"), (False, "whp"))}


def test_redundancy_failure_below_the_cap_is_certain():
    # K4 less any two edges keeps 4, under the plane cap 5 (C4 is in test_cli)
    assert is_t_redundantly_rigid(complete_graph(4), 2, 3) == (False, "certain", ((0, 1), (0, 2)), 1)
    # K4 plus a vertex of degree 2: deleting one of its edges leaves 7 edges,
    # no fewer than 2n - 3 = 7, so only the placements show the failure
    g = Graph(5, [*complete_graph(4).sorted_edges(), (0, 4), (1, 4)])
    assert is_t_redundantly_rigid(g, 2, 2) == (False, "whp", ((0, 4),), 4)


def test_redundancy_below_the_cap_by_counting_draws_no_placement(monkeypatch):
    # |E| - 1 = 4,999 on the 5,000-vertex cycle, and the cover bound 455 on LY(3, 14),
    # are below the caps 9,997 and 456: every deletion fails, with no stress drawn
    def forbidden(*args):
        raise AssertionError("left kernel sampled")

    monkeypatch.setattr(rigidity, "left_kernel_sample", forbidden)
    started = time.perf_counter()
    assert is_t_redundantly_rigid(cycle_graph(5000), 2, 2) == (False, "certain", ((0, 1),), 1)
    assert time.perf_counter() - started < 0.5
    g = lovasz_yemini_family(3, 14)
    assert (rigidity._cover_first(g, 3)[1], generic_rank_cap(g.n, 3)) == (455, 456)
    assert is_t_redundantly_rigid(g, 3, 2) == (False, "certain", ((0, 1),), 1)


def traced_redundancy(g, d, t):
    """is_t_redundantly_rigid(g, d, t) under tracemalloc, with its seconds and peak bytes."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        rep = is_t_redundantly_rigid(g, d, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, time.perf_counter() - started, peak


def test_redundancy_t2_at_scale_holds_no_left_kernel():
    # Harary(6, 500), 1,500 edges: the dense left kernel, 503 vectors of
    # 1,500 entries, peaked at 29.7 MiB and took 5.4 s in-process
    rep, seconds, peak = traced_redundancy(harary_graph(6, 500), 2, 2)
    assert seconds < 1.0
    assert rep == (True, "certain", None, 1500) and peak <= 8 * 2**20, peak


def test_redundancy_t3_at_scale_holds_no_left_kernel():
    # Harary(6, 300), 900 edges and 404,550 pairs: the dense left kernel, 303
    # vectors of 900 entries, took 5.7 s and peaked at 9.6 MiB in-process
    # under tracemalloc; two stresses per placement take 0.3 s and 0.9 MiB
    rep, seconds, peak = traced_redundancy(harary_graph(6, 300), 2, 3)
    assert seconds < 1.0
    assert rep == (True, "certain", None, comb(900, 2)) and peak <= 2 * 2**20, peak


def full_rank_views(g, d, t, trials, seed):
    target = d * g.n - comb(d + 1, 2)
    views = redundancy_views(g, d, t, trials, seed)
    return [(kernel_dim, dual) for full, kernel_dim, dual in views if full >= target]


def independent_in(view, subset):
    kernel_dim, dual = view
    return rank_of_rows([dual[i] for i in subset], kernel_dim) == len(subset)


def test_prefix_walk_matches_per_subset_scan(monkeypatch):
    # small primes make the views disagree and prefixes dependent, so the
    # sample must reach both the re-test on later views and the pruning
    rng = random.Random(1414)
    primes = (2, 3, 5, 7, 11, 13, P)
    retested = pruned = 0
    for _ in range(600):
        d = rng.randint(1, 3)
        g = random_graph(rng, rng.randint(d + 2, d + 4), rng.uniform(0.6, 1.0))
        t = rng.randint(1, min(4, g.edge_count + 1))
        trials, seed = rng.randint(1, 3), rng.getrandbits(32)
        use_field(monkeypatch, rng.choice(primes))
        use_trials(monkeypatch, trials)
        rep = is_t_redundantly_rigid(g, d, t, seed)
        assert rep == per_subset_redundancy(g, d, t, trials, seed)
        views = full_rank_views(g, d, t, trials, seed) if g.n > d + 1 else []
        if not views:
            continue
        walked = itertools.combinations(range(g.edge_count), t - 1)
        for subset in itertools.islice(walked, rep.subsets_checked):
            if independent_in(views[0], subset):
                continue
            retested += any(independent_in(view, subset) for view in views[1:])
            pruned += len(subset) >= 2 and not independent_in(views[0], subset[:-1])
    assert retested and pruned


def count_basis_calls(monkeypatch):
    """Count RowBasis.add and RowBasis.in_span calls."""
    counts = {"add": 0, "in_span": 0}
    for name in counts:
        method = getattr(RowBasis, name)

        def counted(self, row, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, row)

        monkeypatch.setattr(RowBasis, name, counted)
    return counts


class Tally(int):
    """An int that counts the comparisons it takes part in."""

    comparisons = 0

    def __eq__(self, other):
        Tally.comparisons += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


def walk_work(monkeypatch, g, d, t, seed):
    """The prefix walk of the first full-rank view of g: the rows it reduces
    to slopes, at most one per inner node and later row, and the leaf tests it
    makes (comparisons of two slopes)."""
    k = t - 1
    view = next(list(zip(*stresses)) for full, stresses in rigidity._stresses(g, d, seed, k)
                if full == generic_rank_cap(g.n, d))
    work, slopes = Counter(), rigidity._slopes

    def tallied(rows):
        work["slopes"] += len(rows)
        return [None if key is None else Tally(key) for key in slopes(rows)]

    monkeypatch.setattr(rigidity, "_slopes", tallied)
    Tally.comparisons = 0
    list(rigidity._rejects(view, k))
    return {"slopes": work["slopes"], "leaf_tests": Tally.comparisons}


def test_prefix_walk_work_on_sharpness_example(monkeypatch):
    g = sharpness_example(2)
    assert is_t_redundantly_rigid(g, 2, 4) == (True, "certain", None, 7140)
    work = walk_work(monkeypatch, g, 2, 4, 0)
    # one slope comparison per leaf; each node with two basis vectors left
    # reduces each later row once, to its slope
    assert work["leaf_tests"] == comb(36, 3)
    assert work["slopes"] <= comb(36, 2)


def test_dependent_prefix_costs_no_leaf_test(monkeypatch):
    # K6 in the plane mod 7: the first view has dependent 2-prefixes, whose
    # extensions later views accept, so the walk goes on past them
    g, d, t, trials, seed = complete_graph(6), 2, 4, 3, 44
    use_field(monkeypatch, 7)
    use_trials(monkeypatch, trials)
    first = full_rank_views(g, d, t, trials, seed)[0]
    leaves = list(itertools.combinations(range(g.edge_count), t - 1))
    under_dependent = sum(not independent_in(first, s[:-1]) for s in leaves)
    assert under_dependent > 0
    assert is_t_redundantly_rigid(g, d, t, seed) == (True, "certain", None, len(leaves))
    assert walk_work(monkeypatch, g, d, t, seed)["leaf_tests"] == len(leaves) - under_dependent


# -- cover bound -------------------------------------------------------------


def test_cover_rank_bound_examples():
    assert rigidity._cover_first(lovasz_yemini_family(2, 8), 2)[1] == 76
    assert rigidity._cover_first(complete_graph(6), 2)[1] == 9
    # no triangle: the search is skipped, and every edge counts
    c6 = cycle_graph(6)
    assert rigidity._cover_first(c6, 2) == (rigidity._cap_first(c6, 2), 6)
    # a diamond: edge 01 has two non-adjacent common neighbours, so the
    # search runs, keeps no clique, and the tail returns the plain feed
    diamond = complete_graph(4).remove_edges([(2, 3)])
    assert rigidity._cover_first(diamond, 2) == (rigidity._cap_first(diamond, 2), 5)


@pytest.mark.parametrize("d, s, bound", [
    (2, 6, 57), (2, 8, 76), (2, 16, 152), (3, 12, 390), (3, 14, 455),
])
def test_lovasz_yemini_cover_bound_is_the_sharp_density(d, s, bound):
    # the cover found is one clique per base vertex with the split edges
    # loose; it meets the cap on the boundary case s = d(d+1) alone
    g = lovasz_yemini_family(d, s)
    assert rigidity._cover_first(g, d)[1] == bound == m_dk(d, d * (d + 1) - 1) * g.n
    cap = generic_rank_cap(g.n, d)
    assert bound == cap if s == d * (d + 1) else bound < cap


def test_cover_bound_dominates_rank_on_random_covers():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 8), 0.6)
        if g.edge_count == 0:
            continue
        edges = g.sorted_edges()
        parts = []
        covered: set = set()
        for _ in range(rng.randint(0, 2)):
            span = rng.sample(range(g.n), k=min(g.n, 3 + rng.randint(0, 2)))
            part = [e for e in edges if e[0] in span and e[1] in span]
            if len({w for e in part for w in e}) >= 3:
                parts.append(tuple(part))
                covered.update(part)
        loose = tuple(e for e in edges if e not in covered or rng.random() < 0.3)
        bound = len(loose) + sum(generic_rank_cap(len({w for e in part for w in e}), 2)
                                 for part in parts)
        assert bound >= generic_rank(g, 2).rank
