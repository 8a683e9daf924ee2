import itertools
import random
import time
from fractions import Fraction

import pytest

from rigidity_forge import combinatorics, experiments, global_rigidity, rigidity
from rigidity_forge.constructions import (
    lovasz_yemini_family,
    sharpness_example,
    sharpness_matching,
)
from rigidity_forge.experiments import (
    lemma6_property_check,
    theorem1_spot_check,
    theorem2_spot_check,
    theorem9_check,
    theorem10_check,
)
from rigidity_forge.combinatorics import (
    HypothesisReport,
    check_lemma7_hypotheses,
    exact_expected_gpi_edges,
)
from rigidity_forge.graph_core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
)

from helpers import (
    add_edges,
    brute_force_expected_gpi,
    exact_generic_rank,
    is_clique,
    maximal_cliques,
    monte_carlo_gpi,
    neighbors,
    random_graph,
    random_regular_graph,
    theorem9_by_scan,
)


def test_lemma7_hypotheses_examples():
    rep = check_lemma7_hypotheses(complete_bipartite_graph(7, 7), 2)
    assert rep.all_ok and rep.witness is None

    rep = check_lemma7_hypotheses(complete_graph(13), 2)
    assert not rep.no_clique_neighborhood
    assert rep.witness == (0, "neighborhood induces a clique")

    rep = check_lemma7_hypotheses(cycle_graph(6), 2)
    assert not rep.min_degree_ok and "degree 2 < 6" in rep.witness[1]

    with pytest.raises(ValueError):
        check_lemma7_hypotheses(cycle_graph(6), 1)


def test_lemma7_intersection_condition():
    # two K7 blocks sharing one vertex 0, all vertices joined to a hub:
    # the hub's neighborhood has two maximal cliques meeting in vertex 0
    k = 7
    edges = []
    a = list(range(k))
    b = [0] + list(range(k, 2 * k - 1))
    for block in (a, b):
        edges.extend((u, v) for i, u in enumerate(block) for v in block[i + 1 :])
    hub = 2 * k - 1
    edges.extend((v, hub) for v in range(hub))
    g = Graph(2 * k, edges)
    rep = check_lemma7_hypotheses(g, 2)
    assert not rep.intersection_ok


def lemma7_by_induced_subgraphs(g, d):
    """The per-vertex route: build N(v) as a graph, relabel, map back."""
    threshold = d * (d + 1)
    degree_ok = clique_ok = inter_ok = True
    witness = None
    for v in range(g.n):
        nbrs = sorted(neighbors(g, v))
        if len(nbrs) < threshold:
            degree_ok = False
            witness = witness or (v, f"degree {len(nbrs)} < {threshold}")
            continue
        sub, mapping = induced_subgraph(g, nbrs)
        if sub.is_complete():
            clique_ok = False
            witness = witness or (v, "neighborhood induces a clique")
            continue
        cliques = [frozenset(mapping[i] for i in c) for c in maximal_cliques(sub)]
        if any(len(a & b) > d - 2 for a, b in itertools.combinations(cliques, 2)):
            inter_ok = False
            if witness is None:
                k, a, b = first_overlap_by_cliques(g, cliques, d - 1)
                witness = (v, f"maximal cliques overlap in > d-2 vertices: clique {k} "
                              f"has non-adjacent common neighbours {a} and {b}")
    return HypothesisReport(degree_ok, clique_ok, inter_ok, witness)


def first_overlap_by_cliques(g, cliques, size):
    """From the maximal cliques of a vertex set: the lexicographically first
    (K, a, b) with K a clique of `size` in two of them and a < b non-adjacent
    common neighbours of K in the set, or None.  K lies in two maximal
    cliques exactly when it has such a pair, so the first K is the least
    `size`-prefix of a meet of two cliques."""
    meets = [sorted(a & b)[:size] for a, b in itertools.combinations(cliques, 2)
             if len(a & b) >= size]
    if not meets:
        return None
    k = min(meets)
    common = sorted(w for w in set().union(*cliques) if all(g.has_edge(w, x) for x in k))
    a, b = next((a, b) for a, b in itertools.combinations(common, 2) if not g.has_edge(a, b))
    return k, a, b


def first_overlap_by_subsets(g, vertices, size):
    """The lexicographically first (K, a, b): K a clique of `size` of the
    sorted vertices, a < b two non-adjacent common neighbours of K among them."""
    for k in itertools.combinations(sorted(vertices), size):
        if is_clique(g, k):
            common = [w for w in sorted(vertices) if all(g.has_edge(w, x) for x in k)]
            for a, b in itertools.combinations(common, 2):
                if not g.has_edge(a, b):
                    return list(k), a, b
    return None


def rook_graph(q):
    """K_q x K_q: its rows and columns are cliques that meet in one vertex, and
    each neighbourhood is two disjoint K_{q-1}."""
    return Graph(q * q, [(a, b) for a in range(q * q) for b in range(a + 1, q * q)
                         if a // q == b // q or a % q == b % q])


def book_graph(core, pages, page, core_last):
    """Cliques on a shared core of `core` vertices plus one of `pages` disjoint
    pages of `page` vertices each, the core labelled first or last.  A core
    vertex sees maximal cliques meeting in core-1 vertices; a page vertex sees
    one clique."""
    n = core + pages * page
    labels = list(range(n))
    if core_last:
        labels = labels[-core:] + labels[:-core]
    edges = []
    for i in range(pages):
        block = labels[:core] + labels[core + i * page:core + (i + 1) * page]
        edges.extend(itertools.combinations(block, 2))
    return Graph(n, edges)


def test_lemma7_hypotheses_match_induced_subgraph_route(monkeypatch):
    rng = random.Random(77)
    cases = [(complete_graph(9), 2), (complete_graph(14), 3), (complete_bipartite_graph(7, 7), 2)]
    for _ in range(120):
        d = rng.choice((2, 3))
        n = rng.randint(d * (d + 1), 22)
        cases.append((random_graph(rng, n, rng.uniform(0.4, 1.0)), d))
        k_n = complete_graph(n)
        cases.append((k_n.remove_edges(rng.sample(k_n.sorted_edges(), 2)), d))
    for _ in range(16):
        d = rng.choice((4, 5))
        n = rng.randint(d * (d + 1), d * (d + 1) + 6)
        cases.append((random_graph(rng, n, rng.uniform(0.4, 1.0)), d))
    # hypothesis-passing: sparse random regular, triangle-free, and cliques
    # glued in at most d-2 vertices (a rook graph's rows and columns meet in one)
    cases.append((rook_graph(11), 4))
    for d in (2, 3, 4, 5):
        t = d * (d + 1)
        cases += [
            (random_regular_graph(rng, 6 * t, t), d),
            (complete_bipartite_graph(t, t + 1), d),
            (random_graph(rng, 2 * t + 4, 0.9).remove_edges(
                itertools.combinations(range(t + 2), 2)).remove_edges(
                itertools.combinations(range(t + 2, 2 * t + 4), 2)), d),
            (book_graph(d - 1, 2, t, core_last=False), d),
            # overlaps of d-1 at the core: the witness names the core vertex
            # when it comes first, else the page vertex's degree or clique
            (book_graph(d, 2, t, core_last=False), d),
            (book_graph(d, 2, t, core_last=True), d),
            (book_graph(d, 2, t // 2, core_last=True), d),
        ]
    expected = [lemma7_by_induced_subgraphs(g, d) for g, d in cases]

    def refuse(*args):
        raise AssertionError("built a graph per vertex")

    monkeypatch.setattr(experiments, "induced_subgraph", refuse, raising=False)
    monkeypatch.setattr(Graph, "__init__", refuse)
    reports = [check_lemma7_hypotheses(g, d) for g, d in cases]
    assert reports == expected
    kinds = {r.witness[1].split()[0] for r in reports if r.witness}
    assert kinds == {"degree", "neighborhood", "maximal"}
    for d in (2, 3, 4, 5):
        assert any(r.all_ok for r, (_, e) in zip(reports, cases) if e == d)
    late = {r.witness[1].split()[0] for r in reports
            if not r.intersection_ok and not r.witness[1].startswith("maximal")}
    assert late == {"degree", "neighborhood"}


def test_lemma7_stops_searching_once_the_hypothesis_fails(monkeypatch):
    calls = []
    search = combinatorics._overlapping_cliques
    monkeypatch.setattr(combinatorics, "_overlapping_cliques",
                        lambda g, within, size: calls.append(within) or search(g, within, size))
    # passing: every neighbourhood is searched
    assert check_lemma7_hypotheses(complete_bipartite_graph(6, 7), 2).all_ok
    assert len(calls) == 13
    calls.clear()
    # dense: the intersection condition fails at vertex 0 and is then settled
    dense = random_regular_graph(random.Random(3), 48, 24)
    rep = check_lemma7_hypotheses(dense, 2)
    assert rep.witness[0] == 0 and rep.witness[1].startswith("maximal")
    assert calls == [dense.neighbor_mask(0)]
    calls.clear()
    # a page vertex words the witness; the first core vertex (36) still breaks
    # the condition, and the other two core vertices are not searched
    rep = check_lemma7_hypotheses(book_graph(3, 3, 12, core_last=True), 3)
    assert not rep.intersection_ok and rep.witness == (0, "neighborhood induces a clique")
    assert calls == [sum(1 << w for w in range(39) if w != 36)]


def hub_graph(k):
    """K_{2k} less a perfect matching, plus a hub joined to all of it: the
    hub's neighbourhood has 2^k maximal cliques, any two meeting."""
    return Graph(2 * k + 1, [(u, v) for u, v in itertools.combinations(range(2 * k + 1), 2)
                             if not (v < 2 * k and u % 2 == 0 and v == u + 1)])


def test_lemma7_hypotheses_on_the_hub_family_are_polynomial():
    # listing the hub's maximal cliques would take minutes at n = 49
    g = hub_graph(24)
    hub = g.n - 1
    started = time.perf_counter()
    rep = check_lemma7_hypotheses(g, 2)
    assert time.perf_counter() - started < 1.0
    assert not rep.all_ok and not rep.intersection_ok
    # vertex 0 sees the hub and 46 others; [1] in its neighbourhood sees 2 and 3
    assert rep.witness == (0, "maximal cliques overlap in > d-2 vertices: clique [2] "
                              "has non-adjacent common neighbours 4 and 5")
    assert combinatorics._overlapping_cliques(g, g.neighbor_mask(hub), 1) == ([0], 2, 3)
    assert combinatorics._overlapping_cliques(g, g.neighbor_mask(hub), 23)[1:] == (46, 47)


def test_overlapping_cliques_match_the_maximal_clique_listing():
    rng = random.Random(2024)
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 14), rng.uniform(0.3, 0.95))
        within = rng.sample(range(g.n), rng.randint(0, g.n))
        size = rng.randint(1, 5)
        found = combinatorics._overlapping_cliques(g, sum(1 << w for w in within), size)
        cliques = [set(c) for c in maximal_cliques(g, within)]
        assert found == first_overlap_by_cliques(g, cliques, size), (g.sorted_edges(), within, size)
        assert found == first_overlap_by_subsets(g, within, size)


def test_monte_carlo_gpi_degenerate_and_determinism():
    stats = monte_carlo_gpi(cycle_graph(5), 2, trials=200, seed=1)
    assert stats.mean == 5.0 and stats.stdev == 0.0 and stats.half_width_99 == 0.0
    assert monte_carlo_gpi(cycle_graph(5), 2, 50, seed=3) == monte_carlo_gpi(
        cycle_graph(5), 2, 50, seed=3
    )
    single = monte_carlo_gpi(cycle_graph(5), 2, trials=1, seed=0)
    assert single.stdev == 0.0
    with pytest.raises(ValueError):
        monte_carlo_gpi(cycle_graph(5), 2, trials=0)


def test_monte_carlo_tracks_exact_value():
    g = complete_bipartite_graph(7, 7)
    exact = float(exact_expected_gpi_edges(g, 2))
    stats = monte_carlo_gpi(g, 2, trials=4000, seed=9)
    assert abs(stats.mean - exact) <= stats.half_width_99


def test_monte_carlo_coverage_over_seeds():
    # documented tolerance: at a nominal 99% confidence level, at least 96
    # of 100 seeds must cover the exact value (binomial tail allowance)
    g = complete_graph(4).remove_edges([(0, 1)])
    exact = float(exact_expected_gpi_edges(g, 2))
    hits = sum(
        abs((s := monte_carlo_gpi(g, 2, 2000, seed=seed)).mean - exact) <= s.half_width_99
        for seed in range(100)
    )
    assert hits >= 96


def test_brute_force_oracle():
    assert brute_force_expected_gpi(cycle_graph(5), 2) == 5
    assert brute_force_expected_gpi(complete_graph(5), 2) == 7
    g = complete_graph(4).remove_edges([(0, 1)])
    assert brute_force_expected_gpi(g, 2) == exact_expected_gpi_edges(g, 2)
    with pytest.raises(ValueError):
        brute_force_expected_gpi(complete_graph(9), 2)


def test_exact_generic_rank_guard():
    with pytest.raises(ValueError):
        exact_generic_rank(complete_graph(20), 2)


def test_theorem1_spot_checks():
    rep = theorem1_spot_check(complete_bipartite_graph(6, 6), 2)
    assert rep.status == "checked" and rep.passed and rep.connectivity == 6

    rep = theorem1_spot_check(complete_graph(7), 2)
    assert rep.status == "checked" and rep.passed

    ly = lovasz_yemini_family(2, 8)
    rep = theorem1_spot_check(ly, 2)
    assert rep.status == "inapplicable" and rep.connectivity == 5


def test_theorem2_spot_checks():
    rep = theorem2_spot_check(complete_bipartite_graph(6, 6), 2)
    assert rep.status == "checked" and rep.passed

    rep = theorem2_spot_check(complete_graph(8), 2)
    assert rep.status == "checked" and rep.passed

    rep = theorem2_spot_check(sharpness_example(2), 2)
    assert rep.status == "checked" and rep.passed and rep.connectivity == 6


def test_theorem9_refuses_above_the_plane():
    for d in (3, 4):
        with pytest.raises(ValueError, match=rf"C\({(d * (d + 1)) ** 2}, {d * (d + 1) // 2}\)"):
            theorem9_check(d)


def _two_k7_on_two_shared_vertices():
    # red holds, but deleting the shared vertices 5, 6 and the edges
    # (0, 7), (1, 8) disconnects it, so it is not 3-connected after 2 deletions
    edges = [e for block in (range(7), range(5, 12)) for e in itertools.combinations(block, 2)]
    return Graph(12, set(edges) | {(0, 7), (1, 8)})


@pytest.mark.parametrize("build, passes, witnessed", [
    (lambda: sharpness_example(2), True, False),
    (lambda: sharpness_example(2).remove_edges([(0, 6)]), False, True),
    (lambda: sharpness_example(2).remove_edges([(5, 11)]), False, True),
    (lambda: add_edges(sharpness_example(2), [(0, 7)]), False, False),
    (_two_k7_on_two_shared_vertices, False, True),
], ids=["example", "less (0,6)", "less (5,11)", "plus (0,7)", "shared pair"])
def test_theorem9_plane_route_matches_the_stress_scan(monkeypatch, build, passes, witnessed):
    g = build()
    monkeypatch.setattr(experiments, "sharpness_example", lambda d: g)
    rep = theorem9_check(2, seed=5)
    # the stress route tags every verdict whp; the plane route may be certain
    assert rep._replace(confidence="whp") == theorem9_by_scan(g, sharpness_matching(2), 2, 5)
    assert rep.passed is passes
    assert (rep.gr_witness is not None) is witnessed


def test_theorem9_in_the_plane_draws_no_stress(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("stress route called")

    monkeypatch.setattr(global_rigidity, "stress_matrix_rank", forbidden)
    assert theorem9_check(2, seed=3).passed


def test_theorem9_in_the_plane_certifies_deletions_by_connectivity(monkeypatch):
    limits, verdicts = [], []
    kappa, globally_rigid = experiments.vertex_connectivity, experiments.is_globally_rigid

    def spy_kappa(g, limit=None):
        limits.append(limit)
        return kappa(g, limit)

    def spy_globally_rigid(g, *args):
        verdicts.append(g)
        return globally_rigid(g, *args)

    monkeypatch.setattr(experiments, "vertex_connectivity", spy_kappa)
    monkeypatch.setattr(experiments, "is_globally_rigid", spy_globally_rigid)
    assert theorem9_check(2, seed=3).passed
    assert limits == [5]
    # no deletion is scanned: at most the boundary graph gets a verdict
    assert set(verdicts) <= {sharpness_example(2).remove_edges(sharpness_matching(2)[:3])}


def test_theorem10_checks():
    ly = lovasz_yemini_family(2, 8)
    rep = theorem10_check(ly, 2)
    assert rep.status == "checked"
    assert rep.connectivity == 5 and rep.rank == 76 and rep.bound == Fraction(76)
    assert rep.passed

    rep = theorem10_check(cycle_graph(4), 2)
    assert rep.status == "checked" and rep.rank == 4 and rep.bound == 4 and rep.passed

    assert theorem10_check(complete_graph(7), 2).status == "inapplicable"
    assert theorem10_check(Graph(5, [(0, 1)]), 2).status == "inapplicable"  # kappa 0


def test_theorem10_tests_rigidity_only_where_the_bound_applies(monkeypatch):
    ly = lovasz_yemini_family(2, 8)
    expected = theorem10_check(ly, 2)
    calls = []
    real = experiments.is_rigid
    monkeypatch.setattr(experiments, "is_rigid", lambda *a: calls.append(a) or real(*a))
    # kappa 6 = d(d+1) and kappa 0: inapplicable before any elimination
    for g in (complete_graph(7), Graph(5, [(0, 1)])):
        assert theorem10_check(g, 2).status == "inapplicable"
    assert calls == []
    assert theorem10_check(ly, 2) == expected
    assert len(calls) == 1
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        theorem10_check(Graph(1), 0)


def test_theorem10_reads_the_rank_off_the_rigidity_verdict(monkeypatch):
    ly = lovasz_yemini_family(2, 8)
    path = Graph(3, [(0, 1), (1, 2)])  # n <= d+1: generic_rank carries |E| without an elimination
    ranks = [rigidity.generic_rank(g, 2, 2, 5).rank for g in (ly, path)]
    calls, eliminated = [], []
    real, feed = rigidity.generic_rank, rigidity.rank_of_rows
    monkeypatch.setattr(rigidity, "generic_rank", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(rigidity, "rank_of_rows", lambda *a: eliminated.append(a[1]) or feed(*a))
    assert [theorem10_check(g, 2, 5).rank for g in (ly, path)] == ranks == [76, 2]
    assert calls == [(ly, 2, 2, 5), (path, 2, 2, 5)]  # is_rigid's own, one per graph
    assert eliminated == [2 * ly.n]  # ly's alone


def test_lemma6_property_check():
    rep = lemma6_property_check(cycle_graph(4), 2)
    assert rep.status == "checked" and rep.all_independent and rep.passed

    rep = lemma6_property_check(complete_graph(4).remove_edges([(0, 1)]), 2)
    assert rep.status == "inapplicable" and rep.linked_nonedge == (0, 1)
    assert rep.passed is None

    rep = lemma6_property_check(complete_graph(6), 2)
    assert rep.status == "checked" and rep.passed  # no non-edges at all

    with pytest.raises(ValueError):
        lemma6_property_check(Graph(41), 2)


def test_lemma6_fuzz_on_random_graphs():
    # whenever the no-linked-non-edge hypothesis holds, independence of the
    # ordered subgraph is guaranteed, orderings notwithstanding
    rng = random.Random(500)
    applicable = 0
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 7), rng.random())
        rep = lemma6_property_check(g, 2, seed=rng.getrandbits(64))
        if rep.status == "checked":
            applicable += 1
            assert rep.passed
    assert applicable > 0


def test_expected_size_bound_under_hypotheses():
    # whenever the hypothesis check passes, the exact expectation is >= d|V|
    for g, d in [
        (complete_bipartite_graph(7, 7), 2),
        (complete_bipartite_graph(6, 6), 2),
        (complete_bipartite_graph(6, 8), 2),
    ]:
        assert check_lemma7_hypotheses(g, d).all_ok
        assert exact_expected_gpi_edges(g, d) >= d * g.n


@pytest.mark.parametrize("d, n, seed", [(4, 100, 2), (5, 150, 1), (6, 250, 1)])
def test_expected_size_bound_at_the_papers_scale(d, n, seed):
    # seeded random regular graphs of the lemma's least degree, d(d+1)
    g = random_regular_graph(random.Random(seed), n, d * (d + 1))
    assert check_lemma7_hypotheses(g, d).all_ok
    assert exact_expected_gpi_edges(g, d) >= d * g.n
