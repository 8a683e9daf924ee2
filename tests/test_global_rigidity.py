import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from rigidity_forge import global_rigidity, rigidity
from rigidity_forge.constructions import harary_graph, sharpness_example, sharpness_matching
from rigidity_forge.global_rigidity import (
    is_globally_rigid,
    stress_matrix,
    stress_matrix_rank,
    wgl_sufficient,
)
from rigidity_forge.graph_core import (
    Graph,
    complete_bipartite_graph,
    parse_graph,
    vertex_connectivity,
)
from rigidity_forge.modlinalg import DEFAULT_PRIME
from rigidity_forge.rigidity import generic_rank, generic_rank_cap, is_rigid

from helpers import (
    add_edges,
    brute_vertex_connectivity,
    complete_graph,
    cycle_graph,
    globally_rigid_deletions,
    neighbors,
    placed_rows,
    random_graph,
    stress_globally_rigid,
    use_trials,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

P = DEFAULT_PRIME


def pendant_pair_gadget():
    """K5 with clique edge {0,1} removed plus an external 2-path 0-5-1."""
    body = complete_graph(5).remove_edges([(0, 1)])
    return Graph(6, [*body.sorted_edges(), (0, 5), (1, 5)])


# -- stress matrices ---------------------------------------------------------


def test_stress_matrix_shape_and_row_sums():
    rng = random.Random(44)
    g = complete_graph(5)
    stress = tuple(rng.randrange(P) for _ in range(g.edge_count))
    omega = stress_matrix(g, stress)
    assert (omega.rows, omega.cols) == (5, 5)
    entry = [[omega.data[i].get(j, 0) for j in range(5)] for i in range(5)]
    for i in range(5):
        assert sum(entry[i]) % P == 0
        for j in range(5):
            assert entry[i][j] == entry[j][i]
    assert 0 not in (x for row in omega.data for x in row.values())  # sparse rows hold no zeros
    path = stress_matrix(Graph(3, [(0, 1), (1, 2)]), (5, P - 5))
    assert 1 not in path.data[1]  # the diagonal entry 5 + (P - 5) cancels


def test_stress_matrix_rank_examples():
    cert = stress_matrix_rank(complete_graph(4), 2)
    assert cert.omega_rank == 1 == cert.target
    cert = stress_matrix_rank(cycle_graph(4), 2)
    assert cert.omega_rank == 0  # independent graph: trivial kernel
    cert = stress_matrix_rank(complete_graph(5), 3)
    assert cert.omega_rank == 1 == cert.target


def test_stress_matrix_rank_requires_enough_vertices():
    with pytest.raises(ValueError):
        stress_matrix_rank(complete_graph(3), 2)


def test_omega_rank_capped_for_full_rank_frameworks():
    # whenever the framework rank hits the cap, rank(omega) <= n - d - 1
    rng = random.Random(21)
    for _ in range(20):
        g = random_graph(rng, rng.randint(5, 8), 0.8)
        d = rng.choice((2, 3))
        if g.n < d + 2:
            continue
        rep = generic_rank(g, d, seed=rng.randrange(2**32))
        if rep.rank != generic_rank_cap(g.n, d):
            continue
        cert = stress_matrix_rank(g, d, seed=rng.randrange(2**32))
        assert cert.omega_rank <= g.n - d - 1


# -- global rigidity verdicts -------------------------------------------------


def test_globally_rigid_examples():
    assert is_globally_rigid(complete_graph(4), 2).confidence == "certain"
    assert is_globally_rigid(complete_graph(4), 2).value
    assert not is_globally_rigid(complete_graph(4).remove_edges([(0, 1)]), 2).value
    assert not is_globally_rigid(cycle_graph(4), 2).value


def test_plane_false_forced_by_connectivity_is_certain():
    # two K4 sharing an edge: rigid, but its shared pair is a 2-cut
    g = Graph(6, [*complete_graph(4).sorted_edges(), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)])
    assert vertex_connectivity(g) == 2
    assert is_globally_rigid(g, 2) == (False, "certain", 9)


def test_a_false_above_the_plane_forced_by_connectivity_is_certain(monkeypatch):
    # two K5 sharing a triangle: rigid in R^3, but the triangle is a 3-cut
    g = Graph(7, {*itertools.combinations(range(5), 2), *itertools.combinations(range(2, 7), 2)})
    assert vertex_connectivity(g) == 3
    assert is_globally_rigid(g, 3) == (False, "certain", 15)
    # K_{5,5} is 5-connected and rigid in R^3 but not globally rigid: only the stress says so
    k55 = complete_bipartite_graph(5, 5)
    assert vertex_connectivity(k55) == 5 and is_rigid(k55, 3) == (True, "certain", 24)
    assert is_globally_rigid(k55, 3) == (False, "whp", 24)
    # a True verdict computes no connectivity
    monkeypatch.setattr(global_rigidity, "vertex_connectivity", None)
    assert is_globally_rigid(harary_graph(12, 20), 3).value


def test_globally_rigid_small_and_d1_conventions():
    assert is_globally_rigid(complete_graph(3), 2).value  # n <= d+1, complete
    assert not is_globally_rigid(Graph(3, [(0, 1)]), 2).value
    # d = 1: exactly the 2-connected graphs
    assert is_globally_rigid(cycle_graph(4), 1).value
    assert not is_globally_rigid(Graph(3, [(0, 1), (1, 2)]), 1).value


def test_globally_rigid_implies_rigid_and_connectivity():
    graphs = [
        complete_bipartite_graph(6, 6),
        sharpness_example(2),
        complete_graph(5),
        cycle_graph(5),
        complete_graph(4).remove_edges([(0, 1)]),
    ]
    for g in graphs:
        if is_globally_rigid(g, 2).value:
            assert is_rigid(g, 2).value
            if g.n >= 4:
                assert vertex_connectivity(g) >= 3


def test_globally_rigid_monotone_under_edge_addition():
    g = complete_bipartite_graph(4, 4)
    assert is_globally_rigid(g, 2).value
    assert is_globally_rigid(add_edges(g, [(0, 1)]), 2).value
    assert is_globally_rigid(add_edges(g, [(0, 1), (4, 5)]), 2).value


def _k4_covered(g):
    return all(any(g.has_edge(w, x) for w, x in itertools.combinations(
        sorted(neighbors(g, u) & neighbors(g, v)), 2)) for u, v in g.sorted_edges())


def _plane_cases(rng):
    """Small non-complete graphs on at least 4 vertices of five kinds: dense
    random graphs, which are mostly K4-covered; subgraphs of K_{a,b} plus a
    few edges, with few or no K4s; two dense blocks sharing two vertices,
    at most 2-connected; two dense blocks joined by three disjoint edges,
    which lie in no K4 (nor, between rigid blocks, in a circuit); and sparse
    random graphs, mostly not rigid."""
    for i in range(300):
        kind = i % 5
        if kind == 0:
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.7, 0.95))
        elif kind == 1:
            a, b = rng.randint(3, 4), rng.randint(3, 5)
            body = [e for e in complete_bipartite_graph(a, b).sorted_edges() if rng.random() < 0.95]
            extra = [tuple(rng.sample(range(a + b), 2)) for _ in range(rng.randint(0, 2))]
            g = Graph(a + b, body + extra)
        elif kind == 2:
            a, b = rng.randint(4, 6), rng.randint(4, 6)
            blocks = (range(a), range(a - 2, a + b - 2))
            g = Graph(a + b - 2, [e for block in blocks for e in itertools.combinations(block, 2)
                                  if rng.random() < 0.9])
        elif kind == 3:
            a, b = rng.randint(4, 5), rng.randint(4, 5)
            blocks = (range(a), range(a, a + b))
            g = Graph(a + b, [e for block in blocks for e in itertools.combinations(block, 2)
                              if rng.random() < 0.9] + [(0, a), (1, a + 1), (2, a + 2)])
        else:
            g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.5))
        if not g.is_complete():
            yield g


def test_plane_route_matches_the_stress_oracle():
    rng = random.Random(2005)
    seen = Counter()
    for g in _plane_cases(rng):
        seed = rng.getrandbits(64)
        verdict = is_globally_rigid(g, 2, seed=seed)
        oracle = stress_globally_rigid(g, 2, seed=seed)
        assert (verdict.value, verdict.rank) == (oracle.value, oracle.rank), g.sorted_edges()
        rigid = is_rigid(g, 2, seed=seed)
        if not rigid:
            kind = "not rigid"
        elif brute_vertex_connectivity(g) < 3:
            kind = "rigid, not 3-connected"
        else:
            kind = "K4-covered" if _k4_covered(g) else "stress fallback"
        # a graph found not rigid keeps the rigidity verdict's own tag; exact
        # connectivity below 3 makes a False certain, and so does a failed
        # redundancy test once the edges left, |E| - 1, are below the cap
        assert verdict.confidence == ("certain" if verdict.value or kind == "rigid, not 3-connected"
                                      else rigid.confidence if kind == "not rigid"
                                      else "certain" if g.edge_count - 1 < 2 * g.n - 3 else "whp")
        seen[kind, verdict.value] += 1
    assert set(seen) == {("not rigid", False), ("rigid, not 3-connected", False),
                         ("K4-covered", True), ("stress fallback", True),
                         ("stress fallback", False)}
    assert seen.total() >= 200 and min(seen.values()) >= 10
    assert all(seen[kind, True] + seen[kind, False] >= 25 for kind, _ in seen)


def test_plane_route_on_a_k4_covered_graph_draws_no_stress(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("stress route called")

    for name in ("stress_matrix", "stress_matrix_rank"):
        monkeypatch.setattr(global_rigidity, name, forbidden)
    monkeypatch.setattr(rigidity, "left_kernel_sample", forbidden)
    g = complete_graph(6).remove_edges([(0, 1), (2, 3)])
    assert _k4_covered(g) and is_globally_rigid(g, 2) == (True, "certain", 9)
    blocks = (range(5), range(3, 8))  # two K5s sharing two vertices
    two_connected = Graph(8, [e for block in blocks for e in itertools.combinations(block, 2)])
    assert not is_globally_rigid(two_connected, 2).value


def test_plane_route_without_a_k4_cover_samples_one_stress_per_trial(monkeypatch):
    use_trials(monkeypatch, 3)
    calls = []
    sample = rigidity.left_kernel_sample

    def spy(m, seed, count=1):
        calls.append(seed)
        return sample(m, seed, count)

    monkeypatch.setattr(rigidity, "left_kernel_sample", spy)
    assert is_globally_rigid(complete_bipartite_graph(4, 4), 2) == (True, "certain", 13)
    assert len(calls) == 1  # a full-support stress on the first placement settles it
    calls.clear()
    # the benchmark's seed-1 30-vertex graph has two edges in no K4
    inv = next(i for i in workloads.verdicts_and_checks(1) if i.command == "globally-rigid")
    g = parse_graph(inv.stdin)
    assert g.n == 30 and not _k4_covered(g)
    assert is_globally_rigid(g, 2) == (True, "certain", 57) and len(calls) == 1
    calls.clear()
    # K_{3,3} is minimally rigid, |E| = 9 = its rank: no edge lies in a circuit,
    # so it is not redundantly rigid, certainly, and no stress is drawn
    assert is_globally_rigid(complete_bipartite_graph(3, 3), 2) == (False, "certain", 9)
    assert len(calls) == 0


def test_plane_fallback_reads_the_rank_of_its_stress_elimination(monkeypatch):
    # the seed-1 30-vertex graph reaches the stress fallback: the placement's
    # rank comes with its stress, so only the rigidity test ranks rows
    inv = next(i for i in workloads.verdicts_and_checks(1) if i.command == "globally-rigid")
    g, seed = parse_graph(inv.stdin), int(inv.args[-1])
    ranked, sampled = [], []
    rank_of_rows, sample = rigidity.rank_of_rows, rigidity.left_kernel_sample
    monkeypatch.setattr(rigidity, "rank_of_rows", lambda *a, **k: ranked.append("rigidity") or rank_of_rows(*a, **k))
    # a rank check of global_rigidity's own would call this name
    monkeypatch.setattr(global_rigidity, "rank_of_rows",
                        lambda *a, **k: ranked.append("global_rigidity") or rank_of_rows(*a, **k), raising=False)
    monkeypatch.setattr(rigidity, "left_kernel_sample", lambda *a: sampled.append(a) or sample(*a))
    assert is_globally_rigid(g, 2, seed=seed) == (True, "certain", 57)
    assert ranked == ["rigidity"] and len(sampled) == 1
    rows, _ = next(placed_rows(g, 2, 1, seed))
    assert sample(*sampled[0])[0] == 57 == rank_of_rows(rows, 60)


# -- deletion scans ------------------------------------------------------------


def test_deletion_scan_matches_is_globally_rigid_on_sharpness_example():
    g = sharpness_example(2)
    subsets = list(itertools.combinations(g.sorted_edges(), 2))
    assert len(subsets) == 630
    scan = [v.value for v in globally_rigid_deletions(g, 2, subsets, seed=4)]
    direct = [is_globally_rigid(g.remove_edges(gone), 2, seed=5).value for gone in subsets]
    assert scan == direct
    assert all(scan)  # the sharp constant: C(3,2) - 1 = 2 deletions keep it globally rigid


def test_deleting_three_matching_edges_breaks_global_rigidity():
    g = sharpness_example(2)
    matching = sharpness_matching(2)
    [verdict] = globally_rigid_deletions(g, 2, [matching[:3]], seed=4)
    assert not verdict.value and verdict.confidence == "whp"
    assert verdict.rank == 2 * g.n - 3  # still rigid
    [verdict] = globally_rigid_deletions(g, 2, [matching[:2]], seed=4)
    assert verdict.value


def test_deletion_scan_matches_is_globally_rigid_on_random_graphs():
    rng = random.Random(73)
    outcomes = set()
    for _ in range(12):
        g = random_graph(rng, rng.randint(5, 8), 0.8)
        d = rng.choice((2, 3)) if g.n >= 7 else 2
        subsets = list(itertools.combinations(g.sorted_edges(), rng.randint(0, 2)))
        seed = rng.getrandbits(64)
        scan = [v.value for v in globally_rigid_deletions(g, d, subsets, seed=seed)]
        direct = [is_globally_rigid(g.remove_edges(s), d, seed=seed).value for s in subsets]
        assert scan == direct
        outcomes.update(scan)
    assert outcomes == {True, False}


def test_deletion_scan_validation():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        next(globally_rigid_deletions(g, 1, [[(0, 1)]]))
    with pytest.raises(ValueError):
        next(globally_rigid_deletions(complete_graph(3), 2, [[(0, 1)]]))
    with pytest.raises(ValueError):
        next(globally_rigid_deletions(g.remove_edges([(0, 1)]), 2, [[(0, 1)]]))


# -- weak global linkedness ----------------------------------------------------


def test_wgl_sufficient_examples():
    g = pendant_pair_gadget()
    assert wgl_sufficient(g, 2, 0, 1, [0, 1, 2, 3, 4]).value

    c4 = cycle_graph(4)
    assert not wgl_sufficient(c4, 2, 0, 2, [0, 1, 2, 3]).value

    k3 = complete_graph(3)
    assert wgl_sufficient(k3, 2, 0, 1, [0, 1]).value  # adjacent pair, edge is the path


def test_wgl_sufficient_tests_the_path_before_the_rank(monkeypatch):
    def no_rank_work(*args):
        raise AssertionError("is_linked called although no path avoids v0")

    monkeypatch.setattr(global_rigidity, "is_linked", no_rank_work)
    verdict = wgl_sufficient(cycle_graph(4), 2, 0, 2, [0, 1, 2, 3])
    assert verdict == global_rigidity.Verdict(False, "certain")
    with pytest.raises(ValueError):  # argument checks still come first
        wgl_sufficient(cycle_graph(4), 2, 0, 0, [0, 1, 2, 3])


def test_wgl_sufficient_validation():
    g = pendant_pair_gadget()
    with pytest.raises(ValueError):
        wgl_sufficient(g, 2, 0, 0, [0, 1])
    with pytest.raises(ValueError):
        wgl_sufficient(g, 2, 0, 5, [0, 1, 2])  # v outside v0


def test_stress_certificate_is_seed_deterministic():
    g = complete_bipartite_graph(4, 4)
    a = stress_matrix_rank(g, 2, seed=77)
    b = stress_matrix_rank(g, 2, seed=77)
    assert a == b


# -- dimension refusals --------------------------------------------------------


@pytest.mark.parametrize("call, answer", [
    (lambda c5: rigidity.is_t_redundantly_rigid(c5, 0, 2), None),
    (lambda c5: rigidity.is_t_redundantly_rigid(c5, -1, 2), None),
    (lambda c5: rigidity.is_linked(c5, 0, 0, 2), None),
    (lambda c5: rigidity.is_linked(c5, -2, 0, 2), None),
    (lambda c5: wgl_sufficient(c5, 0, 0, 2, [0, 1, 2]), None),
    (lambda c5: stress_matrix_rank(c5, -1), None),
    (lambda c5: is_rigid(c5, -2), None),
    (lambda c5: generic_rank(c5, 0), None),
    # no placement is drawn: an edge pair, a complete graph, no u-v path
    (lambda c5: rigidity.is_linked(c5, 0, 0, 1), (True, "certain", None)),
    (lambda c5: is_globally_rigid(complete_graph(5), 0), (True, "certain", None)),
    (lambda c5: wgl_sufficient(c5, 0, 0, 2, [0, 1, 2, 3, 4]), (False, "certain", None)),
], ids=["redundant-0", "redundant-neg", "linked-0", "linked-neg", "wgl-0", "stress-neg", "rigid-neg",
        "rank-0", "edge-pair", "complete", "no-path"])
def test_a_dimension_below_one_is_refused_where_a_placement_is_drawn(call, answer):
    # the placement stream refuses d < 1 before any arithmetic on d
    if answer is None:
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            call(cycle_graph(5))
    else:
        assert call(cycle_graph(5)) == answer
