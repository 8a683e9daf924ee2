import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_forge import combinatorics
from rigidity_forge.combinatorics import (
    CliqueSystem,
    _clique_size_counts,
    covered_subset_count,
    exact_expected_gpi_edges,
    grn_lower_bound,
    m_dk,
    verify_comblemma,
)
from rigidity_forge.graph_core import (
    Graph,
    complete_bipartite_graph,
)

from helpers import (
    add_edges,
    brute_covered_count,
    brute_force_expected_gpi,
    complete_graph,
    cycle_graph,
    enumerated_clique_size_counts,
    expected_gpi_by_backward_degree,
    random_clique_system,
    random_graph,
)


def system(n, d, *sets):
    return CliqueSystem(n, d, tuple(frozenset(s) for s in sets))


# -- clique systems ------------------------------------------------------------


def test_clique_system_validation():
    with pytest.raises(ValueError):
        system(3, 2, {0, 5})
    sys_ = system(5, 2, {0, 1, 2}, {0, 3})
    # stored fine, but the pairwise hypothesis fails (|∩| = 1 > 0)
    assert sys_.hypothesis_violation() is not None


def test_hypothesis_violation_cases():
    assert system(6, 2, {0, 1, 2}, {3, 4, 5}).hypothesis_violation() is None
    assert system(6, 3, {0, 1, 2, 3}, {0, 4, 5}).hypothesis_violation() is None
    assert "coincide" in system(6, 2, {0, 1}, {0, 1}).hypothesis_violation()
    assert "proper" in system(3, 2, {0, 1, 2}).hypothesis_violation()
    assert "d=1" in system(3, 1, {0}).hypothesis_violation()
    assert system(6, 2, {0, 1}, {1, 2}).hypothesis_violation().startswith("|H_0")


def test_covered_subset_count_examples():
    assert covered_subset_count(system(5, 2, {0, 1, 2}, {3, 4}), 3) == 1
    assert covered_subset_count(system(5, 2), 3) == 0  # r = 0
    assert covered_subset_count(system(5, 2, {0, 1, 2, 3}), 4) == 1
    with pytest.raises(ValueError):
        covered_subset_count(system(5, 2, {0, 1}), 6)


def test_covered_subset_count_zero_beyond_largest_set():
    sys_ = system(8, 2, {0, 1, 2}, {3, 4})
    assert covered_subset_count(sys_, 4) == 0
    assert covered_subset_count(sys_, 5) == 0


def test_covered_subset_count_methods_agree(monkeypatch):
    # wherever the guard holds, "auto" takes the closed form, enumerating nothing
    enumerated = []
    enumerate_ = combinatorics._enumerated_covered_count
    monkeypatch.setattr(combinatorics, "_enumerated_covered_count",
                        lambda system, m: enumerated.append(m) or enumerate_(system, m))
    rng = random.Random(70)
    for _ in range(60):
        d = rng.choice((2, 3, 4))
        n = rng.randint(d + 2, 10)
        sys_ = random_clique_system(rng, n, d)
        for m in range(d - 1, n + 1):
            closed = sum(comb(len(h), m) for h in sys_.sets)
            enumerated.clear()
            assert covered_subset_count(sys_, m, method="auto") == closed and enumerated == []
            assert covered_subset_count(sys_, m, method="enumerate") == closed
    overlapping = system(8, 4, {0, 1, 2, 3}, {2, 3, 4, 5})
    enumerated.clear()
    assert covered_subset_count(overlapping, 3, method="auto") == (
        covered_subset_count(overlapping, 3, method="enumerate")
    ) == 8
    assert enumerated == [3]  # the enumerate call's own
    # guard: with m <= d-2 the 2-subset {2, 3} lies in both sets, so the closed
    # form's 12 counts it twice; "auto" enumerates instead
    assert covered_subset_count(overlapping, 2, method="auto") == 11
    assert enumerated == [3, 2]


def test_covered_subset_count_auto_matches_enumeration():
    rng = random.Random(72)
    admissible = 0
    for case in range(1200):
        d = rng.randint(2, 6)
        n = rng.randint(2, 10)
        if case % 2:
            sys_ = random_clique_system(rng, n, d)
        else:  # arbitrary subsets: most of these break the hypotheses
            sets = {frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(1, 5))}
            sys_ = CliqueSystem(n, d, tuple(sets))
        admissible += sys_.hypothesis_violation() is None
        for m in range(n + 1):  # includes m <= d-2 and the boundary m = d-1
            assert covered_subset_count(sys_, m, method="auto") == (
                covered_subset_count(sys_, m, method="enumerate")
            ), (sys_, m)
    assert 300 < admissible < 1000


def test_verify_comblemma_counts_without_enumerating(monkeypatch):
    def refuse(system, m):
        raise AssertionError("enumerated the m-subsets")

    checks = []
    check = CliqueSystem.hypothesis_violation

    def counted(self, m=None):
        checks.append(m)
        return check(self, m)

    monkeypatch.setattr(combinatorics, "_enumerated_covered_count", refuse)
    monkeypatch.setattr(CliqueSystem, "hypothesis_violation", counted)
    sets = (range(40), range(38, 64), (5, 6, 45))  # pairwise intersections <= d-2 = 2
    rep = verify_comblemma(system(64, 4, *sets), 32)
    assert rep.status == "checked" and rep.holds
    assert rep.count == sum(comb(len(h), 32) for h in sets) == comb(40, 32)
    assert rep.bound == comb(63, 32)
    assert checks == [32]  # the O(r^2) hypothesis pass runs once per call
    assert verify_comblemma(system(64, 4, *sets), 3).status == "inapplicable"
    assert checks == [32, 3]


def test_covered_subset_count_matches_brute_oracle():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(2, 9)
        sets = [
            frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            for _ in range(rng.randint(0, 4))
        ]
        sys_ = CliqueSystem(n, 2, tuple(sets))
        m = rng.randint(0, n)
        assert covered_subset_count(sys_, m) == brute_covered_count(sys_, m)


def test_verify_comblemma_examples():
    rep = verify_comblemma(system(5, 2, {0, 1, 2}, {3, 4}, {0, 3}), 3)
    assert rep.status == "inapplicable"  # |{0,1,2} ∩ {0,3}| = 1 > d-2

    rep = verify_comblemma(system(6, 2, {0, 1, 2}, {3, 4, 5}), 3)
    assert rep.status == "checked" and rep.count == 2 and rep.bound == 10 and rep.holds

    rep = verify_comblemma(system(6, 3, {0, 1, 2, 3}, {0, 4, 5}), 4)
    assert rep.status == "checked" and rep.count == 1 and rep.bound == 5 and rep.holds

    assert verify_comblemma(system(6, 2, {0, 1, 2}), 2).status == "inapplicable"  # m < d+1


def test_verify_comblemma_fuzz_holds():
    rng = random.Random(2025)
    for _ in range(1500):
        d = rng.choice((2, 3, 4))
        n = rng.randint(d + 2, 12)
        sys_ = random_clique_system(rng, n, d)
        m = rng.randint(d + 1, n - 1)
        rep = verify_comblemma(sys_, m)
        assert rep.status == "checked" and rep.holds
        assert rep.count == brute_covered_count(sys_, m)


# -- rank densities --------------------------------------------------------------


def test_m_dk_examples():
    assert m_dk(2, 5) == Fraction(19, 10)
    assert m_dk(2, 2) == 1
    assert m_dk(3, 4) == 2
    with pytest.raises(ValueError):
        m_dk(2, 6)  # k >= d(d+1)
    with pytest.raises(ValueError):
        m_dk(2, 0)


def test_m_dk_monotone_and_below_min():
    for d in (2, 3, 4):
        values = [m_dk(d, k) for k in range(1, d * (d + 1))]
        for k, val in enumerate(values, start=1):
            assert val < min(k, d)
        upper = values[d:]  # k from d+1 on: strictly increasing
        assert all(a < b for a, b in zip(upper, upper[1:]))


def test_grn_lower_bound():
    assert grn_lower_bound(10, 60) == 1
    assert grn_lower_bound(10, 59) == 0
    assert grn_lower_bound(4, 6) == 0
    assert grn_lower_bound(2, 24 * 2) == 2  # exact square: 48/(12) = 4
    with pytest.raises(ValueError):
        grn_lower_bound(0, 5)


# -- exact expected ordered-subgraph size -----------------------------------------


def test_expected_gpi_on_complete_graphs_matches_closed_form():
    for d in (2, 3):
        for n in (d + 2, 7, 9):
            k = n - 1
            per_vertex = d - Fraction(d * (d + 1), 2 * (k + 1))
            assert exact_expected_gpi_edges(complete_graph(n), d) == n * per_vertex


def test_expected_gpi_examples():
    assert exact_expected_gpi_edges(cycle_graph(5), 2) == 5
    k77 = complete_bipartite_graph(7, 7)
    assert exact_expected_gpi_edges(k77, 2) == Fraction(63, 2)
    assert exact_expected_gpi_edges(k77, 2) >= 2 * 14
    assert exact_expected_gpi_edges(complete_graph(10), 2) == 17


def test_expected_gpi_state_budget(monkeypatch):
    # K_22 less a perfect matching: degree 20, and 2^11 - 1 states at each vertex
    k22pm = complete_graph(22).remove_edges([(i, i + 11) for i in range(11)])
    assert exact_expected_gpi_edges(k22pm, 2) == Fraction(263870, 4641)
    monkeypatch.setattr(combinatorics, "CLIQUE_STATE_BUDGET", 2046)
    with pytest.raises(ValueError, match="vertex 0's neighbourhood needs more than 2046 states"):
        exact_expected_gpi_edges(k22pm, 2)
    monkeypatch.setattr(combinatorics, "CLIQUE_STATE_BUDGET", 2047)
    assert exact_expected_gpi_edges(k22pm, 2) == Fraction(263870, 4641)
    with pytest.raises(ValueError):
        exact_expected_gpi_edges(cycle_graph(4), 1)


def test_expected_gpi_matches_brute_force_oracle():
    rng = random.Random(303)
    frozen = [
        (cycle_graph(6), 2, Fraction(6)),
        (complete_bipartite_graph(3, 3), 2, Fraction(9)),
        (complete_graph(6).remove_edges([(0, 1)]), 3, Fraction(38, 3)),
    ]
    for g, d, expected in frozen:
        assert exact_expected_gpi_edges(g, d) == expected
        assert brute_force_expected_gpi(g, d) == expected
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        d = rng.choice((2, 3))
        assert exact_expected_gpi_edges(g, d) == brute_force_expected_gpi(g, d)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 14), st.floats(0.0, 1.0),
       st.sampled_from([2, 3, 4]))
def test_expected_gpi_closed_form_matches_the_term_by_term_sum(rng, n, density, d):
    g = random_graph(rng, n, density)
    assert exact_expected_gpi_edges(g, d) == expected_gpi_by_backward_degree(g, d)


def hub_over(rim: Graph) -> Graph:
    """rim on vertices 1..n plus a hub 0 joined to all of them."""
    return Graph(rim.n + 1, [(0, i) for i in range(1, rim.n + 1)]
                 + [(u + 1, v + 1) for u, v in rim.sorted_edges()])


def test_clique_size_counts_match_enumeration():
    rng = random.Random(304)
    graphs = [complete_graph(n) for n in (1, 2, 9, 13)] + [Graph(5), cycle_graph(4)]
    graphs += [random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.97)) for _ in range(300)]
    # hubs of degree 33-48 over a cycle plus chords
    for m in (rng.randint(33, 48) for _ in range(20)):
        rim = random_graph(rng, m, rng.uniform(0.02, 0.3))
        graphs.append(hub_over(add_edges(rim, [(i, (i + 1) % m) for i in range(m)])))
    for g in graphs:
        for v in range(g.n):
            assert _clique_size_counts(g, v) == enumerated_clique_size_counts(g, v), (g, v)


def test_clique_size_counts_of_a_wheel_hub_read_no_pair_of_its_neighbours():
    # the hub of an 8,000-vertex wheel: about 0.3 s, where looking up all
    # 3.2 * 10^7 pairs of its neighbours one by one takes about 3.5 s
    m = 7_999
    wheel = hub_over(cycle_graph(m))
    started = time.perf_counter()
    assert _clique_size_counts(wheel, 0) == [1, m, m] + [0] * (m - 2)
    assert time.perf_counter() - started < 1.5


def test_refused_arguments():
    for method in ("x", "binomial"):
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            covered_subset_count(system(4, 2, {0, 1}), 2, method=method)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        m_dk(0, 1)
    with pytest.raises(ValueError, match="edge count must be non-negative"):
        grn_lower_bound(1, -1)
