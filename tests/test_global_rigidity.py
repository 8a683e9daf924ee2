import random

import pytest

from rigidity_forge.constructions import sharpness_example
from rigidity_forge.global_rigidity import (
    Lemma4Report,
    is_globally_rigid,
    lemma4_consistency,
    stress_matrix,
    stress_matrix_rank,
    wgl_sufficient,
)
from rigidity_forge.graph_core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    vertex_connectivity,
)
from rigidity_forge.modlinalg import DEFAULT_PRIME
from rigidity_forge.rigidity import generic_rank, generic_rank_cap, is_rigid

from helpers import random_graph

P = DEFAULT_PRIME


def pendant_pair_gadget():
    """K5 with clique edge {0,1} removed plus an external 2-path 0-5-1."""
    body = complete_graph(5).remove_edges([(0, 1)])
    return Graph(6, list(body.edges) + [(0, 5), (1, 5)])


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
    assert is_globally_rigid(g.add_edge(0, 1), 2).value
    assert is_globally_rigid(g.add_edge(0, 1).add_edge(4, 5), 2).value


# -- weak global linkedness ----------------------------------------------------


def test_wgl_sufficient_examples():
    g = pendant_pair_gadget()
    assert wgl_sufficient(g, 2, 0, 1, [0, 1, 2, 3, 4]).value

    c4 = cycle_graph(4)
    assert not wgl_sufficient(c4, 2, 0, 2, [0, 1, 2, 3]).value

    k3 = complete_graph(3)
    assert wgl_sufficient(k3, 2, 0, 1, [0, 1]).value  # adjacent pair, edge is the path


def test_wgl_sufficient_validation():
    g = pendant_pair_gadget()
    with pytest.raises(ValueError):
        wgl_sufficient(g, 2, 0, 0, [0, 1])
    with pytest.raises(ValueError):
        wgl_sufficient(g, 2, 0, 5, [0, 1, 2])  # v outside v0


def test_lemma4_consistency_applicable_case():
    g = pendant_pair_gadget()
    report = lemma4_consistency(g, 2, 0, 1, [0, 1, 2, 3, 4])
    assert report.status == "checked"
    assert report.passed
    # both sides share the degree-2 vertex 5, so both are non-globally-rigid
    assert report.base.value == report.augmented.value == False  # noqa: E712


def test_lemma4_consistency_inapplicable_case():
    c4 = cycle_graph(4)
    report = lemma4_consistency(c4, 2, 0, 2, [0, 1, 2, 3])
    assert report == Lemma4Report("inapplicable", None, None, None)


def test_lemma4_consistency_on_globally_rigid_host():
    # certified pair inside a globally rigid graph: both verdicts true
    g = complete_bipartite_graph(4, 4)
    u, v = 0, 1  # same side, non-adjacent
    v0 = sorted(set(g.neighbors(u)) | set(g.neighbors(v)) | {u, v})
    report = lemma4_consistency(g, 2, u, v, v0)
    if report.status == "checked":
        assert report.base.value and report.augmented.value and report.passed
    with pytest.raises(ValueError):
        lemma4_consistency(g, 2, 0, 4, [0, 4])  # adjacent pair


def test_stress_certificate_is_seed_deterministic():
    g = complete_bipartite_graph(4, 4)
    a = stress_matrix_rank(g, 2, seed=77)
    b = stress_matrix_rank(g, 2, seed=77)
    assert a == b
