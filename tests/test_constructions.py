import random
from math import comb

import pytest

from rigidity_forge.constructions import (
    RULE_A,
    RULE_B,
    RULE_C,
    RULE_FIRST,
    build_gpi,
    harary_graph,
    lovasz_yemini_family,
    sharpness_example,
    sharpness_matching,
)
from rigidity_forge.graph_core import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    vertex_connectivity,
)
from rigidity_forge.rigidity import _cover_first, is_independent

from helpers import gpi_edge_count, one_extension, random_graph, zero_extension


# -- Henneberg extensions ----------------------------------------------------


def test_extensions_preserve_independence():
    rng = random.Random(60)
    for _ in range(60):
        d = rng.choice((2, 3))
        g = complete_graph(d + 1)
        for _ in range(4):
            assert is_independent(g, d, seed=rng.randrange(2**32)).value
            if rng.random() < 0.5 or g.edge_count == 0:
                targets = rng.sample(range(g.n), d)
                g = zero_extension(g, d, targets)
            else:
                a, b = rng.choice(g.sorted_edges())
                pool = [w for w in range(g.n) if w not in (a, b)]
                g = one_extension(g, d, (a, b), rng.sample(pool, d - 1))
        assert is_independent(g, d, seed=rng.randrange(2**32)).value


# -- ordered subgraph construction --------------------------------------------


def test_gpi_on_complete_graphs_hits_the_cap():
    for d in (2, 3):
        for n in (d + 1, 7, 10):
            g = complete_graph(n)
            res = build_gpi(g, d, list(range(n)))
            assert res.edge_count == d * n - comb(d + 1, 2)
            rules = {s.rule for s in res.steps}
            assert RULE_C not in rules  # complete: backward sets are cliques


def test_gpi_on_cycle_keeps_all_edges():
    c5 = cycle_graph(5)
    res = build_gpi(c5, 2, list(range(5)))
    assert res.subgraph.sorted_edges() == c5.sorted_edges()
    assert all(s.rule in (RULE_FIRST, RULE_A) for s in res.steps)


def test_gpi_on_bipartite_never_fires_rule_b():
    g = complete_bipartite_graph(7, 7)
    rng = random.Random(4)
    for _ in range(10):
        order = list(range(14))
        rng.shuffle(order)
        res = build_gpi(g, 2, order)
        for step in res.steps:
            assert step.rule != RULE_B
            if step.backdeg >= 3:
                assert step.rule == RULE_C


def test_gpi_trace_invariants():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        d = rng.choice((2, 3))
        order = list(range(g.n))
        rng.shuffle(order)
        res = build_gpi(g, d, order)
        assert all(g.has_edge(u, v) for u, v in res.subgraph.sorted_edges())
        pos = {v: i for i, v in enumerate(order)}
        for step in res.steps:
            assert len(step.chosen) == (
                min(step.backdeg, d) if step.rule != RULE_C else d + 1
            )
            assert all(pos[w] < step.position for w in step.chosen)
            if step.rule == RULE_C:
                x, y = step.nonadjacent_pair
                assert not g.has_edge(x, y)
                assert x in step.chosen and y in step.chosen
            else:
                assert step.nonadjacent_pair is None
        # per-vertex backward degree in the subgraph is at most d+1
        assert all(len(s.chosen) <= d + 1 for s in res.steps)


def test_gpi_edge_count_matches_full_build():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        order = list(range(g.n))
        rng.shuffle(order)
        d = rng.choice((2, 3, 4))
        assert gpi_edge_count(g, d, order) == build_gpi(g, d, order).edge_count


def test_gpi_rejects_low_dimension_and_bad_orderings():
    with pytest.raises(ValueError):
        build_gpi(complete_graph(3), 1, [0, 1, 2])
    with pytest.raises(ValueError):
        build_gpi(complete_graph(3), 2, [0, 1])
    with pytest.raises(ValueError):
        build_gpi(complete_graph(3), 2, [0, 1, 1])


# -- named families ------------------------------------------------------------


def test_harary_graphs():
    assert harary_graph(2, 5) == cycle_graph(5)
    h = harary_graph(5, 8)
    assert all(h.degree(v) == 5 for v in range(8))
    assert vertex_connectivity(h) == 5
    h = harary_graph(4, 7)
    assert all(h.degree(v) == 4 for v in range(7))
    assert vertex_connectivity(h) == 4
    with pytest.raises(ValueError):
        harary_graph(5, 5)
    with pytest.raises(ValueError):
        harary_graph(3, 5)  # odd * odd


def test_lovasz_yemini_family_structure():
    g = lovasz_yemini_family(2, 8)
    assert g.n == 40 and g.edge_count == 100
    assert all(g.degree(v) == 5 for v in range(g.n))  # d(d+1) - 1
    # eight blocks of 5 are cliques; the split edges join different blocks
    assert all(g.has_edge(b + i, b + j) for b in range(0, 40, 5)
               for i in range(5) for j in range(i + 1, 5))
    split = [(u, v) for u, v in g.sorted_edges() if u // 5 != v // 5]
    assert len(split) == 20
    # every clique vertex is the endpoint of exactly one split edge
    endpoints = [w for e in split for w in e]
    assert sorted(endpoints) == list(range(40))
    assert _cover_first(g, 2)[1] == 76


def test_lovasz_yemini_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lovasz_yemini_family(1, 8)
    with pytest.raises(ValueError):
        lovasz_yemini_family(2, 5)  # s < k+1
    with pytest.raises(ValueError):
        lovasz_yemini_family(2, 7)  # k*s odd


def test_sharpness_example_structure():
    g = sharpness_example(2)
    assert g.n == 12 and g.edge_count == 36
    assert all(g.degree(v) == 6 for v in range(12))
    assert vertex_connectivity(g) == 6
    matching = sharpness_matching(2)
    assert len(matching) == 6
    assert all(g.has_edge(*e) for e in matching)
    ends = [w for e in matching for w in e]
    assert len(set(ends)) == 12  # independent edges

    g3 = sharpness_example(3)
    assert g3.n == 24 and all(g3.degree(v) == 12 for v in range(24))
    with pytest.raises(ValueError):
        sharpness_example(1)
