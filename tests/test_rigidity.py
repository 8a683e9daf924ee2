import itertools
import random
from math import comb

import pytest

from rigidity_forge.constructions import lovasz_yemini_family, sharpness_example, sharpness_matching
from rigidity_forge.experiments import exact_generic_rank
from rigidity_forge.graph_core import Graph, complete_graph, cycle_graph, vertex_connectivity
from rigidity_forge.modlinalg import DEFAULT_PRIME, RowBasis, make_rng, rank_of_rows
from rigidity_forge.rigidity import (
    Cover,
    cover_rank_bound,
    generic_rank,
    generic_rank_cap,
    is_independent,
    is_linked,
    is_rigid,
    is_t_redundantly_rigid,
    placements,
)

from helpers import random_graph

P = DEFAULT_PRIME


# -- rigidity matrix -------------------------------------------------------


def first_placement(g, d, seed):
    rows, _ = next(placements(g, d, 1, seed, P))
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
    assert rank_of_rows(rows, 6, P) == 3  # the cap 2*3 - 3


def test_placements_draw_fresh_points_per_trial():
    g = complete_graph(3)
    (first, _), (second, _) = placements(g, 2, 2, 7, P)
    assert first != second
    with pytest.raises(ValueError):
        next(placements(g, 2, 0, 7, P))


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


def test_generic_rank_is_seed_reproducible():
    g = random_graph(random.Random(6), 7, 0.5)
    assert generic_rank(g, 2, seed=42) == generic_rank(g, 2, seed=42)


def test_generic_rank_rejects_bad_params():
    with pytest.raises(ValueError):
        generic_rank(complete_graph(3), 2, trials=0)
    with pytest.raises(ValueError):
        generic_rank(complete_graph(3), 0)


# -- verdicts ----------------------------------------------------------------


def test_is_independent():
    rng = random.Random(9)
    for d in (1, 2, 3):
        g = random_graph(rng, d + 1, 0.8)
        assert is_independent(g, d).value  # any graph on <= d+1 vertices
    v = is_independent(complete_graph(5), 3)
    assert not v.value and v.confidence == "whp"
    v = is_independent(cycle_graph(4), 2)
    assert v.value and v.confidence == "certain"


def test_is_rigid_examples():
    assert is_rigid(complete_graph(4), 2).value
    assert not is_rigid(cycle_graph(4), 2).value
    ly, _ = lovasz_yemini_family(2, 8)
    assert not is_rigid(ly, 2).value


def test_is_rigid_small_vertex_conventions():
    assert is_rigid(Graph(0), 2).value
    assert is_rigid(Graph(1), 2).value
    assert is_rigid(complete_graph(3), 2).value
    assert not is_rigid(Graph(3, [(0, 1)]), 2).value  # n <= d+1, not complete
    assert is_rigid(Graph(2, [(0, 1)]), 3).value


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
        g2 = g.add_edge(*e)
        rows = first_placement(g2, 2, seed=rng.randrange(2**32))
        uv_row = rows.pop(g2.sorted_edges().index(e))
        basis = RowBasis(P)
        for row in rows:
            basis.add(row)
        r1 = basis.rank
        r2 = r1 + (not basis.in_span(uv_row))
        assert r1 == rank_of_rows(rows, 2 * g.n, P)
        assert r2 == rank_of_rows(rows + [uv_row], 2 * g.n, P)
        assert r1 <= r2 <= r1 + 1


# -- redundant rigidity ------------------------------------------------------


def test_redundancy_examples():
    k4 = complete_graph(4)
    assert is_t_redundantly_rigid(k4, 2, 1).value  # plain rigidity
    assert is_t_redundantly_rigid(k4, 2, 2).value  # every K4-e is still rigid
    with pytest.raises(ValueError):
        is_t_redundantly_rigid(k4, 2, 8)  # t-1 exceeds |E|
    with pytest.raises(ValueError):
        is_t_redundantly_rigid(k4, 2, 0)


def test_redundancy_small_vertex_cases():
    assert is_t_redundantly_rigid(complete_graph(3), 2, 1).value
    rep = is_t_redundantly_rigid(complete_graph(3), 2, 2)
    assert not rep.value and rep.witness is not None


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


def test_sharpness_redundancy_witness():
    g = sharpness_example(2)
    rep = is_t_redundantly_rigid(g, 2, 5, trials=1)
    assert not rep.value
    assert rep.witness == sharpness_matching(2)[:4]


# -- cover bound -------------------------------------------------------------


def test_cover_rank_bound_examples():
    ly, cover = lovasz_yemini_family(2, 8)
    assert cover_rank_bound(ly, 2, cover) == 76

    k6 = complete_graph(6)
    trivial = Cover(tuple(k6.sorted_edges()), ())
    assert cover_rank_bound(k6, 2, trivial) == k6.edge_count

    one_part = Cover((), (tuple(k6.sorted_edges()),))
    assert cover_rank_bound(k6, 2, one_part) == 9


def test_cover_rank_bound_validation():
    k4 = complete_graph(4)
    with pytest.raises(ValueError, match="union"):
        cover_rank_bound(k4, 2, Cover(((0, 1),), ()))
    with pytest.raises(ValueError, match="part spans"):
        bad = Cover(tuple(e for e in k4.sorted_edges() if e != (0, 1)), (((0, 1),),))
        cover_rank_bound(k4, 2, bad)


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
        cover = Cover(loose, tuple(parts))
        assert cover_rank_bound(g, 2, cover) >= generic_rank(g, 2).rank
