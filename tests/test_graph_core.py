import itertools
import random
import sys

import pytest

from rigidity_forge import graph_core
from rigidity_forge.graph_core import (
    Graph,
    GraphFormatWarning,
    GraphParseError,
    as_vertex_set,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    iter_maximal_cliques,
    maximal_cliques,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_avoiding,
    vertex_connectivity,
)

from helpers import (
    brute_maximal_cliques,
    brute_vertex_connectivity,
    random_graph,
    random_regular_graph,
)


# -- Graph basics ----------------------------------------------------------


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_refuses_more_vertices_than_its_limit():
    # just past the limit, so that a build without the check stays small;
    # tests/test_cli.py sends 10^8 to a child with a capped address space
    assert Graph(graph_core.MAX_VERTICES).n == graph_core.MAX_VERTICES
    with pytest.raises(ValueError, match="20001 vertices exceed the limit of 20000"):
        Graph(graph_core.MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="20001 vertices exceed"):
        parse_graph("20001 0\n")


def test_graph_refuses_edges_past_its_budget_as_they_arrive(monkeypatch):
    monkeypatch.setattr(graph_core, "MAX_EDGES", 10)
    assert Graph(5, itertools.combinations(range(5), 2)).edge_count == 10
    assert Graph(5, [(0, 1)] * 20).edge_count == 1  # a repeated edge is one edge
    pairs = itertools.combinations(range(100), 2)
    with pytest.raises(ValueError, match="11 edges exceed the limit of 10"):
        Graph(100, pairs)
    assert next(pairs) == (0, 12)  # the rest of the 4,950 pairs was never drawn


def test_graph_dedups_and_normalizes():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(1) == 2


def test_sorted_edges_is_one_cached_tuple():
    g = Graph(4, [(3, 2), (0, 1), (1, 3)])
    assert g.sorted_edges() == ((0, 1), (1, 3), (2, 3))
    assert g.sorted_edges() is g.sorted_edges()
    assert Graph(0).sorted_edges() == ()


def test_is_clique():
    g = complete_graph(4).remove_edges([(0, 1)])
    assert g.is_clique([0, 2, 3])
    assert g.is_clique([2, 3])
    assert not g.is_clique([0, 1, 2])
    assert g.is_clique([])
    assert g.is_clique([1])


# -- parsing ---------------------------------------------------------------


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g == complete_graph(3)


def test_parse_empty_graph():
    g = parse_edge_list("2 0")
    assert g.n == 2 and g.edge_count == 0


def test_parse_duplicate_edge_warns_and_dedups():
    with pytest.warns(GraphFormatWarning):
        g = parse_edge_list("3 2\n0 1\n0 1")
    assert g.n == 3 and g.edges == frozenset({(0, 1)})


def test_parse_errors_name_line_numbers():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("3 1\n0 x")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("3 2\n0 1\n0 7")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("3 1\n1 1")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("nonsense")
    with pytest.raises(GraphParseError):
        parse_edge_list("")


def test_parse_graph6_known_encodings():
    # frozen against the standard encoder: K4 = "C~", C4 = "Cl", K33 = "EFz_"
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("Cl") == cycle_graph(4)
    assert parse_graph6(">>graph6<<EFz_") == complete_bipartite_graph(3, 3)


def test_parse_graph_autodetects_format():
    assert parse_graph("C~") == complete_graph(4)
    assert parse_graph(">>graph6<<C~") == complete_graph(4)
    assert parse_graph("3 3\n0 1\n1 2\n0 2") == complete_graph(3)


def test_edge_list_round_trip_is_canonical():
    g = complete_bipartite_graph(2, 3)
    text = g.to_edge_list()
    assert parse_graph(text) == g
    assert parse_graph(text).to_edge_list() == text
    assert text.startswith("5 6\n")


# -- connectivity ----------------------------------------------------------


@pytest.mark.parametrize(
    "g,kappa",
    [
        (complete_graph(5), 4),
        (cycle_graph(6), 2),
        (complete_graph(1), 0),
        (Graph(0), 0),
        (Graph(4, [(0, 1), (2, 3)]), 0),
        (complete_bipartite_graph(3, 5), 3),
        (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 1),
        # cut vertex 3: both 3-paths 0-1-3-x and 0-2-3-x must not be routed
        (Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]), 1),
    ],
)
def test_vertex_connectivity_known(g, kappa):
    assert vertex_connectivity(g) == kappa


def test_vertex_connectivity_fuzz_against_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_vertex_connectivity_matches_networkx_on_larger_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for n in (30, 40, 50, 60):
        for density in (0.15, 0.5):
            g = random_graph(rng, n, density)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            assert vertex_connectivity(g) == nx.node_connectivity(h), (n, density)


def test_connectivity_at_most_min_degree():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        if g.is_complete():
            continue
        assert vertex_connectivity(g) <= min(g.degree(v) for v in range(g.n))


def test_vertex_connectivity_with_a_limit_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    seen = set()
    for i in range(150):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.uniform(0.15, 0.95))
        if i % 2 and n >= 6:  # two dense halves sharing a few vertices: kappa below delta
            shared = rng.randint(1, 3)
            halves = (range(n // 2 + shared), range(n // 2, n))
            g = Graph(n, [(u, v) for half in halves for u, v in itertools.combinations(half, 2)
                          if rng.random() < 0.8])
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        kappa = nx.node_connectivity(h)
        seen.add(kappa)
        delta = min(g.degree(v) for v in range(n))
        for limit in (None, 1, 2, 3, delta):
            want = kappa if limit is None else min(kappa, limit)
            assert vertex_connectivity(g, limit) == want, (g.edges, limit)
    assert seen >= set(range(7))
    assert vertex_connectivity(complete_graph(6), 3) == 3
    assert vertex_connectivity(complete_graph(6), 9) == 5
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)]), 3) == 0


def test_dense_graph_settles_its_pairs_by_matching(monkeypatch):
    settled = []
    matching = graph_core._matching

    def spy_matching(g, left, right, want):
        mate = matching(g, left, right, want)
        settled.append(len(mate) >= want)
        return mate

    monkeypatch.setattr(graph_core, "_matching", spy_matching)
    g = random_regular_graph(random.Random(48), 48, 24)
    assert vertex_connectivity(g) == 24
    assert len(settled) >= 150 and settled.count(False) <= len(settled) // 50
    settled.clear()
    assert vertex_connectivity(cycle_graph(12)) == 2
    assert settled.count(False) > 1  # these pairs need the augmenting-path search


def _sparse_graphs(nx, rng):
    """Sparse families, where the augmenting-path search does most of the work."""
    for i in range(160):
        seed = rng.randrange(1 << 30)
        kind = i % 4
        if kind == 0:
            h = nx.gnp_random_graph(rng.randint(8, 24), rng.uniform(0.08, 0.3), seed=seed)
        elif kind == 1:
            h = nx.random_regular_graph(rng.choice((3, 4)), 2 * rng.randint(4, 11), seed=seed)
        elif kind == 2:
            a, b = rng.randint(3, 5), rng.randint(3, 5)
            h = nx.convert_node_labels_to_integers(nx.grid_2d_graph(a, b))
            h.add_edges_from(rng.sample(range(a * b), 2) for _ in range(rng.randint(0, 5)))
        else:
            h = nx.watts_strogatz_graph(rng.randint(8, 24), rng.choice((2, 4)),
                                        rng.uniform(0.1, 0.5), seed=seed)
        yield h


def test_local_connectivity_matches_networkx_on_sparse_graphs():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(24)
    seen = set()
    for h in _sparse_graphs(nx, rng):
        n = h.number_of_nodes()
        g = Graph(n, h.edges)
        apart = [(u, v) for u, v in itertools.combinations(range(n), 2) if not h.has_edge(u, v)]
        for s, t in rng.sample(apart, min(4, len(apart))):
            want = local_node_connectivity(h, s, t)
            seen.add(want)
            assert graph_core._local_vertex_connectivity(g, s, t, n) == want, (h.edges, s, t)
        assert vertex_connectivity(g) == nx.node_connectivity(h), h.edges
    assert seen >= {0, 1, 2, 3, 4}


def test_local_connectivity_cuts_out_the_common_neighbours():
    # s = 1 and t = 2 share their one neighbour 0, whose path s-0-t is taken:
    # a search that may enter 0 again routes a second path through it
    g = Graph(3, [(0, 1), (0, 2)])
    assert graph_core._local_vertex_connectivity(g, 1, 2, 3) == 1


def test_local_connectivity_backs_up_along_a_path():
    # the first search takes the one shortest path 1-2-5-9-10; the second
    # reaches 9 by 1-0-4-7-8 and goes on only by undoing 2-5-9: from out(5)
    # back through in(5) to out(2), then by 3-11-6 to 10
    g = Graph(12, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 5), (3, 11), (6, 11), (6, 10), (4, 7),
                   (7, 8), (8, 9), (5, 9), (9, 10)])
    assert graph_core._local_vertex_connectivity(g, 1, 10, 12) == 2


# -- cliques ---------------------------------------------------------------


def test_maximal_cliques_known():
    assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert maximal_cliques(complete_graph(4).remove_edges([(0, 1)])) == [
        (0, 2, 3),
        (1, 2, 3),
    ]
    assert maximal_cliques(Graph(0)) == []
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(cycle_graph(5), [4, 0, 2]) == [(0, 4), (2,)]
    assert maximal_cliques(complete_graph(4), []) == []
    for bad in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            maximal_cliques(complete_graph(4), bad)


def test_maximal_cliques_fuzz_against_oracle():
    rng = random.Random(99)
    pick = random.Random(100)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert maximal_cliques(g) == brute_maximal_cliques(g)
        subsets = [[], [pick.randrange(g.n)], range(g.n)]
        subsets.append(pick.sample(range(g.n), pick.randint(0, g.n)))
        for vs in subsets:
            sub, mapping = induced_subgraph(g, vs)
            expected = [tuple(mapping[i] for i in c) for c in maximal_cliques(sub)]
            assert maximal_cliques(g, vs) == expected, (g.edges, vs)


def test_maximal_cliques_properties():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, 9, 0.6)
        cliques = maximal_cliques(g)
        assert all(g.is_clique(c) for c in cliques)
        sets = [set(c) for c in cliques]
        assert not any(a < b for a in sets for b in sets)


def test_maximal_cliques_match_networkx_on_larger_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for n, density in ((30, 0.8), (40, 0.1), (50, 0.6), (60, 0.3), (80, 0.5), (80, 0.15)):
        g = random_graph(rng, n, density)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(h))
        assert maximal_cliques(g) == expected, (n, density)


def test_iter_maximal_cliques_is_lazy():
    # the complement of 15 disjoint triangles has 3**15 maximal cliques
    n = 45
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3])
    first = list(itertools.islice(iter_maximal_cliques(g), n + 1))
    assert len(set(first)) == n + 1
    assert all(len(c) == 15 and g.is_clique(c) and list(c) == sorted(c) for c in first)


def test_maximal_cliques_deeper_than_recursion_limit():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = depth + 100
    n = limit + 50  # K_n minus an edge has two maximal cliques of n-1 vertices
    g = complete_graph(n).remove_edges([(0, n - 1)])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        cliques = maximal_cliques(g)
    finally:
        sys.setrecursionlimit(saved)
    assert cliques == [tuple(range(n - 1)), tuple(range(1, n))]


# -- induced subgraphs -----------------------------------------------------


def test_induced_subgraph_examples():
    sub, mapping = induced_subgraph(complete_graph(4), [0, 1, 2])
    assert sub == complete_graph(3) and mapping == (0, 1, 2)

    sub, mapping = induced_subgraph(cycle_graph(5), [0, 2, 4])
    assert mapping == (0, 2, 4)
    assert sub.edges == frozenset({(0, 2)})  # the original edge {4,0} relabeled

    sub, mapping = induced_subgraph(complete_graph(4), [])
    assert sub.n == 0 and mapping == ()


def test_induced_subgraph_full_set_is_identity():
    rng = random.Random(17)
    g = random_graph(rng, 7, 0.4)
    sub, mapping = induced_subgraph(g, range(7))
    assert sub == g and mapping == tuple(range(7))


def test_induced_subgraph_range_errors():
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [0, 5])


# -- path queries ----------------------------------------------------------


def test_path_avoiding_examples():
    path3 = Graph(3, [(0, 1), (1, 2)])  # u=0, w=1, v=2
    assert path_avoiding(path3, 0, 2, [0, 2])
    assert not path_avoiding(path3, 0, 2, [0, 1, 2])

    # two disjoint cliques, u,v in one, plus an external 2-path u-z-v
    k5 = complete_graph(5)
    g = Graph(
        11,
        list(k5.edges)
        + [(5 + u, 5 + v) for u, v in k5.edges]
        + [(0, 10), (1, 10)],
    )
    assert path_avoiding(g, 0, 1, [0, 1, 2, 3, 4])
    # without the clique edge and the detour there is no admissible path
    assert not path_avoiding(
        g.remove_edges([(0, 1), (0, 10)]), 0, 1, [0, 1, 2, 3, 4]
    )


def test_path_avoiding_edge_counts():
    g = complete_graph(3)
    assert path_avoiding(g, 0, 1, [0, 1, 2])


def test_path_avoiding_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        path_avoiding(complete_graph(3), 1, 1, [1])


def test_path_avoiding_monotone_under_shrinking_v0():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng, 8, 0.35)
        u, v = rng.sample(range(8), 2)
        v0 = set(rng.sample(range(8), rng.randint(2, 8))) | {u, v}
        smaller = {u, v} | {w for w in v0 if rng.random() < 0.5}
        if path_avoiding(g, u, v, v0):
            assert path_avoiding(g, u, v, smaller)


def test_as_vertex_set():
    assert as_vertex_set([3, 1, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        as_vertex_set([0, 4], n=4)
    with pytest.raises(ValueError):
        as_vertex_set([-1])


def test_disconnected_graphs_have_connectivity_zero():
    # no separate connectivity test: a non-neighbour of the minimum-degree
    # vertex in another component settles its pair, and with it κ, at 0
    k5 = complete_graph(5).sorted_edges()
    graphs = [Graph(3, [(0, 1)]), Graph(2), Graph(10, [*k5, *((u + 5, v + 5) for u, v in k5)])]
    for g in graphs:
        for limit in (None, 1, 3):
            assert vertex_connectivity(g, limit) == 0
