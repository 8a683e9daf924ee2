import itertools
import random
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_forge import graph_core
from rigidity_forge.constructions import RULE_B, RULE_C, build_gpi, harary_graph
from rigidity_forge.graph_core import (
    Graph,
    GraphFormatWarning,
    GraphParseError,
    _bits,
    _non_adjacent_pair,
    as_vertex_set,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    iter_maximal_cliques,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_avoiding,
    vertex_connectivity,
)

from helpers import (
    brute_maximal_cliques,
    brute_vertex_connectivity,
    graph6,
    is_clique,
    maximal_cliques,
    neighbors,
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
    # duplicates interleaved with 10 distinct edges, either way round
    pairs = list(itertools.combinations(range(5), 2))
    mixed = [e for u, v in pairs for e in ((u, v), (v, u), pairs[0])]
    assert Graph(5, mixed).edge_count == 10
    with pytest.raises(ValueError, match="11 edges exceed the limit of 10"):
        Graph(6, mixed + [(0, 1), (5, 0)])
    pairs = itertools.combinations(range(100), 2)
    with pytest.raises(ValueError, match="11 edges exceed the limit of 10"):
        Graph(100, pairs)
    assert next(pairs) == (0, 12)  # the rest of the 4,950 pairs was never drawn


def test_graph_dedups_and_normalizes():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert [g.neighbor_mask(v) for v in range(3)] == [0b010, 0b101, 0b010]
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    # a mask read without a range check would take -1 as the last vertex or
    # shift by a negative count
    assert not any(g.has_edge(u, v) for u, v in [(1, 1), (-1, 1), (1, -2), (1, 3), (3, 1), (0, 2)])
    shuffled = Graph(3, [(2, 1), (1, 2), (0, 1), (1, 2)])
    assert shuffled == g and hash(shuffled) == hash(g)
    assert g != Graph(3, [(0, 1)]) and g != Graph(4, [(0, 1), (1, 2)])


def test_neighbor_masks_and_degrees_match_the_edge_set():
    rng = random.Random(35)
    for _ in range(200):
        n, density = rng.randint(0, 40), rng.uniform(0.0, 1.0)
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        assert g.sorted_edges() == tuple(edges)
        for v in range(g.n):
            want = sorted({*(a for a, b in edges if b == v), *(b for a, b in edges if a == v)})
            assert _bits(g.neighbor_mask(v)) == want
            assert g.degree(v) == len(want)


def test_graph_keeps_one_adjacency():
    # the 6,000 edges of Harary(6, 2000): one neighbour bitmask per vertex
    # and the sorted edge tuple retain 0.7 MB; a frozenset of neighbours per
    # vertex besides an edge set and the bitmasks took it to 1.8 MB
    edges = list(harary_graph(6, 2000).sorted_edges())
    tracemalloc.start()
    try:
        g = Graph(2000, edges)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 6000
    assert retained <= 1.2 * 2**20, retained


def test_sorted_edges_is_one_cached_tuple():
    g = Graph(4, [(3, 2), (0, 1), (1, 3)])
    assert g.sorted_edges() == ((0, 1), (1, 3), (2, 3))
    assert g.sorted_edges() is g.sorted_edges()
    assert Graph(0).sorted_edges() == ()


def test_non_adjacent_pair_is_none_exactly_on_cliques():
    g = complete_graph(4).remove_edges([(0, 1)])
    assert _non_adjacent_pair(g, 0b1101) is None
    assert _non_adjacent_pair(g, 0b1100) is None
    assert _non_adjacent_pair(g, 0b0111) == (0, 1)
    assert _non_adjacent_pair(g, 0) is None
    assert _non_adjacent_pair(g, 0b0010) is None


def least_non_adjacent_pair(g, vertices):
    return next(((a, b) for a, b in itertools.combinations(sorted(vertices), 2)
                 if not g.has_edge(a, b)), None)


def test_non_adjacent_pair_is_the_least_and_is_gpis_rule_c_witness():
    rng = random.Random(33)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.3, 1.0))
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        assert _non_adjacent_pair(g, sum(1 << v for v in vs)) == least_non_adjacent_pair(g, vs)
        order = rng.sample(range(g.n), g.n)
        for step in build_gpi(g, 2, order).steps:
            back = neighbors(g, step.vertex) & set(order[:step.position])
            if step.rule == RULE_C:
                assert step.nonadjacent_pair == least_non_adjacent_pair(g, back)
            elif step.rule == RULE_B:
                assert least_non_adjacent_pair(g, back) is None


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
    assert g.n == 3 and g.sorted_edges() == ((0, 1),)
    with warnings.catch_warnings(record=True) as caught:  # one warning counts them all
        warnings.simplefilter("always")
        g = parse_edge_list("3 2\n0 1\n1 0\n\n0 1\n1 2\n2 1")
    assert g.sorted_edges() == ((0, 1), (1, 2))
    assert [str(w.message) for w in caught] == ["duplicate edges dropped: 3"]


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


@pytest.mark.parametrize("text, message", [
    ("3 1\n\n1 1", "line 3: self-loop at vertex 1"),
    ("3 2\n0 1\n2 7", "line 3: edge (2,7) out of range for n=3"),
    ("3 1\n-1 2\n0 1", "line 2: edge (-1,2) out of range for n=3"),
    ("4 2\n0 1\n1 0\n0 2\n0 3", "line 5: 3 edges exceed the limit of 2"),
    # the header is refused before the malformed line after it is read
    ("\n3 3\n0 1\nnot an edge", "line 2: 3 edges exceed the limit of 2"),
    ("20001 0\n0 0", "line 1: 20001 vertices exceed the limit of 20000"),
], ids=["self-loop", "out of range", "negative endpoint", "edge budget",
        "header over the edge budget", "header over the vertex limit"])
def test_refusals_name_their_input_line(monkeypatch, text, message):
    monkeypatch.setattr(graph_core, "MAX_EDGES", 2)
    with pytest.raises(GraphParseError) as refused:
        parse_edge_list(text)
    assert str(refused.value) == message


LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_header_refusal_reads_no_further_line():
    # 100,000 edge lines (1.2 MB of text) after a header over the edge
    # budget: a list of the lines would take 6.5 MB, whatever breaks them
    for eol in LINE_BREAKS:
        text = f"20000 500001{eol}" + "".join(f"{i} {i + 1}{eol}" for i in range(100_000))
        tracemalloc.start()
        try:
            with pytest.raises(GraphParseError, match="line 1: 500001 edges exceed"):
                parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (eol, peak)


def parse_outcome(text: str):
    """The graph and warnings parse_edge_list gives for text, or its message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse_edge_list(text)
        except GraphParseError as exc:
            return str(exc)
    return g, [str(w.message) for w in caught]


LINE_PIECES = ["0", "1", "2", "3", "9", " ", "\t", "-", "x", "\x1f", "\xa0", *LINE_BREAKS]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["", "3 2", "4 3 ", " 4 6", "3 x"]), st.lists(st.sampled_from(LINE_PIECES)))
def test_edge_list_lines_break_where_splitlines_breaks(header, pieces):
    text = header + "".join(pieces)
    assert parse_outcome(text) == parse_outcome("\n".join(text.splitlines()))


def test_graph6_padding_bits_are_ignored():
    rng = random.Random(6)
    for n in (2, 3, 4, 5, 7, 11, 64, 70):
        g = random_graph(rng, n, 0.5)
        text = graph6(n, g.sorted_edges())
        assert parse_graph6(text) == g
        spare = -(n * (n - 1) // 2) % 6  # padding bits in the last byte
        for padding in range(1, 1 << spare):
            padded = graph6(n, g.sorted_edges(), padding)
            assert padded != text and parse_graph6(padded) == g


def test_graph6_streams_its_bits_into_the_graph():
    # the empty 5,000-vertex graph is 2.1 MB of graph6; a bit list of its
    # 12.5 million pairs would take about 100 MB
    text = graph6(5000, [])
    tracemalloc.start()
    try:
        g = parse_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.edge_count) == (5000, 0)
    assert peak < 16 * 2**20, peak


def test_parse_graph6_known_encodings():
    # frozen against the standard encoder: K4 = "C~", C4 = "Cl", K33 = "EFz_"
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("Cl") == cycle_graph(4)
    assert parse_graph6(">>graph6<<EFz_") == complete_bipartite_graph(3, 3)


@pytest.mark.parametrize("text, message", [
    (">>graph6<<", "empty graph6 payload"),
    (">>graph6<<C~ x", "invalid graph6 byte"),
])
def test_graph6_refuses_an_empty_payload_and_bytes_outside_its_alphabet(text, message):
    with pytest.raises(GraphParseError, match=message):
        parse_graph(text)


def test_cycle_graph_refuses_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        cycle_graph(2)


def test_parse_graph_autodetects_format():
    assert parse_graph("C~") == complete_graph(4)
    assert parse_graph(">>graph6<<C~") == complete_graph(4)
    assert parse_graph("3 3\n0 1\n1 2\n0 2") == complete_graph(3)


@pytest.mark.parametrize("text", ["", " ", "\n", "\r\n", "\t\v\f", "\x1c\x85", "\u2028"])
def test_blank_text_is_refused_as_empty_input(text):
    # a blank text has no first byte to autodetect by: the edge-list reader refuses it
    with pytest.raises(GraphParseError, match="^line 1: empty input$"):
        parse_graph(text)


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
            h.add_edges_from(g.sorted_edges())
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
        h.add_edges_from(g.sorted_edges())
        kappa = nx.node_connectivity(h)
        seen.add(kappa)
        delta = min(g.degree(v) for v in range(n))
        for limit in (None, 1, 2, 3, delta):
            want = kappa if limit is None else min(kappa, limit)
            assert vertex_connectivity(g, limit) == want, (g.sorted_edges(), limit)
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


def test_maximal_cliques_fuzz_against_oracle():
    rng = random.Random(99)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert maximal_cliques(g) == brute_maximal_cliques(g)


def test_maximal_cliques_properties():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, 9, 0.6)
        cliques = maximal_cliques(g)
        assert all(is_clique(g, c) for c in cliques)
        sets = [set(c) for c in cliques]
        assert not any(a < b for a in sets for b in sets)


def test_maximal_cliques_match_networkx_on_larger_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for n, density in ((30, 0.8), (40, 0.1), (50, 0.6), (60, 0.3), (80, 0.5), (80, 0.15)):
        g = random_graph(rng, n, density)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.sorted_edges())
        expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(h))
        assert maximal_cliques(g) == expected, (n, density)


def test_iter_maximal_cliques_is_lazy():
    # the complement of 15 disjoint triangles has 3**15 maximal cliques
    n = 45
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3])
    first = list(itertools.islice(iter_maximal_cliques(g), n + 1))
    assert len(set(first)) == n + 1
    assert all(len(c) == 15 and is_clique(g, c) and list(c) == sorted(c) for c in first)


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
    assert sub.sorted_edges() == ((0, 2),)  # the original edge {4,0} relabeled

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
        list(k5.sorted_edges())
        + [(5 + u, 5 + v) for u, v in k5.sorted_edges()]
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


def test_path_avoiding_rejects_an_endpoint_out_of_range():
    for u, v in ((0, 3), (-1, 2)):
        with pytest.raises(ValueError, match="endpoint out of range"):
            path_avoiding(complete_graph(3), u, v, [0])


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
    assert as_vertex_set([3, 1, 1, 2], 4) == (1, 2, 3)
    with pytest.raises(ValueError):
        as_vertex_set([0, 4], n=4)
    with pytest.raises(ValueError):
        as_vertex_set([-1], 4)


def test_disconnected_graphs_have_connectivity_zero():
    # no separate connectivity test: a non-neighbour of the minimum-degree
    # vertex in another component settles its pair, and with it κ, at 0
    k5 = complete_graph(5).sorted_edges()
    graphs = [Graph(3, [(0, 1)]), Graph(2), Graph(10, [*k5, *((u + 5, v + 5) for u, v in k5)])]
    for g in graphs:
        for limit in (None, 1, 3):
            assert vertex_connectivity(g, limit) == 0
