"""Exact oracles at any size by coning.

G * v is G plus one vertex joined to every vertex.  Coning carries
infinitesimal rigidity and independence one dimension up (Whiteley,
*Structural Topology* 8, 1983): r_{d+1}(G * v) = r_d(G) + |V(G)|, and a pair
of G is linked in R^d iff it is linked in G * v in R^{d+1}.  It carries
generic global rigidity one dimension up too (Connelly & Whiteley,
*Discrete Comput. Geom.* 43, 2010).  On the line every answer is
elementary: the rank is n minus the number of components, a pair is linked
iff it lies in one component, and G is globally rigid iff it is complete or
2-connected on at least 3 vertices.  So the (d-1)-fold cone of any graph has
an exact answer in R^d for rank, rigidity, linked pairs and global rigidity,
at any size.  The line facts come from networkx, never from the package's
own connectivity code.

In the plane a cone's global rigidity goes through 3-connectivity and
redundant rigidity; from R^3 on, through the sampled stress matrix.  Where
no exact answer exists (d = 3 -> 4 on the benchmark's LY(3, 12)), the
metamorphic check rank(G * v, d + 1) = rank(G, d) + n still holds.  Redundancy
is not covered: deleting a cone edge has no counterpart on the line.
"""

import itertools
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_forge.constructions import harary_graph, lovasz_yemini_family
from rigidity_forge.global_rigidity import is_globally_rigid
from rigidity_forge.graph_core import Graph, cycle_graph, parse_graph
from rigidity_forge.rigidity import generic_rank, is_rigid, linked_pairs

nx = pytest.importorskip("networkx")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def cone(g: Graph, times: int = 1) -> Graph:
    """g with `times` new vertices, each joined to every vertex before it."""
    n, edges = g.n, list(g.sorted_edges())
    for _ in range(times):
        edges += [(u, n) for u in range(n)]
        n += 1
    return Graph(n, edges)


class LineFacts:
    """Rank, components and global rigidity of g on the line, from networkx."""

    def __init__(self, g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.sorted_edges())
        self.component = {v: i for i, c in enumerate(nx.connected_components(h)) for v in c}
        self.rank = g.n - nx.number_connected_components(h)
        complete = g.edge_count == comb(g.n, 2)
        self.globally_rigid = complete or (g.n >= 3 and nx.is_biconnected(h))

    def cone_rank(self, d: int) -> int:
        """The rank in R^d of the (d-1)-fold cone: each cone adds the vertex count below it."""
        n = len(self.component)
        return self.rank + sum(n + i for i in range(d - 1))


def assert_cone_verdicts(g: Graph, d: int, pairs) -> None:
    """The (d-1)-fold cone of g in R^d against g's line facts."""
    facts, c = LineFacts(g), cone(g, d - 1)
    assert generic_rank(c, d).rank == facts.cone_rank(d)
    assert is_rigid(c, d).value == (facts.rank == g.n - 1)
    assert is_globally_rigid(c, d).value == facts.globally_rigid
    linked = [facts.component[u] == facts.component[v] for u, v in pairs]
    assert [verdict.value for verdict in linked_pairs(c, d, pairs)] == linked


@st.composite
def small_graphs(draw):
    """A graph on 2..14 vertices with a uniformly drawn number of edges, so
    that disconnected, connected and 2-connected graphs all come up."""
    n = draw(st.integers(2, 14))
    pairs = list(itertools.combinations(range(n), 2))
    count = draw(st.integers(0, len(pairs)))
    return Graph(n, draw(st.permutations(pairs))[:count])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.integers(2, 4))
def test_cones_match_the_line(g, d):
    non_edges = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
    assert_cone_verdicts(g, d, non_edges[:20])


def test_the_double_cone_of_a_1998_cycle_in_r3():
    # 2,000 vertices and 5,995 edges: rigid, and globally rigid since a cycle is 2-connected
    assert_cone_verdicts(cycle_graph(1998), 3, [(0, 2), (5, 1000)])


def metamorphic_graphs():
    """(graph, d) for every distinct graph the seed 1-3 benchmark workloads
    read, LY graphs and Harary graphs."""
    seen = set()
    for seed in (1, 2, 3):
        for inv in workloads.verdicts_and_checks(seed):
            d = int(inv.args[inv.args.index("--dim") + 1]) if "--dim" in inv.args else 2
            if inv.stdin and (inv.stdin, d) not in seen:
                seen.add((inv.stdin, d))
                yield parse_graph(inv.stdin), d
    yield from ((lovasz_yemini_family(d, s), d) for d, s in ((2, 6), (2, 14)))
    yield from ((harary_graph(k, s), d) for k, s, d in ((3, 12, 2), (5, 18, 2), (6, 20, 3), (12, 30, 3)))


def test_one_cone_raises_the_rank_by_the_vertex_count():
    for g, d in metamorphic_graphs():
        assert generic_rank(cone(g), d + 1).rank == generic_rank(g, d).rank + g.n, (g.n, d)
