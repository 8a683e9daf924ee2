"""Graph constructions: the ordered-subgraph builder and the clique-split
families used for connectivity-versus-rigidity bounds."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

from .graph_core import Edge, Graph, _bits, _non_adjacent_pair, check_size

RULE_FIRST = "first-d-vertices"
RULE_A = "a"
RULE_B = "b"
RULE_C = "c"


class GpiStep(NamedTuple):
    """Per-vertex trace of the ordered construction."""

    position: int
    vertex: int
    backdeg: int
    rule: str
    chosen: tuple[int, ...]
    nonadjacent_pair: tuple[int, int] | None


class GpiResult(NamedTuple):
    subgraph: Graph
    steps: tuple[GpiStep, ...]

    @property
    def edge_count(self) -> int:
        return self.subgraph.edge_count


def build_gpi(g: Graph, d: int, ordering: Sequence[int]) -> GpiResult:
    """Process vertices in order, keeping a bounded set of backward edges.

    A vertex with at most d earlier neighbors keeps them all; with more, it
    keeps its d least earlier neighbors when the earlier neighborhood is a
    clique, and otherwise d+1 of them: the lexicographically least
    non-adjacent pair plus the d-1 least other earlier neighbors.  Requires
    d >= 2.
    """
    if d < 2:
        raise ValueError("ordered construction requires dimension >= 2")
    order = [int(v) for v in ordering]
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of range(n)")
    placed = 0
    edges: list[Edge] = []
    steps: list[GpiStep] = []
    for i, v in enumerate(order):
        back_mask = g.neighbor_mask(v) & placed
        back = _bits(back_mask)
        k = len(back)
        pair = None
        if k <= d:
            rule = RULE_FIRST if i < d else RULE_A
            chosen = tuple(back)
        elif (pair := _non_adjacent_pair(g, back_mask)) is None:
            rule = RULE_B
            chosen = tuple(back[:d])
        else:
            rule = RULE_C
            x, y = pair
            rest = [w for w in back if w != x and w != y]
            chosen = tuple(sorted([x, y, *rest[: d - 1]]))
        edges.extend((v, w) for w in chosen)
        steps.append(GpiStep(i, v, k, rule, chosen, pair))
        placed |= 1 << v
    return GpiResult(Graph(g.n, edges), tuple(steps))


def harary_graph(k: int, s: int) -> Graph:
    """The circulant-style k-connected k-regular graph on s vertices."""
    if not 2 <= k < s:
        raise ValueError("need 2 <= k < s")
    if (k * s) % 2:
        raise ValueError("k*s must be even")
    check_size(s, k * s // 2)
    edges = ((i, (i + j) % s) for i in range(s) for j in range(1, k // 2 + 1))
    if k % 2:
        edges = itertools.chain(edges, ((i, i + s // 2) for i in range(s // 2)))
    return Graph(s, edges)


def lovasz_yemini_family(d: int, s: int) -> Graph:
    """Split-vertex family: highly connected but rank-deficient for large s.

    Every vertex of the k-regular k-connected :func:`harary_graph` on s
    vertices (k = d(d+1)-1) blows up into a k-clique; each of its edges
    becomes a single "split" edge using one fresh clique vertex per endpoint.
    """
    if d < 2:
        raise ValueError("family needs dimension >= 2")
    k = d * (d + 1) - 1
    if s < k + 1:
        raise ValueError(f"need s >= {k + 1}")
    if (k * s) % 2:
        raise ValueError("k*s must be even")
    check_size(k * s, k * s // 2 + s * (k * (k - 1) // 2))
    next_free = [v * k for v in range(s)]
    edges: list[Edge] = []
    for a, b in harary_graph(k, s).sorted_edges():
        edges.append((next_free[a], next_free[b]))
        next_free[a] += 1
        next_free[b] += 1
    for v in range(s):
        edges.extend(itertools.combinations(range(v * k, v * k + k), 2))
    return Graph(k * s, edges)


def sharpness_example(d: int) -> Graph:
    """Two complete graphs on d(d+1) vertices joined by a perfect matching."""
    if d < 2:
        raise ValueError("needs dimension >= 2")
    dd = d * (d + 1)
    check_size(2 * dd, dd * dd)
    cliques = ((block + i, block + j)
               for block in (0, dd) for i in range(dd) for j in range(i + 1, dd))
    return Graph(2 * dd, itertools.chain(cliques, ((i, i + dd) for i in range(dd))))


def sharpness_matching(d: int) -> tuple[Edge, ...]:
    """The d(d+1) independent edges joining the two blocks."""
    dd = d * (d + 1)
    return tuple((i, i + dd) for i in range(dd))
