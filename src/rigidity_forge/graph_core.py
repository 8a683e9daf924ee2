"""Simple undirected graphs plus the structural queries the rigidity layers need.

Vertices are the integers ``0..n-1``.  Graph values are immutable after
construction, so every query here is safe to share across threads.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from itertools import combinations

Edge = tuple[int, int]

GRAPH6_HEADER = ">>graph6<<"

#: The most vertices a Graph takes: its neighbour bitmasks grow quadratically
#: (26-34 MB for a 20,000-vertex path), so a short header cannot claim gigabytes.
MAX_VERTICES = 20_000
#: The most edges a Graph takes.  A CLI call that parses a 20,000-vertex edge
#: list of this many edges peaks at 308 MB (about 600 bytes per edge, CPython
#: 3.11 on x86-64), well inside a 1 GB address space.
MAX_EDGES = 500_000


class GraphParseError(ValueError):
    """Raised when graph input text cannot be parsed."""


class GraphFormatWarning(UserWarning):
    """Non-fatal oddities in graph input (duplicate edges, edge-count mismatch)."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def check_size(n: int, m: int) -> None:
    """Refuse a graph of n vertices and m edges beyond the limits, before it is built."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise ValueError(f"{m} edges exceed the limit of {MAX_EDGES}")


def as_vertex_set(vertices: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Sorted tuple of distinct vertex indices, range-checked against ``n``."""
    out = sorted(set(int(v) for v in vertices))
    if out and out[0] < 0:
        raise ValueError(f"negative vertex index {out[0]}")
    if n is not None and out and out[-1] >= n:
        raise ValueError(f"vertex {out[-1]} out of range for n={n}")
    return tuple(out)


class Graph:
    """Immutable simple graph: no self-loops, no parallel edges.

    Adjacency sets and per-vertex neighbor bitmasks are precomputed once;
    bitmasks make clique tests cheap for the construction routines.  The
    sorted edge tuple is computed on first use and kept.
    """

    __slots__ = ("n", "edges", "_adj", "_mask", "_sorted")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        check_size(n, 0)
        seen: set[Edge] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            seen.add(normalize_edge(u, v))
            if len(seen) > MAX_EDGES:  # refused as the edges arrive, before they fill memory
                check_size(n, len(seen))
        self.n = n
        self.edges = frozenset(seen)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in seen:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(a) for a in adj)
        self._mask = tuple(sum(1 << w for w in a) for a in adj)
        self._sorted: tuple[Edge, ...] | None = None

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[Edge, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.edges))
        return self._sorted

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def neighbor_mask(self, v: int) -> int:
        return self._mask[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """True iff the given vertices are pairwise adjacent."""
        vs = list(vertices)
        mask = 0
        for v in vs:
            mask |= 1 << v
        for v in vs:
            if mask & ~(self._mask[v] | (1 << v)):
                return False
        return True

    # -- derived graphs --------------------------------------------------

    def add_edges(self, new_edges: Iterable[Edge]) -> "Graph":
        return Graph(self.n, list(self.edges) + list(new_edges))

    def remove_edges(self, gone: Iterable[Edge]) -> "Graph":
        drop = {normalize_edge(u, v) for u, v in gone}
        return Graph(self.n, [e for e in self.edges if e not in drop])

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- serialization ---------------------------------------------------

    def to_edge_list(self) -> str:
        """Canonical edge-list text: header line then sorted edges, byte-stable."""
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges())
        return "\n".join(lines) + "\n"


# -- factories -----------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


# -- parsing -------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus one "u v" line per edge.

    Duplicate edges are dropped with a warning; a mismatch between the
    declared and final edge count is also only a warning.  Malformed lines,
    out-of-range endpoints and self-loops raise ``GraphParseError`` carrying
    the offending line number.
    """
    lines = text.splitlines()
    header_no = None
    for idx, raw in enumerate(lines):
        if raw.strip():
            header_no = idx
            break
    if header_no is None:
        raise GraphParseError("line 1: empty input")
    parts = lines[header_no].split()
    if len(parts) != 2:
        raise GraphParseError(f"line {header_no + 1}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {header_no + 1}: non-integer header") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line {header_no + 1}: negative count in header")

    edges: set[Edge] = set()
    for idx in range(header_no + 1, len(lines)):
        raw = lines[idx].strip()
        if not raw:
            continue
        no = idx + 1
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {no}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {no}: non-integer endpoint") from None
        if u == v:
            raise GraphParseError(f"line {no}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {no}: endpoint out of range [0, {n})")
        e = normalize_edge(u, v)
        if e in edges:
            warnings.warn(
                f"line {no}: duplicate edge ({u},{v}) dropped", GraphFormatWarning
            )
        edges.add(e)
    if len(edges) != m:
        warnings.warn(
            f"edge count mismatch: header says {m}, got {len(edges)} after dedup",
            GraphFormatWarning,
        )
    return Graph(n, edges)


def parse_graph6(text: str) -> Graph:
    """Parse a single graph in graph6 format (optional ">>graph6<<" header)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    s = s.strip()
    if not s:
        raise GraphParseError("empty graph6 payload")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise GraphParseError("invalid graph6 byte")
    if data[0] <= 62:
        n, pos = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        pos = 8
    else:
        raise GraphParseError("truncated graph6 size field")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < need:
        raise GraphParseError("truncated graph6 edge bits")
    bits = []
    for b in data[pos : pos + need]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Parse edge-list text, or graph6 when the leading byte says so.

    graph6 is detected by the ">>graph6<<" header or a first byte >= 63
    (edge-list input always starts with a decimal digit).
    """
    stripped = text.lstrip()
    if not stripped:
        raise GraphParseError("line 1: empty input")
    if stripped.startswith(GRAPH6_HEADER) or ord(stripped[0]) >= 63:
        return parse_graph6(text)
    return parse_edge_list(text)


# -- connectivity ----------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    res = []
    while mask:
        b = mask & -mask
        res.append(b.bit_length() - 1)
        mask ^= b
    return res


def _reach(g: Graph, v: int, allowed: int) -> int:
    """The bitmask of vertices that paths from v through the vertex bitmask
    allowed reach, v included."""
    seen = frontier = 1 << v
    while frontier:
        step = 0
        for w in _bits(frontier):
            step |= g._mask[w]
        frontier = step & allowed & ~seen
        seen |= frontier
    return seen


def _matching(g: Graph, left: int, right: int, want: int) -> dict[int, int]:
    """A matching of g between the disjoint vertex bitmasks left and right,
    maximum or of size want, as each matched right vertex's partner: Kuhn's
    algorithm, one augmenting-path search from each left vertex in turn."""
    mate: dict[int, int] = {}
    taken = 0  # the matched right vertices
    for a in _bits(left):
        if len(mate) >= want:
            break
        back, todo, seen, end = {}, [a], 0, -1  # back: each reached vertex -> the one before
        while todo and end < 0:
            x = todo.pop()
            new = g._mask[x] & right & ~seen
            seen |= new
            end = (new & ~taken).bit_length() - 1  # a free right vertex ends the path
            if end < 0:
                for b in _bits(new):
                    back[b], back[mate[b]] = x, b
                    todo.append(mate[b])
        if end >= 0:
            back[end] = x
            taken |= 1 << end
        while end >= 0:  # flip the path back to a
            mate[end] = back[end]
            end = back.get(mate[end], -1)
    return mate


def _local_vertex_connectivity(g: Graph, s: int, t: int, limit: int) -> int:
    """min(limit, max number of internally disjoint s-t paths), s and t
    non-adjacent.

    Each common neighbour w carries the path s-w-t, and a maximum matching
    between the other neighbours of s and of t carries paths s-a-b-t.  Only
    when these fall short of limit do augmenting paths follow, each found by
    a breadth-first search of the split residual graph held on g itself
    (Even, *SIAM J. Comput.* 4, 1975).  Vertex v has an in-side, entered by
    the edges into v, and an out-side, left by the edges out of v; ``pred``
    maps each vertex that carries a path to the vertex before it.  An
    out-side leads to the in-side of every neighbour, and back to its own
    in-side when its vertex carries a path; an in-side leads to its own
    out-side when its vertex is free, else to its predecessor's out-side.
    An edge run against a path's own use of it is not cancelled: ``pred``
    then holds a cycle, still a flow of the split digraph.  The common
    neighbours are cut out, since some maximum set of paths takes every
    s-w-t.
    """
    mask = g._mask
    common = mask[s] & mask[t]
    want = limit - common.bit_count()  # at most 0: the common neighbours suffice
    mate = _matching(g, mask[s] & ~common, mask[t] & ~common, want)
    if len(mate) >= want:
        return limit
    pred: dict[int, int] = {}
    for b, a in mate.items():
        pred[a], pred[b] = s, a
    on_path = sum(1 << v for v in pred)
    for flow in range(limit - want + len(mate), limit):
        succ = {}  # each path vertex whose out-side is reached -> the vertex after it
        outs, ins = [1 << s], []  # the out-sides and in-sides each step reaches first
        seen_out, seen_in = 1 << s, common | 1 << s
        while not seen_in & 1 << t:
            frontier = outs[-1]
            new = frontier & on_path  # back against a path: out(x) -> in(x)
            while frontier:
                x = frontier.bit_length() - 1
                new |= mask[x]
                frontier ^= 1 << x
            new &= ~seen_in
            if not new:
                return flow
            seen_in |= new
            ins.append(new)
            nxt = new & ~on_path  # a free vertex passes to its own out-side
            if new & on_path:
                for y in _bits(new & on_path):  # a path's in-side leads back to its predecessor
                    x = pred[y]
                    succ[x] = y
                    nxt |= 1 << x
            outs.append(nxt & ~seen_out)
            seen_out |= nxt
        y = t
        for i in range(len(ins) - 1, -1, -1):  # the augmenting path, from t back to s
            x = (outs[i] & mask[y]).bit_length() - 1
            if x < 0:
                x = y  # y was reached against its own path, which now bypasses it
                del pred[y]
                on_path ^= 1 << y
            elif y != t:
                pred[y] = x
                on_path |= 1 << y
            y = succ.get(x, x)
    return limit


def vertex_connectivity(g: Graph, limit: int | None = None) -> int:
    """Exact vertex connectivity, or min(connectivity, limit) with a limit.

    Convention: complete graphs have connectivity n-1, disconnected graphs 0.
    Uses the standard candidate-pair scheme around a minimum-degree vertex,
    so only O(n + deg^2) local connectivities are needed; each stops once it
    reaches the smallest value found so far, which starts at the minimum
    degree (or the limit, when lower).  A disconnected graph needs no test of
    its own: some non-neighbour of the minimum-degree vertex lies in another
    component, and that pair settles at 0.
    """
    n = g.n
    if n <= 1:
        return 0
    v = min(range(n), key=g.degree)
    best = g.degree(v) if limit is None else min(g.degree(v), limit)
    pairs = [(v, w) for w in range(n) if w != v and not g.has_edge(v, w)]
    pairs += [(x, y) for x, y in combinations(sorted(g.neighbors(v)), 2) if not g.has_edge(x, y)]
    for s, t in pairs:
        best = _local_vertex_connectivity(g, s, t, best)
    return best


# -- cliques ---------------------------------------------------------------


def iter_maximal_cliques(
    g: Graph, vertices: Iterable[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """The inclusion-maximal cliques of g, or of the subgraph induced on
    ``vertices``, each sorted and in g's own labels, one at a time in the
    search's own order.  A caller that stops early pays only for the
    cliques it took.

    Bron-Kerbosch with pivoting on bitmasks, driven by an explicit stack of
    (clique, candidates, excluded) states, so a deep clique does not recurse.
    Only states with candidates are pushed: one without is settled where it
    is made, as a maximal clique when nothing is excluded.  Isolated vertices
    yield singleton cliques; an empty vertex set yields no cliques.
    """
    if vertices is None:
        start = (1 << g.n) - 1
    else:
        start = sum(1 << v for v in as_vertex_set(vertices, g.n))
    if not start:
        return
    masks = g._mask
    stack = [(0, start, 0)]
    while stack:
        r, p, x = stack.pop()
        pivot = -1
        best = -1
        rest = p | x
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            c = (p & masks[u]).bit_count()
            if c > best:
                best, pivot = c, u
        for v in _bits(p & ~masks[pivot]):
            vb = 1 << v
            p_v = p & masks[v]
            if p_v:
                stack.append((r | vb, p_v, x & masks[v]))
            elif not x & masks[v]:
                yield tuple(_bits(r | vb))
            p ^= vb
            x |= vb


def maximal_cliques(g: Graph, vertices: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """All of :func:`iter_maximal_cliques`, in lexicographic order."""
    return sorted(iter_maximal_cliques(g, vertices))


# -- subgraphs and paths ---------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabeled 0..k-1 in sorted order.

    Returns the subgraph together with the relabeling: entry i of the map is
    the original label of new vertex i.
    """
    vs = as_vertex_set(vertices, g.n)
    index = {old: new for new, old in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(vs), edges), vs


def path_avoiding(g: Graph, u: int, v: int, v0: Iterable[int]) -> bool:
    """True iff some u-v path has all internal vertices outside ``v0``.

    The edge uv itself counts.  BFS over (V minus v0) plus {u, v}.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint out of range")
    blocked = sum(1 << w for w in as_vertex_set(v0, g.n)) & ~(1 << u | 1 << v)
    return bool(_reach(g, u, (1 << g.n) - 1 & ~blocked) >> v & 1)
