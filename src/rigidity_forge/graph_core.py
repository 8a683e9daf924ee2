"""Simple undirected graphs plus the structural queries the rigidity layers need.

Vertices are the integers ``0..n-1``.  Graph values are immutable after
construction, so every query here is safe to share across threads.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from itertools import combinations
from math import isqrt

Edge = tuple[int, int]

GRAPH6_HEADER = ">>graph6<<"

#: The most vertices a Graph takes: its neighbour bitmasks grow quadratically
#: (25 MB for a 20,000-vertex path), so a short header cannot claim gigabytes.
MAX_VERTICES = 20_000
#: The most edges a Graph takes.  A CLI call that parses a 20,000-vertex edge
#: list of this many edges peaks at 128 MB (about 270 bytes per edge, CPython
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


def as_vertex_set(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted tuple of distinct vertex indices, range-checked against ``n``."""
    out = sorted(set(int(v) for v in vertices))
    if out and out[0] < 0:
        raise ValueError(f"negative vertex index {out[0]}")
    if out and out[-1] >= n:
        raise ValueError(f"vertex {out[-1]} out of range for n={n}")
    return tuple(out)


class Graph:
    """Immutable simple graph: no self-loops, no parallel edges.

    Its one adjacency, read by every structural query, is a neighbour bitmask
    per vertex; the sorted edge tuple is read off the masks once, when the
    graph is built.
    """

    __slots__ = ("n", "_mask", "_edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        check_size(n, 0)
        mask = [0] * n
        m = 0  # distinct edges so far
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"self-loop at vertex {u}" if u == v
                                 else f"edge ({u},{v}) out of range for n={n}")
            bit = 1 << v
            if not mask[u] & bit:
                m += 1
                if m > MAX_EDGES:  # refused as the edges arrive, before they fill memory
                    check_size(n, m)
                mask[u] |= bit
                mask[v] |= 1 << u
        self.n = n
        self._mask = tuple(mask)
        label = list(range(n))  # one int object per vertex, shared by its edges
        self._edges = tuple((u, label[v]) for u in label for v in _bits(mask[u] & -(2 << u)))

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self._mask[u] >> v & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._mask[v]

    def degree(self, v: int) -> int:
        return self._mask[v].bit_count()

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    # -- derived graphs --------------------------------------------------

    def remove_edges(self, gone: Iterable[Edge]) -> "Graph":
        drop = {normalize_edge(u, v) for u, v in gone}
        return Graph(self.n, [e for e in self._edges if e not in drop])

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self._mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- serialization ---------------------------------------------------

    def to_edge_list(self) -> str:
        """Canonical edge-list text: header line then sorted edges, byte-stable."""
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges())
        return "\n".join(lines) + "\n"


# -- factories -----------------------------------------------------------


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


# -- parsing -------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus one "u v" line per edge.

    The header meets :func:`check_size` before any edge line is read; the
    edges then stream into :class:`Graph`, the one place they are checked,
    deduplicated and budgeted.  A malformed line or a refusal of Graph's
    raises ``GraphParseError`` naming its line; dropped duplicates and a
    header count other than the final one are only warnings.
    """
    def pieces() -> Iterator[str]:
        # lines as str.splitlines breaks them, from windows ending at a "\n" where they hold one
        start, carry = 0, ""  # carry: the last line of a window cut short of a "\n", read again
        while start < len(text):  # a window is widened past a long line; a refused header costs one
            stop = text.rfind("\n", start, end := start + max(1 << 14, 2 * len(carry))) + 1 or end
            split = (carry + text[start:stop]).splitlines(True)  # a break is whitespace to str.split
            carry = split.pop() if stop < len(text) and text[stop - 1] != "\n" else ""
            yield from split
            start = stop

    lines = ((no, line.split()) for no, line in enumerate(pieces(), start=1))
    no, parts = next(((no, parts) for no, parts in lines if parts), (1, []))
    if not parts:
        raise GraphParseError("line 1: empty input")
    if len(parts) != 2:
        raise GraphParseError(f"line {no}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {no}: non-integer header") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line {no}: negative count in header")
    read = 0  # edge lines handed to Graph; `no` is the line being read

    def edges() -> Iterator[Edge]:
        nonlocal no, read
        for no, parts in lines:
            if parts:
                if len(parts) != 2:
                    raise GraphParseError(f"line {no}: expected 'u v'")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphParseError(f"line {no}: non-integer endpoint") from None
                read += 1
                yield u, v

    try:
        check_size(n, m)
        g = Graph(n, edges())
    except GraphParseError:
        raise
    except ValueError as exc:
        raise GraphParseError(f"line {no}: {exc}") from None
    if read > g.edge_count:
        warnings.warn(f"duplicate edges dropped: {read - g.edge_count}", GraphFormatWarning)
    if g.edge_count != m:
        warnings.warn(f"edge count mismatch: header says {m}, got {g.edge_count} after dedup",
                      GraphFormatWarning)
    return g


GRAPH6_BYTES = bytes(range(63, 127))  # "?" to "~", each carrying six bits
_SET_BITS = bytes(64) + bytes([1]) * 192  # 1 for a graph6 byte other than "?"


def parse_graph6(text: str) -> Graph:
    """Parse a single graph in graph6 format (optional ">>graph6<<" header).

    The set bits stream into :class:`Graph` once it has accepted n, with a
    memchr-speed skip over the bytes that carry none; bit k is the edge
    (u, v), u < v, with k = v(v-1)/2 + u, and padding bits are ignored.
    """
    data = text.strip().encode(errors="surrogatepass")  # a lone surrogate is then invalid too
    if data.startswith(GRAPH6_HEADER.encode()):
        data = data[len(GRAPH6_HEADER):].lstrip()
    if not data:
        raise GraphParseError("empty graph6 payload")
    if data.translate(None, GRAPH6_BYTES):  # what is left lies outside the alphabet
        raise GraphParseError("invalid graph6 byte")
    pos = 1 if data[0] < 126 else 4 if data[1:2] < b"~" else 8  # where the edge bits start
    if len(data) < pos:
        raise GraphParseError("truncated graph6 size field")
    n = 0
    for c in data[pos // 4:pos]:  # the size in base 64, after any "~" markers
        n = n << 6 | c - 63
    total = n * (n - 1) // 2
    end = pos + (total + 5) // 6
    if len(data) < end:
        raise GraphParseError("truncated graph6 edge bits")

    # made before Graph's mask list: made after it, the 32 MB table of the empty
    # 20,000-vertex graph raised `connectivity`'s peak RSS by 32 MB
    mask = data.translate(_SET_BITS)

    def edges() -> Iterator[Edge]:
        i = mask.find(1, pos, end)
        while i >= 0:
            b, k = data[i] - 63, 6 * (i - pos)
            v = (isqrt(8 * k + 1) + 1) // 2
            u = k - v * (v - 1) // 2
            for shift in range(5, -1, -1):  # bits k..k+5, stepping (u, v) along
                if b >> shift & 1 and k < total:
                    yield u, v
                k, u = k + 1, u + 1
                if u == v:
                    u, v = 0, v + 1
            i = mask.find(1, i + 1, end)

    return Graph(n, edges())


def parse_graph(text: str) -> Graph:
    """Parse edge-list text, or graph6 when the leading byte says so.

    graph6 is detected by the ">>graph6<<" header or a first byte >= 63
    (edge-list input always starts with a decimal digit).
    """
    stripped = text.lstrip()
    if stripped.startswith(GRAPH6_HEADER) or stripped[:1] >= "?":
        return parse_graph6(text)
    return parse_edge_list(text)


# -- connectivity ----------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    res = []
    while mask:  # from the top down: two int operations a bit, not three
        top = mask.bit_length() - 1
        res.append(top)
        mask ^= 1 << top
    res.reverse()
    return res


def _non_adjacent_pair(g: Graph, vertices: int) -> tuple[int, int] | None:
    """The least a in the vertex bitmask with a non-neighbour in it, and its
    least such b, or None when the vertices form a clique.  No vertex below a
    has a non-neighbour in the mask, so a < b and the pair is the least
    non-adjacent one in lexicographic order.  Vertices are taken as the
    search reaches them, not listed first: it often stops at the first."""
    rest = vertices
    while rest:
        a = (rest & -rest).bit_length() - 1
        others = vertices & ~(g._mask[a] | 1 << a)
        if others:
            return a, (others & -others).bit_length() - 1
        rest ^= 1 << a
    return None


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
    pairs += [(x, y) for x, y in combinations(_bits(g.neighbor_mask(v)), 2) if not g.has_edge(x, y)]
    for s, t in pairs:
        best = _local_vertex_connectivity(g, s, t, best)
    return best


# -- cliques ---------------------------------------------------------------


def iter_maximal_cliques(g: Graph) -> Iterator[tuple[int, ...]]:
    """The inclusion-maximal cliques of g, each sorted, one at a time in the
    search's own order.  A caller that stops early pays only for the
    cliques it took.

    Bron-Kerbosch with pivoting on bitmasks, driven by an explicit stack of
    (clique, candidates, excluded) states, so a deep clique does not recurse.
    Only states with candidates are pushed: one without is settled where it
    is made, as a maximal clique when nothing is excluded.  Isolated vertices
    yield singleton cliques; a graph with no vertices yields no cliques.
    """
    if not g.n:
        return
    masks = g._mask
    stack = [(0, (1 << g.n) - 1, 0)]
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


# -- subgraphs and paths ---------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabeled 0..k-1 in sorted order.

    Returns the subgraph together with the relabeling: entry i of the map is
    the original label of new vertex i.
    """
    vs = as_vertex_set(vertices, g.n)
    index = {old: new for new, old in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in g._edges if u in index and v in index
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
