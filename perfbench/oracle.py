"""Checks every CLI output against a value derived without the program.

Expected values come from the paper's theorems and closed forms recorded
with each invocation (see :mod:`workloads`), or from networkx, which the
program does not use.  Derived expectations are cached per input, so the
networkx work is done once per run, and the benchmark runs all of it after
its timed passes.
"""

from __future__ import annotations

import itertools
import json

import workloads


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    return n, [tuple(map(int, line.split())) for line in lines[1:] if line.strip()]


def _nx_graph(text: str):
    import networkx as nx

    n, edges = parse_edge_list(text)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def lemma7_hypotheses_hold(text: str) -> bool:
    """Every vertex has degree >= d(d+1), a neighbourhood that is not a
    clique, and maximal neighbourhood cliques meeting in at most d-2."""
    import networkx as nx

    d = workloads.DIM
    g = _nx_graph(text)
    for v in g:
        nbrs = list(g[v])
        if len(nbrs) < d * (d + 1):
            return False
        sub = g.subgraph(nbrs)
        if sub.number_of_edges() == len(nbrs) * (len(nbrs) - 1) // 2:
            return False
        cliques = [set(c) for c in nx.find_cliques(sub)]
        if any(len(a & b) > d - 2 for a, b in itertools.combinations(cliques, 2)):
            return False
    return True


def ordered_subgraph_size(text: str, order: list[int]) -> int:
    """|E_pi| for one ordering: each vertex keeps min(b, d) of its b backward
    edges, plus one when b >= d+1 and the backward neighbours are not a clique."""
    d = workloads.DIM
    n, edges = parse_edge_list(text)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    placed: set[int] = set()
    total = 0
    for v in order:
        back = adj[v] & placed
        total += min(len(back), d)
        if len(back) >= d + 1 and any(b not in adj[a] for a, b in itertools.combinations(back, 2)):
            total += 1
        placed.add(v)
    return total


def mismatch(expected, actual, path: str = "result") -> str | None:
    """Where ``actual`` differs from ``expected``; dicts match on expected keys."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object, got {actual!r}"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = mismatch(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


class Oracle:
    """Judges (invocation, exit code, stdout) triples; holds derived expectations."""

    def __init__(self) -> None:
        self._derived: dict[tuple[str, str], object] = {}

    def _cached(self, kind: str, text: str, compute):
        key = (kind, text)
        if key not in self._derived:
            self._derived[key] = compute(text)
        return self._derived[key]

    def expected(self, inv: workloads.Invocation) -> dict:
        kind = inv.expect.get("kind")
        if kind == "connectivity":
            import networkx as nx

            k = self._cached(kind, inv.stdin, lambda t: nx.node_connectivity(_nx_graph(t)))
            return {"exit": 0, "result": k}
        if kind == "lemma7":
            ok = self._cached(kind, inv.stdin, lemma7_hypotheses_hold)
            return {"exit": 0 if ok else 1, "result": {"all_ok": ok}}
        if kind == "gpi":
            return {"exit": 0}
        return inv.expect

    def check(self, inv: workloads.Invocation, code: int | None, stdout: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        if code is None:
            return "hung, or not started after an earlier child hung"
        lines = stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            return f"output is not JSON: {stdout[-200:]!r}"
        if not isinstance(out, dict):
            return "output is not a JSON object"
        if "error" in out:
            return f"error reported: {out['error']}"
        if out.get("command") != inv.command:
            return f"command {out.get('command')!r}, expected {inv.command!r}"
        if not isinstance(out.get("runtime_ms"), int):
            return "runtime_ms missing"
        exp = self.expected(inv)
        if code != exp["exit"]:
            return f"exit code {code}, expected {exp['exit']}"
        if "result" in exp:
            found = mismatch(exp["result"], out.get("result"))
            if found:
                return found
        if inv.expect.get("kind") == "gpi":
            return self._check_gpi(inv, out.get("result"))
        return None

    def _check_gpi(self, inv: workloads.Invocation, result) -> str | None:
        if not isinstance(result, dict):
            return "gpi result is not an object"
        n, edges = parse_edge_list(inv.stdin)
        order = result.get("ordering")
        if not isinstance(order, list) or sorted(order) != list(range(n)):
            return "gpi ordering is not a permutation"
        kept = {tuple(e) for e in result.get("edges", [])}
        if not kept <= set(edges):
            return "gpi kept an edge that is not in the graph"
        size = ordered_subgraph_size(inv.stdin, order)
        if result.get("edge_count") != size or len(kept) != size:
            return f"gpi kept {result.get('edge_count')} edges, expected {size}"
        return None
