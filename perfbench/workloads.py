"""Seeded inputs and invocation lists for the benchmark workloads.

Every input is generated here, from the workload seed alone, without
importing the program under test: the program only ever sees the text of
the generated graphs and clique systems.  Sizes are fixed per list position
and only the random content varies with the seed, so the amount of work in a
pass barely moves between seeds.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from math import comb

Edge = tuple[int, int]

DIM = 2
#: d(d+1): the connectivity at which Theorem 2 makes every graph globally rigid.
THEOREM2_K = DIM * (DIM + 1)
#: Sizes of the seeded dense random graphs.
RANDOM_GRAPH_SIZES = (30, 36, 42, 48)
#: Sets in each seeded clique system.
CLIQUE_SETS = 6


@dataclass(frozen=True)
class Invocation:
    """One `rigidity-forge` call and what its output must say.

    ``expect`` is read by :mod:`oracle`: ``exit`` is the expected exit code,
    ``result`` a value the output's ``result`` must contain (dicts match on
    the keys given), and ``kind`` names a check the oracle derives itself.
    """

    args: tuple[str, ...]
    stdin: str
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.args[0]


# -- graphs ----------------------------------------------------------------


def edge_list(n: int, edges) -> str:
    """The CLI's edge-list format: an `n m` header, then one `u v` per line."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def complete_edges(vertices) -> list[Edge]:
    vs = list(vertices)
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]


def circulant_edges(k: int, n: int) -> list[Edge]:
    """The k-regular, k-connected Harary circulant on n vertices (k*n even)."""
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    if k % 2:
        edges += [(i, i + n // 2) for i in range(n // 2)]
    return edges


def split_clique_graph(d: int, s: int) -> tuple[int, list[Edge]]:
    """The Lovasz-Yemini family LY(d, s): every vertex of the k-regular
    circulant (k = d(d+1)-1) on s vertices becomes a k-clique, and every
    base edge joins one fresh clique vertex at each end.  It is k-connected
    and, in dimension 2, has rank exactly 19n/10."""
    k = d * (d + 1) - 1
    next_free = [v * k for v in range(s)]
    edges = []
    for a, b in sorted({(min(u, v), max(u, v)) for u, v in circulant_edges(k, s)}):
        edges.append((next_free[a], next_free[b]))
        next_free[a] += 1
        next_free[b] += 1
    for v in range(s):
        edges += complete_edges(range(v * k, v * k + k))
    return k * s, edges


def matched_cliques(d: int) -> tuple[int, list[Edge]]:
    """Two K_{d(d+1)} joined by a perfect matching."""
    dd = d * (d + 1)
    edges = complete_edges(range(dd)) + complete_edges(range(dd, 2 * dd))
    return 2 * dd, edges + [(i, i + dd) for i in range(dd)]


def dense_random_graph(n: int, rng: random.Random) -> list[Edge]:
    """A random (n/2)-regular graph on n vertices (n even) that contains a
    6-connected circulant, with random vertex labels.

    It starts from the (n/2)-regular circulant and mixes it with random
    double-edge swaps that leave the offset-1..3 circulant (6-connected)
    alone, so every draw is at least 6-connected by construction.  A fixed
    degree keeps the connectivity work (one max-flow per candidate pair
    around a minimum-degree vertex) nearly the same from seed to seed, where
    G(n, 1/2) varies it about twofold.
    """
    fixed = {(min(u, v), max(u, v)) for u, v in circulant_edges(THEOREM2_K, n)}
    present = {(min(u, v), max(u, v)) for u, v in circulant_edges(n // 2, n)}
    loose = sorted(present - fixed)
    for _ in range(10 * len(loose)):
        i, j = rng.randrange(len(loose)), rng.randrange(len(loose))
        (a, b), (c, d) = loose[i], loose[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if len({a, b, c, d}) < 4 or e1 in present or e2 in present:
            continue
        present -= {loose[i], loose[j]}
        present |= {e1, e2}
        loose[i], loose[j] = e1, e2
    label = list(range(n))
    rng.shuffle(label)
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in present)


def clique_system(n: int, d: int, rng: random.Random) -> list[list[int]]:
    """Distinct proper subsets of [n], pairwise intersections at most d-2."""
    chosen: list[set[int]] = []
    m = n // 2
    for _ in range(400):
        if len(chosen) == CLIQUE_SETS:
            break
        cand = set(rng.sample(range(n), rng.randint(d + 1, m + 2)))
        if all(cand != h and len(cand & h) <= d - 2 for h in chosen):
            chosen.append(cand)
    return [sorted(h) for h in chosen]


# -- workloads -------------------------------------------------------------


def _seeds(rng: random.Random):
    while True:
        yield str(rng.getrandbits(32))


def _nonedge(n: int, edges: list[Edge], rng: random.Random) -> Edge:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    while True:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present:
            return u, v


def _random_graphs(rng: random.Random) -> list[tuple[int, list[Edge]]]:
    return [(n, dense_random_graph(n, rng)) for n in RANDOM_GRAPH_SIZES]


def _verdicts(rng: random.Random, seeds, graphs) -> list[Invocation]:
    """One-shot verdicts: large dense eliminations, max-flow connectivity,
    linked pairs and redundancy."""
    out = []
    for d, s in ((2, 8), (2, 16), (2, 32), (3, 12)):
        n, edges = split_clique_graph(d, s)
        text = edge_list(n, edges)
        full = d * n - comb(d + 1, 2)
        rank = 19 * n // 10 if d == 2 else full
        base = ("--dim", str(d), "--seed", next(seeds))
        out.append(Invocation(("rank",) + base, text, {"exit": 0, "result": rank}))
        out.append(Invocation(("rigid",) + base, text, {"exit": 0, "result": rank == full}))
    for n, edges in graphs:
        text = edge_list(n, edges)
        out.append(Invocation(("globally-rigid", "--seed", next(seeds)), text,
                              {"exit": 0, "result": True}))
        out.append(Invocation(("connectivity",), text, {"kind": "connectivity"}))
    cycle = [(i, (i + 1) % 40) for i in range(40)]
    for _ in range(2):
        u, v = _nonedge(40, cycle, rng)
        out.append(Invocation(("linked", "--u", str(u), "--v", str(v), "--seed", next(seeds)),
                              edge_list(40, cycle), {"exit": 0, "result": False}))
    for _ in range(2):
        u, v = sorted(rng.sample(range(12), 2))
        k12_minus = [e for e in complete_edges(range(12)) if e != (u, v)]
        out.append(Invocation(("linked", "--u", str(u), "--v", str(v), "--seed", next(seeds)),
                              edge_list(12, k12_minus), {"exit": 0, "result": True}))
    n, edges = matched_cliques(2)
    for t in (3, 4):
        out.append(Invocation(("redundant", "--t", str(t), "--seed", next(seeds)), edge_list(n, edges),
                              {"exit": 0, "result": {"value": True,
                                                     "subsets_checked": comb(len(edges), t - 1)}}))
    return out


def _theorem_checks(seeds, graphs) -> list[Invocation]:
    """Long checks: thousands of small eliminations on near-identical
    matrices of one graph."""
    passed = {"exit": 0, "result": {"passed": True}}
    out = [Invocation(("check-theorem9", "--dim", "2", "--seed", next(seeds)), "", passed)]
    for n in (20, 40):
        cycle = edge_list(n, [(i, (i + 1) % n) for i in range(n)])
        out.append(Invocation(("check-lemma6", "--seed", next(seeds)), cycle, passed))
    for n, edges in graphs[:3]:
        out.append(Invocation(("check-theorem2", "--seed", next(seeds)), edge_list(n, edges), passed))
    for s in (8, 10, 12):
        n, edges = split_clique_graph(2, s)
        out.append(Invocation(("check-theorem10", "--seed", next(seeds)), edge_list(n, edges), passed))
    return out


def verdicts_and_checks(seed: int) -> list[Invocation]:
    rng = random.Random(f"verdicts-and-checks:{seed}")
    seeds = _seeds(rng)
    graphs = _random_graphs(rng)
    return _verdicts(rng, seeds, graphs) + _theorem_checks(seeds, graphs)


def counting(seed: int) -> list[Invocation]:
    rng = random.Random(f"counting:{seed}")
    seeds = _seeds(rng)
    out = []
    d = 4
    for i in range(12):
        n = 18 + i % 4
        m = n // 2
        sets = clique_system(n, d, rng)
        payload = '{"n": %d, "d": %d, "sets": %s}\n' % (n, d, sets)
        count = sum(comb(len(h), m) for h in sets)
        out.append(Invocation(("comblemma", "--m", str(m)), payload,
                              {"exit": 0, "result": {"status": "checked", "count": count,
                                                     "bound": comb(n - 1, m), "holds": True}}))
    for n in (14, 15, 16, 17):
        out.append(Invocation(("expected-gpi",), edge_list(n, complete_edges(range(n))),
                              {"exit": 0, "result": str(2 * n - 3)}))
    for n, edges in _random_graphs(rng):
        out.append(Invocation(("check-lemma7-hyp",), edge_list(n, edges), {"kind": "lemma7"}))
    n, edges = split_clique_graph(2, 32)
    out.append(Invocation(("gpi", "--seed", next(seeds)), edge_list(n, edges), {"kind": "gpi"}))
    return out


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Invocation]]
    #: Seconds one pass takes at the commit that defined the benchmark, on a
    #: 2-core x86 box with CPython 3.11; it sets the pass count.
    pass_s: float


WORKLOADS = {
    "verdicts-and-checks": Workload(verdicts_and_checks, 16.0),
    "counting": Workload(counting, 7.0),
}
