"""A float-rank oracle for every `certain` tag.

The rigidity matrix is built here with numpy, at integer coordinates drawn
uniformly from [-1000, 1000], without the package's mod-p rows, and ranked
by its singular values.  A rank is trusted only when the last singular value
kept exceeds the first one dropped (or, at full rank, the tolerance) by the
factor GAP; otherwise the coordinates are redrawn once, and a second narrow
gap fails the test: it is never skipped.

At a generic placement the float rank is the generic rank, so the package's
certain bounds must hold around it: the mod-p rank below, the report's
`upper` above.  Every `certain` rank must equal it, and every `certain` "not
rigid" or "dependent" verdict must have a float rank below its target.  The
inputs are the benchmark's seed 1-3 workload graphs (LY(2,8/16/32), LY(3,12),
the 30-48-vertex random graphs and the matched-cliques example with its
matching deletions) and a seeded fuzz of clique-rich graphs in d = 2 and 3,
where the clique-cover bound settles tags.  The fuzz runs again with one
placement over the field of 5 elements, where ranks are missed: a `certain`
tag must hold there too, since no bound behind it is probabilistic.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidity_forge import rigidity
from rigidity_forge.constructions import lovasz_yemini_family, sharpness_example, sharpness_matching
from rigidity_forge.graph_core import Graph, parse_graph
from rigidity_forge.modlinalg import DEFAULT_PRIME
from rigidity_forge.rigidity import generic_rank, generic_rank_cap, is_independent, is_rigid

from helpers import use_field, use_trials

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

#: The least ratio between the last kept and the first dropped singular value.
GAP = 1e6


def float_rank(g: Graph, d: int, rng: np.random.Generator) -> int:
    """The rank of R(G, p) at integer coordinates in [-1000, 1000], by SVD."""
    edges = np.array(g.sorted_edges(), dtype=int).reshape(-1, 2)
    rows = np.arange(len(edges))
    for _ in range(2):
        points = rng.integers(-1000, 1001, size=(g.n, d)).astype(float)
        diff = points[edges[:, 0]] - points[edges[:, 1]]
        matrix = np.zeros((len(edges), g.n * d))
        for t in range(d):
            matrix[rows, edges[:, 0] * d + t] = diff[:, t]
            matrix[rows, edges[:, 1] * d + t] = -diff[:, t]
        s = np.linalg.svd(matrix, compute_uv=False)
        if not s.size or s[0] == 0:
            return 0
        tol = s[0] * max(matrix.shape) * np.finfo(float).eps
        r = int((s > tol).sum())
        if s[r - 1] > GAP * (s[r] if r < len(s) else tol):
            return r
    raise AssertionError(f"singular-value gap below {GAP:g} on two placements")


def check_tags(g: Graph, d: int, rng: np.random.Generator, seed: int) -> dict:
    """Assert the certain tags of g's rank, rigidity and independence verdicts,
    drawn from the seeded placement stream of `rigidity.TRIALS` placements,
    against its float rank; count the certain verdicts of each kind, and a
    missed rank."""
    exact = float_rank(g, d, rng)
    rank = generic_rank(g, d, rigidity.TRIALS, seed)
    assert rank.rank <= exact <= rank.upper, (g.n, g.edge_count, rank, exact)
    seen = {"certain rank": 0, "certain not rigid": 0, "certain dependent": 0, "missed": rank.rank < exact}
    if rank.confidence == "certain":
        assert rank.rank == exact
        seen["certain rank"] += 1
    rigid = is_rigid(g, d, seed)
    if rigid.confidence == "certain" and not rigid.value and g.n > d + 1:
        assert exact < generic_rank_cap(g.n, d)
        seen["certain not rigid"] += 1
    independent = is_independent(g, d, seed)
    if independent.confidence == "certain" and not independent.value:
        assert exact < g.edge_count
        seen["certain dependent"] += 1
    return seen


def workload_graphs():
    """(graph, d) for every distinct graph the seed 1-3 verdict workloads rank,
    and the matched-cliques example less 0..4 of its matching edges."""
    for d, s in ((2, 8), (2, 16), (2, 32), (3, 12)):
        yield lovasz_yemini_family(d, s), d
    for seed in (1, 2, 3):
        for inv in workloads.verdicts_and_checks(seed):
            if inv.command == "globally-rigid":
                yield parse_graph(inv.stdin), 2
    g, matching = sharpness_example(2), sharpness_matching(2)
    for k in range(5):
        yield g.remove_edges(matching[:k]), 2


def clique_rich_graph(rng: random.Random, d: int) -> Graph:
    """A few random cliques on d+2 or more vertices, overlapping at random,
    and a few loose edges."""
    n = rng.randint(d + 4, 18)
    edges = set()
    for _ in range(rng.randint(1, 4)):
        clique = sorted(rng.sample(range(n), rng.randint(d + 2, min(n, d + 6))))
        edges.update((u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def test_certain_tags_agree_with_the_float_rank_on_the_workload_graphs():
    rng = np.random.default_rng(1000)
    seen = dict.fromkeys(("certain rank", "certain not rigid", "certain dependent", "missed"), 0)
    for i, (g, d) in enumerate(workload_graphs()):
        for kind, count in check_tags(g, d, rng, i).items():
            seen[kind] += count
    # LY(2, s) and the example less 4 matching edges are certainly not rigid
    # by their cover bounds; the example itself is certainly dependent
    assert seen["certain not rigid"] >= 4 and seen["certain dependent"] >= 1
    assert seen["certain rank"] >= 20


@pytest.mark.parametrize("trials, p", [(2, DEFAULT_PRIME), (1, 5)])
def test_certain_tags_agree_with_the_float_rank_on_clique_rich_graphs(monkeypatch, trials, p):
    use_field(monkeypatch, p)
    use_trials(monkeypatch, trials)
    rng, np_rng = random.Random(4242), np.random.default_rng(4242)
    seen = dict.fromkeys(("certain rank", "certain not rigid", "certain dependent", "missed", "cover"), 0)
    for d in (2, 3):
        for _ in range(60):
            g = clique_rich_graph(rng, d)
            for kind, count in check_tags(g, d, np_rng, rng.getrandbits(64)).items():
                seen[kind] += count
            upper = generic_rank(g, d).upper
            seen["cover"] += upper < min(g.edge_count, generic_rank_cap(g.n, d))
    # the cover bound fires, and settles tags, on much of the fuzz; over Z_5
    # placements miss the generic rank, and no wrong certain tag may follow
    assert seen["cover"] >= 30
    assert min(seen[kind] for kind in seen if kind != "missed") >= 10
    assert (seen["missed"] >= 10) if p == 5 else (seen["missed"] == 0)
