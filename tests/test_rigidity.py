import itertools
import random
from math import comb

import pytest

from rigidity_forge import rigidity
from rigidity_forge.constructions import (
    harary_graph,
    lovasz_yemini_family,
    sharpness_example,
    sharpness_matching,
)
from rigidity_forge.global_rigidity import stress_matrix_rank
from rigidity_forge.graph_core import Graph, complete_graph, cycle_graph, vertex_connectivity
from rigidity_forge.modlinalg import DEFAULT_PRIME, RowBasis, make_rng, rank_of_rows
from rigidity_forge.rigidity import (
    Cover,
    Verdict,
    cover_rank_bound,
    generic_rank,
    generic_rank_cap,
    is_independent,
    is_linked,
    is_rigid,
    is_t_redundantly_rigid,
    linked_pairs,
    placements,
)

from helpers import exact_generic_rank, per_subset_redundancy, random_graph

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


def test_composite_modulus_is_refused(monkeypatch):
    for p in (15, 91):
        message = f"modulus {p} is not prime"
        with pytest.raises(ValueError, match=message):
            generic_rank(complete_graph(6), 2, p=p)
        with pytest.raises(ValueError, match=message):
            is_linked(cycle_graph(6), 2, 0, 2, p=p)
        with pytest.raises(ValueError, match=message):
            stress_matrix_rank(complete_graph(6), 2, p=p)

    # a prime is tested once, not once per placement stream
    real, calls = rigidity.is_prime, []
    monkeypatch.setattr(rigidity, "is_prime", lambda m: calls.append(m) or real(m))
    rigidity._require_prime.cache_clear()
    for seed in range(3):
        generic_rank(complete_graph(6), 2, seed=seed, p=P)
    assert calls == [P]


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


# -- linked-pair scans -------------------------------------------------------


def nonedges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


@pytest.mark.parametrize(
    "g, stride",
    [
        (cycle_graph(20), 1),
        (cycle_graph(40), 1),
        (harary_graph(4, 30), 1),
        # every 5th of 680 pairs: a one-pair call costs two eliminations here
        (lovasz_yemini_family(2, 8)[0], 5),
    ],
    ids=["C20", "C40", "harary(4,30)", "LY(2,8)"],
)
def test_linked_pairs_match_one_pair_calls(g, stride):
    pairs = nonedges(g)
    scan = linked_pairs(g, 2, pairs, seed=9)
    assert len(scan) == len(pairs)
    for (u, v), verdict in list(zip(pairs, scan))[::stride]:
        assert is_linked(g, 2, u, v, seed=9) == verdict


def test_linked_pairs_match_rank_increments_on_random_graphs():
    # the definition on the same placements: uv is linked iff the best rank
    # of G + uv over the trials equals the best rank of G
    rng = random.Random(61)
    linked = unlinked = 0
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 10), rng.random())
        d = rng.choice((2, 3))
        pairs = nonedges(g)
        pairs += [(v, u) for u, v in pairs[:2]] + sorted(g.edges)[:2]
        seed = rng.getrandbits(64)
        scan = linked_pairs(g, d, pairs, seed=seed)
        assert scan == [is_linked(g, d, u, v, seed=seed) for u, v in pairs]
        for (u, v), verdict in zip(pairs, scan):
            if g.has_edge(u, v):
                assert verdict.value and verdict.confidence == "certain"
                continue
            g2 = g.add_edge(u, v)
            uv = g2.sorted_edges().index((min(u, v), max(u, v)))
            best_g = best_g2 = 0
            for rows, _ in placements(g2, d, 2, seed, P):
                best_g2 = max(best_g2, rank_of_rows(rows, d * g.n, P))
                best_g = max(best_g, rank_of_rows(rows[:uv] + rows[uv + 1:], d * g.n, P))
            assert verdict.value == (best_g == best_g2) and verdict.rank == best_g
            linked += verdict.value
            unlinked += not verdict.value
    assert linked and unlinked


def test_linked_pairs_validation_and_edges():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 5)])
    assert linked_pairs(g, 2, []) == []
    # pairs that are edges need no placement, so no trial either
    assert linked_pairs(g, 2, [(0, 1), (4, 0)], trials=0) == [Verdict(True, "certain")] * 2
    with pytest.raises(ValueError):
        linked_pairs(g, 2, [(0, 2)], trials=0)


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


def full_rank_views(g, d, trials, seed, p):
    target = d * g.n - comb(d + 1, 2)
    views = [rigidity._kernel_view(rows, d * g.n, p) for rows, _ in placements(g, d, trials, seed, p)]
    return [(kernel_dim, dual) for full, kernel_dim, dual in views if full >= target]


def independent_in(view, subset, p):
    kernel_dim, dual = view
    return rank_of_rows([dual[i] for i in subset], kernel_dim, p) == len(subset)


def test_prefix_walk_matches_per_subset_scan():
    # small primes make the views disagree and prefixes dependent, so the
    # sample must reach both the re-test on later views and the pruning
    rng = random.Random(1414)
    primes = (2, 3, 5, 7, 11, 13, P)
    retested = pruned = 0
    for _ in range(600):
        d = rng.randint(1, 3)
        g = random_graph(rng, rng.randint(d + 2, d + 4), rng.uniform(0.6, 1.0))
        t = rng.randint(1, min(4, g.edge_count + 1))
        trials, p, seed = rng.randint(1, 3), rng.choice(primes), rng.getrandbits(32)
        rep = is_t_redundantly_rigid(g, d, t, trials, seed, p)
        assert rep == per_subset_redundancy(g, d, t, trials, seed, p)
        views = full_rank_views(g, d, trials, seed, p) if g.n > d + 1 else []
        if not views:
            continue
        walked = itertools.combinations(range(g.edge_count), t - 1)
        for subset in itertools.islice(walked, rep.subsets_checked):
            if independent_in(views[0], subset, p):
                continue
            retested += any(independent_in(view, subset, p) for view in views[1:])
            pruned += len(subset) >= 2 and not independent_in(views[0], subset[:-1], p)
    assert retested and pruned


def count_basis_calls(monkeypatch):
    """Count RowBasis.add and RowBasis.in_span calls made after the last
    kernel view of a scan is built."""
    counts = {"add": 0, "in_span": 0}
    for name in counts:
        method = getattr(RowBasis, name)

        def counted(self, row, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, row)

        monkeypatch.setattr(RowBasis, name, counted)
    kernel_view = rigidity._kernel_view

    def view_then_reset(*args):
        out = kernel_view(*args)
        counts.update(add=0, in_span=0)
        return out

    monkeypatch.setattr(rigidity, "_kernel_view", view_then_reset)
    return counts


def test_prefix_walk_work_on_sharpness_example(monkeypatch):
    counts = count_basis_calls(monkeypatch)
    rep = is_t_redundantly_rigid(sharpness_example(2), 2, 4)
    assert rep == (True, "certain", None, 7140)
    # one in_span per leaf, one add per inner node of the walk
    assert counts["in_span"] == comb(36, 3)
    assert counts["add"] <= comb(36, 2) + 36


def test_dependent_prefix_costs_no_in_span(monkeypatch):
    # K6 in the plane mod 7: the first view has dependent 2-prefixes, whose
    # extensions the second view accepts, so the walk goes on past them
    g, d, t, trials, seed, p = complete_graph(6), 2, 4, 2, 13, 7
    first = full_rank_views(g, d, trials, seed, p)[0]
    leaves = list(itertools.combinations(range(g.edge_count), t - 1))
    under_dependent = sum(not independent_in(first, s[:-1], p) for s in leaves)
    assert under_dependent > 0
    counts = count_basis_calls(monkeypatch)
    rep = is_t_redundantly_rigid(g, d, t, trials, seed, p)
    assert rep == (True, "certain", None, len(leaves))
    assert counts["in_span"] == len(leaves) - under_dependent


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
