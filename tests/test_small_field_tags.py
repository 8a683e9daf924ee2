"""Certain tags stay right over tiny fields.

A rank found on a placement over F_p is a lower bound on the generic rank
for every prime p, and the bounds that settle a tag (the rank cap, |E|, the
clique-cover bound, exact connectivity) hold over every field.  So a
`certain` verdict must be right even over F_3, where placements miss generic
ranks all the time; only a `whp` verdict may be wrong there.  This audit
patches the field and the trial count as `helpers.use_field` and
`helpers.use_trials` do, and checks every certain verdict on (d-1)-fold cones
in d = 2..4 against exact answers: rank, rigidity, linked pairs and global
rigidity against the line facts of `test_coning_oracle`, and t-redundant
rigidity at t = 2, 3 against the rational oracle `helpers.exact_generic_rank`
on every deletion, where d*n <= 36 and the deletions are few.  The theorem
checks rest on those verdicts, and the theorems hold, so no `certain` report
of theorems 1, 2 (on Harary graphs) or 10 (on LY graphs) may fail.  Unions
of cliques test the clique-cover bound, which tags linked-pair and redundancy
verdicts as it tags ranks, against the rational oracle on every pair.
"""

import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_forge.constructions import harary_graph, lovasz_yemini_family
from rigidity_forge.experiments import theorem1_spot_check, theorem2_spot_check, theorem10_check
from rigidity_forge.global_rigidity import is_globally_rigid
from rigidity_forge.graph_core import Graph, complete_graph
from rigidity_forge.rigidity import (
    generic_rank,
    generic_rank_cap,
    is_rigid,
    is_t_redundantly_rigid,
    linked_pairs,
)

from helpers import add_edges, clique_union, exact_generic_rank, nonedges, random_graph, use_field, use_trials
from test_coning_oracle import LineFacts, cone

PRIMES = (3, 5, 7, 11)
#: the most edge rows, over all deletions, that the rational oracle
#: eliminates for one redundancy verdict: t = 2 up to 40 edges, t = 3 up to K6's 15
ORACLE_ROWS = 1600


@st.composite
def cases(draw):
    """A graph whose (d-1)-fold cone has at most 15 vertices, d, a tiny
    prime, a trial count and a seed."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, 16 - d))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))])
    return g, d, draw(st.sampled_from(PRIMES)), draw(st.integers(1, 2)), draw(st.integers(0, 2**64 - 1))


def exactly_redundant(c: Graph, d: int, t: int) -> tuple[bool, list]:
    """Whether c is t-redundantly rigid, by the rational oracle on every
    deletion of t-1 edges, and the deletions that leave it flexible."""
    cap = generic_rank_cap(c.n, d)
    flexible = [s for s in itertools.combinations(c.sorted_edges(), t - 1)
                if exact_generic_rank(c.remove_edges(s), d) < cap]
    return not flexible, flexible


def test_certain_verdicts_hold_over_tiny_fields():
    checked, seen, wrong_whp = Counter(), set(), Counter()

    def tally(kind: str, verdict, value, exact, p: int) -> None:
        if verdict.confidence == "certain":
            assert value == exact, kind
            checked[kind] += 1
            seen.add((kind, value))
        elif value != exact:
            wrong_whp[p] += 1

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cases())
    @example((complete_graph(4), 2, 11, 2, 0))  # K5 in the plane: 3-redundantly rigid
    @example((complete_graph(5), 2, 3, 2, 0))  # K6 in the plane, over F_3
    def audit(case):
        g, d, p, trials, seed = case
        facts, c = LineFacts(g), cone(g, d - 1)
        with pytest.MonkeyPatch.context() as mp:
            use_field(mp, p)
            use_trials(mp, trials)
            rep = generic_rank(c, d, trials, seed)
            tally("rank", rep, rep.rank, facts.cone_rank(d), p)
            verdict = is_rigid(c, d, seed)
            tally("rigid", verdict, verdict.value, facts.rank == g.n - 1, p)
            verdict = is_globally_rigid(c, d, seed)
            tally("globally rigid", verdict, verdict.value, facts.globally_rigid, p)
            pairs = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)][:20]
            for (u, v), verdict in zip(pairs, linked_pairs(c, d, pairs, seed)):
                tally("linked", verdict, verdict.value, facts.component[u] == facts.component[v], p)
            for t in (2, 3):
                if d * c.n > 36 or comb(c.edge_count, t - 1) * c.edge_count > ORACLE_ROWS:
                    continue
                verdict = is_t_redundantly_rigid(c, d, t, seed)
                if verdict.confidence == "certain":
                    exact, flexible = exactly_redundant(c, d, t)
                    assert verdict.value == exact, (d, t, verdict)
                    assert verdict.value or verdict.witness in flexible
                    checked[f"redundant t={t}"] += 1
                    seen.add((f"redundant t={t}", verdict.value))

    audit()
    # every kind is reached, certain verdicts of both values among them, and
    # placements over F_3 do miss: some whp verdict is wrong there
    assert min(checked.values()) >= 10 and len(checked) == 6, checked
    assert {(kind, value) for kind in checked if kind != "rank" for value in (False, True)} <= seen
    assert wrong_whp[3] > 0, wrong_whp


def test_certain_theorem_reports_hold_over_tiny_fields():
    # Harary graphs below and at the threshold d(d+1) in d = 2, 3, and LY graphs
    # in the plane: LY(2, 6) is rigid (inapplicable), LY(2, 8) and LY(2, 10) are not
    harary = [(2, harary_graph(k, s)) for k, s in ((5, 10), (6, 9), (6, 12), (7, 10), (8, 11))]
    harary += [(3, harary_graph(k, s)) for k, s in ((11, 14), (12, 14), (12, 15), (13, 16))]
    ly = [lovasz_yemini_family(2, s) for s in (6, 8, 10)]
    reports = Counter()
    for seed, (p, trials) in enumerate(itertools.product(PRIMES, (1, 2))):
        with pytest.MonkeyPatch.context() as mp:
            use_field(mp, p)
            use_trials(mp, trials)
            runs = [(name, check(g, d, seed)) for d, g in harary
                    for name, check in (("theorem 1", theorem1_spot_check), ("theorem 2", theorem2_spot_check))]
            runs += [("theorem 10", theorem10_check(g, 2, seed)) for g in ly]
        for name, rep in runs:
            assert rep.passed is not False or rep.confidence == "whp", (name, p, trials, seed, rep)
            reports[name, rep.status, rep.passed, rep.confidence, p == 3] += 1
    # each theorem has certain passes, and a tiny field does fail some whp report
    for name in ("theorem 1", "theorem 2", "theorem 10"):
        assert any(n == name and passed and tag == "certain" for n, _, passed, tag, _ in reports), name
    assert any(passed is False and at_3 for _, _, passed, _, at_3 in reports), reports


def clique_unions(rng: random.Random, count: int, dims: tuple) -> list:
    """`count` seeded unions of two or three cliques on d+2 to d+4 vertices,
    each with its d drawn from `dims` and small enough for the rational oracle."""
    out = []
    for _ in range(count):
        d = rng.choice(dims)
        n = rng.randint(d + 4, min(12, 36 // d))
        out.append((clique_union(n, [rng.sample(range(n), rng.randint(d + 2, d + 4))
                                     for _ in range(rng.randint(2, 3))]), d))
    return out


def redundancy_oracle(g: Graph, d: int, t: int, rank: int) -> tuple[bool, list] | None:
    """What :func:`exactly_redundant` says of g, read off its exact rank: below
    the cap every deletion leaves g flexible, and at it g is 1-redundantly
    rigid.  None for t > 1 at the cap, which the cone audit checks deletion by
    deletion."""
    if rank < generic_rank_cap(g.n, d):
        return False, list(itertools.combinations(g.sorted_edges(), t - 1))
    return (True, []) if t == 1 else None


def test_certain_linked_and_redundancy_tags_on_clique_unions_hold_over_tiny_fields():
    # two K5 sharing vertex 4 rank 14 in the plane, their cover bound, below the
    # cap 15: no cross pair is linked, and no edge is redundant.  Two K6 sharing
    # an edge rank 23 in R^3, below their cover bound 24 (the cap), so no bound
    # decides their tags
    k5s, k6s = clique_union(9, [range(5), range(4, 9)]), clique_union(10, [range(6), range(4, 10)])
    rng = random.Random(5)
    graphs = [(k5s, 2, nonedges(k5s)), (k6s, 3, rng.sample(nonedges(k6s), 6))]
    graphs += [(g, d, rng.sample(nonedges(g), min(6, len(nonedges(g)))))
               for g, d in clique_unions(rng, 4, (2, 3, 4))]
    facts = [{"rank": exact_generic_rank(g, d)} for g, d, _ in graphs]  # and each answer asked for
    assert (facts[0]["rank"], facts[1]["rank"]) == (14, 23)
    tags = Counter()  # (graph, kind, value, tag)
    for p, trials in itertools.product(PRIMES, (1, 2)):
        for i, (g, d, pairs) in enumerate(graphs):
            seed = rng.getrandbits(64)
            with pytest.MonkeyPatch.context() as mp:
                use_field(mp, p)
                use_trials(mp, trials)
                linked = linked_pairs(g, d, pairs, seed)
                redundant = [(t, is_t_redundantly_rigid(g, d, t, seed)) for t in (1, 2)]
            for uv, verdict in zip(pairs, linked):
                tags[i, "linked", verdict.value, verdict.confidence] += 1
                if verdict.confidence == "certain":
                    if uv not in facts[i]:
                        facts[i][uv] = exact_generic_rank(add_edges(g, [uv]), d) == facts[i]["rank"]
                    assert verdict.value == facts[i][uv], (g, d, uv, p, trials, verdict)
            for t, rep in redundant:
                tags[i, f"redundant t={t}", rep.value, rep.confidence] += 1
                if rep.confidence == "certain":
                    if t not in facts[i]:
                        facts[i][t] = redundancy_oracle(g, d, t, facts[i]["rank"])
                    if facts[i][t] is not None:
                        value, flexible = facts[i][t]
                        assert rep.value == value and (value or rep.witness in flexible), (g, d, t, rep)
    # the bounds decide the K5 pair's cross pairs and its t = 2, and none of the K6 pair's verdicts
    assert tags[0, "linked", False, "certain"] and tags[0, "redundant t=2", False, "certain"], tags
    assert not any(key[0] == 1 and key[3] == "certain" for key in tags), tags
    assert sum(n for (i, kind, value, tag), n in tags.items() if i > 1 and tag == "certain" and not value)


def test_linked_pairs_rank_g_as_generic_rank_does():
    # one policy: on the same seed and at the default field and trial count, the
    # scan's rank of G is generic_rank's, in the one feed order and stopped at the one bound
    rng = random.Random(12)
    graphs = [(lovasz_yemini_family(2, 8), 2), (lovasz_yemini_family(3, 12), 3)]
    graphs += [(random_graph(rng, rng.randint(d + 2, 14), rng.random()), d) for d in (1, 2, 3, 4) for _ in range(10)]
    graphs += clique_unions(rng, 8, (1, 2, 3, 4))
    for g, d in graphs:
        seed = rng.getrandbits(64)
        pairs = rng.sample(nonedges(g), min(200, len(nonedges(g))))
        if pairs:
            ranks = {v.rank for v in linked_pairs(g, d, pairs, seed)}
            assert ranks == {generic_rank(g, d, seed=seed).rank}, (g, d)
