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
of theorems 1, 2 (on Harary graphs) or 10 (on LY graphs) may fail.
"""

import itertools
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

from helpers import exact_generic_rank, use_field, use_trials
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
