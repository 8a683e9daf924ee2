"""Result and config types: NamedTuples that print as JSON objects, with
their derived properties, and the validating clique-system class."""

import pytest

from rigidity_forge import combinatorics, constructions, experiments, global_rigidity, rigidity
from rigidity_forge.cli import _jsonable
from rigidity_forge.combinatorics import CliqueSystem
from rigidity_forge.graph_core import complete_bipartite_graph
from rigidity_forge.rigidity import Verdict

from helpers import complete_graph, cycle_graph

SEED = 11


def seeded_results() -> list:
    k4, k7, c4 = complete_graph(4), complete_graph(7), cycle_graph(4)
    return [
        rigidity.generic_rank(k4, 2, seed=SEED),
        rigidity.is_t_redundantly_rigid(k4, 2, 1, seed=SEED),
        global_rigidity.stress_matrix_rank(k4, 2, seed=SEED),
        constructions.build_gpi(k4, 2, [2, 0, 3, 1]),
        combinatorics.verify_comblemma(CliqueSystem(6, 2, [{0, 1, 2}]), 3),
        combinatorics.check_lemma7_hypotheses(k4, 2),
        experiments.theorem1_spot_check(k7, 2, seed=SEED),
        experiments.theorem9_check(seed=SEED),
        experiments.theorem10_check(c4, 2, seed=SEED),
        experiments.lemma6_property_check(c4, 2, seed=SEED),
    ]


def test_jsonable_renders_every_result_type_as_an_object():
    library = (rigidity, global_rigidity, constructions, combinatorics, experiments)
    result_types = {
        obj for mod in library for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__
    }
    seen = set()

    def check(obj, out):
        if hasattr(obj, "_fields"):
            seen.add(type(obj))
            assert isinstance(out, dict) and list(out) == list(obj._fields), obj
            for value, rendered in zip(obj, out.values()):
                check(value, rendered)
        elif isinstance(obj, (list, tuple)):
            for value, rendered in zip(obj, out):
                check(value, rendered)

    for result in seeded_results():
        check(result, _jsonable(result))
    assert seen == result_types


def test_result_properties():
    assert bool(Verdict(False, "certain")) is False
    assert bool(rigidity.is_rigid(complete_graph(4), 2, seed=SEED)) is True
    assert combinatorics.check_lemma7_hypotheses(complete_bipartite_graph(7, 7), 2).all_ok is True
    assert combinatorics.check_lemma7_hypotheses(complete_graph(4), 2).all_ok is False
    assert experiments.theorem9_check(seed=SEED).passed is True
    assert experiments.lemma6_property_check(cycle_graph(4), 2, seed=SEED).passed is True
    res = constructions.build_gpi(complete_graph(5), 2, [4, 3, 2, 1, 0])
    assert res.edge_count == res.subgraph.edge_count == 7


def test_clique_system_validates_and_freezes_its_sets():
    with pytest.raises(ValueError):
        CliqueSystem(-1, 2, [])
    with pytest.raises(ValueError):
        CliqueSystem(4, 2, [[0, 4]])
    system = CliqueSystem(5, 2, [[0, 1], (2, 3, 4)])
    assert system.sets == (frozenset({0, 1}), frozenset({2, 3, 4}))
    assert all(type(h) is frozenset for h in system.sets)
