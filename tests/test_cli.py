import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import warnings
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidity_forge
from rigidity_forge import cli, combinatorics, experiments, rigidity
from rigidity_forge.cli import COMMANDS, build_parser, main, parse_direct
from rigidity_forge.constructions import harary_graph, lovasz_yemini_family, sharpness_example
from rigidity_forge.graph_core import (
    GRAPH6_BYTES,
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphFormatWarning,
    complete_bipartite_graph,
    parse_graph,
)

from helpers import clique_union, complete_graph, cycle_graph, graph6

K4_TEXT = complete_graph(4).to_edge_list()
C4_TEXT = cycle_graph(4).to_edge_list()


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def strip_runtime(out: str) -> str:
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": X', out)


def test_rigid_command(capsys, k4_file):
    code, payload = run_json(capsys, "rigid", "--dim", "2", "--input", k4_file)
    assert code == 0
    assert payload["result"] is True
    assert payload["confidence"] == "certain"
    assert payload["schema"] == "rigidity-forge/1"
    assert payload["command"] == "rigid"
    assert isinstance(payload["runtime_ms"], int)


def test_rigid_false_still_exits_zero(capsys, c4_file):
    code, payload = run_json(capsys, "rigid", "--input", c4_file)
    assert code == 0 and payload["result"] is False


def test_mdk_command(capsys):
    code, payload = run_json(capsys, "mdk", "--dim", "2", "--k", "5")
    assert code == 0 and payload["result"] == "19/10"


def test_generator_pipes_back_into_parser(capsys, tmp_path):
    code, out = run_cli(capsys, "gen-ly", "--dim", "2", "--s", "8")
    assert code == 0
    g = parse_graph(out)
    assert g.n == 40 and g.edge_count == 100

    path = tmp_path / "ly.txt"
    path.write_text(out)
    code, payload = run_json(capsys, "rigid", "--dim", "2", "--input", str(path))
    assert code == 0 and payload["result"] is False


def test_generators_round_trip(capsys):
    for argv, expected in [
        (("gen-ly", "--dim", "2", "--s", "8"), lovasz_yemini_family(2, 8)),
        (("gen-sharpness", "--dim", "2"), sharpness_example(2)),
        (("gen-harary", "--k", "5", "--s", "8"), harary_graph(5, 8)),
    ]:
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (0, expected.to_edge_list())
        g = parse_graph(out)
        assert g.n == expected.n
        assert parse_graph(g.to_edge_list()) == g


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [["rank"], ["gen-harary", "--k", "2", "--s", "5"]],
                         ids=["rank", "gen-harary"])
def test_format_flag_is_a_usage_error(capsys, argv, fmt):
    # each command has one output form: no flag chooses another
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", fmt])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().out) == {
        "schema": "rigidity-forge/1", "error": f"unrecognized arguments: --format {fmt}"}


@pytest.mark.parametrize("argv", [
    ["rank", "--trials", "3"], ["rank", "--prime", str(2**61 - 1)], ["check-lemma6", "--orderings", "20"],
], ids=["trials", "prime", "orderings"])
def test_fixed_settings_are_no_flags(capsys, k4_file, argv):
    # every randomized command runs cli.TRIALS placements over DEFAULT_PRIME,
    # and lemma 6 the library's orderings: no flag sets them
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", k4_file])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().out) == {
        "schema": "rigidity-forge/1", "error": f"unrecognized arguments: {' '.join(argv[1:])}"}


def test_connectivity_and_rank_and_grn(capsys, k4_file):
    assert run_json(capsys, "connectivity", "--input", k4_file)[1]["result"] == 3
    assert run_json(capsys, "rank", "--input", k4_file)[1]["result"] == 5
    assert run_json(capsys, "grn-bound", "--input", k4_file)[1]["result"] == 0


def test_linked_and_wgl(capsys, c4_file):
    code, payload = run_json(capsys, "linked", "--u", "0", "--v", "2", "--input", c4_file)
    assert code == 0 and payload["result"] is False
    code, payload = run_json(
        capsys, "wgl", "--u", "0", "--v", "2", "--v0", "0,1,2,3", "--input", c4_file
    )
    assert code == 0 and payload["result"] is False


def test_redundant_command(capsys, k4_file):
    code, payload = run_json(capsys, "redundant", "--t", "2", "--input", k4_file)
    assert code == 0
    assert payload["result"]["value"] is True
    assert payload["result"]["subsets_checked"] == 6


def test_redundant_failure_under_the_cap_is_certain(capsys, c4_file):
    # C4 less any edge has 3 edges, below the plane rank cap 5
    code, payload = run_json(capsys, "redundant", "--t", "2", "--input", c4_file)
    assert code == 0 and payload["confidence"] == "certain"
    assert payload["result"] == {"value": False, "witness": [[0, 1]], "subsets_checked": 1}


def test_two_k5_sharing_a_vertex_are_certainly_unlinked_and_not_redundant(capsys, tmp_path):
    # the clique cover bounds the plane rank by 7 + 7 = 14, below the cap 15,
    # and each placement ranks 14: a cross pair raises it, and a deletion keeps it low
    path = tmp_path / "k5s.txt"
    path.write_text(clique_union(9, [range(5), range(4, 9)]).to_edge_list())
    assert path.read_text().startswith("9 20\n")
    code, payload = run_json(capsys, "linked", "--u", "0", "--v", "8", "--input", str(path))
    assert code == 0 and (payload["result"], payload["confidence"]) == (False, "certain")
    code, payload = run_json(capsys, "redundant", "--t", "2", "--input", str(path))
    assert code == 0 and payload["confidence"] == "certain"
    assert payload["result"] == {"value": False, "witness": [[0, 1]], "subsets_checked": 1}


def test_gpi_command(capsys, k4_file):
    code, payload = run_json(capsys, "gpi", "--ordering", "0,1,2,3", "--input", k4_file)
    assert code == 0
    assert payload["result"]["edge_count"] == 5
    assert len(payload["result"]["trace"]) == 4


def test_gpi_refuses_an_empty_ordering(capsys, k4_file):
    # an empty --ordering is an ordering of no vertices, not a request for a shuffle
    code, payload = run_json(capsys, "gpi", "--ordering", "", "--input", k4_file)
    assert code == 2 and "ordering must be a permutation" in payload["error"]


def test_expected_gpi_command(capsys, tmp_path):
    path = tmp_path / "k10.txt"
    path.write_text(complete_graph(10).to_edge_list())
    code, payload = run_json(capsys, "expected-gpi", "--input", str(path))
    assert code == 0 and payload["result"] == "17"


def test_comblemma_command(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": 6, "d": 2, "sets": [[0, 1, 2], [3, 4, 5]]}))
    code, payload = run_json(capsys, "comblemma", "--m", "3", "--input", str(path))
    assert code == 0
    assert payload["result"]["holds"] is True and payload["result"]["count"] == 2


def test_comblemma_reads_its_dimension_from_the_json_alone(capsys, tmp_path):
    # d is a field of the system, and --dim no comblemma flag: no default fills it in
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": 6, "sets": [[0, 1, 2], [3, 4, 5]]}))
    code, payload = run_json(capsys, "comblemma", "--m", "3", "--input", str(path))
    assert code == 2 and payload["error"] == "bad clique-system JSON: 'd'"


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**12])
def test_comblemma_refuses_a_ground_set_above_the_vertex_limit(capsys, monkeypatch, tmp_path, n):
    # refused before any binomial: C(10^12 - 1, 300000) alone would take seconds
    def forbidden(*args):
        raise AssertionError("binomial computed")

    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": n, "d": 3, "sets": [[0, 1, 2]]}))
    monkeypatch.setattr(combinatorics, "comb", forbidden)
    code, payload = run_json(capsys, "comblemma", "--m", "300", "--input", str(path))
    assert (code, payload["error"]) == (2, f"{n} vertices exceed the limit of {MAX_VERTICES}")
    monkeypatch.undo()
    path.write_text(json.dumps({"n": MAX_VERTICES, "d": 3, "sets": [[0, 1, 2]]}))
    code, payload = run_json(capsys, "comblemma", "--m", "300", "--input", str(path))
    assert code == 0 and payload["result"]["bound"] == comb(MAX_VERTICES - 1, 300)


@pytest.mark.parametrize("n, m, refused", [(20000, 9999, True), (14293, 7146, True), (14000, 6999, False)])
def test_comblemma_refuses_a_bound_with_more_digits_than_print(capsys, tmp_path, n, m, refused):
    # C(19999, 9999) has 6,019 digits and C(14292, 7146) 4,301, beyond the
    # interpreter's 4,300; C(13999, 6999) has 4,212 and is printed
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": n, "d": 3, "sets": [[0, 1, 2, 3]]}))
    code, payload = run_json(capsys, "comblemma", "--m", str(m), "--input", str(path))
    if refused:
        assert (code, payload["error"]) == (2, f"C({n - 1}, {m}) exceeds the limit of 4300 digits")
    else:
        assert code == 0 and payload["result"]["bound"] == comb(n - 1, m)


# int() would truncate each of these values into a system that checks cleanly
@pytest.mark.parametrize("change", [
    {"n": 6.9}, {"n": True, "sets": [[0]]}, {"n": "6"},
    {"d": 2.5}, {"d": True}, {"d": "2"},
    {"sets": [[0.5, 1, 2], [3, 4, 5]]}, {"sets": [[False, 1, 2], [3, 4, 5]]},
    {"sets": [["0", 1, 2], [3, 4, 5]]},
])
def test_comblemma_refuses_non_integer_json(capsys, tmp_path, change):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": 6, "d": 2, "sets": [[0, 1, 2], [3, 4, 5]], **change}))
    code, payload = run_json(capsys, "comblemma", "--m", "3", "--input", str(path))
    assert code == 2 and payload["error"].startswith("bad clique-system JSON")


def test_check_commands_exit_codes(capsys, k4_file, tmp_path):
    # K4 is only 3-connected: theorem-1 check is inapplicable, exit 0
    code, payload = run_json(capsys, "check-theorem1", "--input", k4_file)
    assert code == 0 and payload["result"]["status"] == "inapplicable"

    # K13 neighborhoods are cliques: hypothesis check fails, exit 1
    path = tmp_path / "k13.txt"
    path.write_text(complete_graph(13).to_edge_list())
    code, payload = run_json(capsys, "check-lemma7-hyp", "--input", str(path))
    assert code == 1 and payload["result"]["all_ok"] is False

    path2 = tmp_path / "k66.txt"
    path2.write_text(complete_bipartite_graph(6, 6).to_edge_list())
    code, payload = run_json(capsys, "check-theorem2", "--input", str(path2))
    assert code == 0 and payload["result"]["passed"] is True

    code, payload = run_json(capsys, "check-lemma6", "--input", k4_file)
    assert code == 0 and payload["result"]["passed"] is True


def test_check_lemma6_fails_on_a_dependent_ordering(capsys, c4_file, monkeypatch):
    real, orderings = experiments.is_independent, []

    def third_dependent(g, *args):
        orderings.append(g)
        verdict = real(g, *args)
        return verdict._replace(value=False, confidence="whp") if len(orderings) == 3 else verdict

    monkeypatch.setattr(experiments, "is_independent", third_dependent)
    rep = experiments.lemma6_property_check(cycle_graph(4), 2)
    # the failing ordering is the third built: the count stops there, and the
    # report takes the weakest tag of the verdicts it read
    assert rep == ("checked", None, 3, False, "whp") and rep.passed is False
    assert len(orderings) == 3
    orderings.clear()
    code, payload = run_json(capsys, "check-lemma6", "--input", c4_file)
    assert code == 1 and payload["result"]["passed"] is False


@pytest.mark.parametrize("argv, text", [
    (("rank",), "2 1\n0 1\n"),
    (("linked", "--u", "0", "--v", "1"), "2 0\n"),  # a non-edge: an edge is linked unplaced
    # graphs on at most d+1 vertices are ranked unplaced, but refused first as rank is
    (("rigid",), "2 1\n0 1\n"),
    (("globally-rigid",), "3 2\n0 1\n1 2\n"),  # not complete: is_rigid decides it
    (("redundant", "--t", "1"), "2 1\n0 1\n"),  # refused before the count would pass it
], ids=["rank", "linked", "rigid", "globally-rigid", "redundant"])
def test_a_huge_dimension_is_refused_before_any_coordinate(capsys, monkeypatch, tmp_path, argv, text):
    # n * 4,000,000 coordinates would take gigabytes; the stream refuses them unseeded
    def forbidden(seed):
        raise AssertionError("placement stream seeded")

    monkeypatch.setattr(rigidity, "make_rng", forbidden)
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, payload = run_json(capsys, *argv, "--dim", "4000000", "--input", str(path))
    assert code == 2
    n = int(text.split()[0])
    assert payload["error"] == f"{n * 4000000} coordinates exceed the limit of {rigidity.MAX_COORDINATES}"


def _forbid(monkeypatch, module, name):
    def forbidden(*args):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(module, name, forbidden)


def test_too_many_trials_are_refused_before_any_placement(monkeypatch):
    # two disjoint copies of K_{3,3} plus an edge rank 18, below |E| = 20 and
    # the cap 21, with no clique cover: no trial stops early, so 10^9 would take days
    k33 = [(u, v) for u in range(3) for v in range(3, 6)] + [(0, 1)]
    g = Graph(12, k33 + [(u + 6, v + 6) for u, v in k33])
    _forbid(monkeypatch, rigidity, "make_rng")
    _forbid(monkeypatch, rigidity, "iter_maximal_cliques")  # edge 01 has 3 common neighbours
    message = f"1000000000 trials exceed the limit of {rigidity.MAX_TRIALS}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        rigidity.generic_rank(g, 2, trials=10**9)


def test_a_redundancy_scan_over_the_budget_is_refused_before_any_placement(capsys, monkeypatch, tmp_path):
    path = tmp_path / "k16.txt"
    path.write_text(complete_graph(16).to_edge_list())
    _forbid(monkeypatch, rigidity, "make_rng")
    code, payload = run_json(capsys, "redundant", "--t", "6", "--input", str(path))
    assert code == 2
    assert payload["error"] == f"C(120, 5) edge subsets exceed the budget of {rigidity.REDUNDANCY_BUDGET}"
    # theorem 9's plane scan and the benchmark's scans stay inside it
    assert max(comb(36, 2), comb(36, 3)) <= rigidity.REDUNDANCY_BUDGET < comb(120, 5)


def test_a_redundancy_refusal_names_its_count_whatever_its_digits(capsys, monkeypatch, tmp_path):
    # Harary(4, 10,000) has 20,000 edges: C(20000, 2999) has 3,669 digits, and
    # C(20000, 5999) more than the 4,300 that int-to-str conversion allows
    path = tmp_path / "harary.txt"
    path.write_text(harary_graph(4, 10_000).to_edge_list())
    _forbid(monkeypatch, rigidity, "make_rng")
    for t in (3000, 6000):
        code, payload = run_json(capsys, "redundant", "--t", str(t), "--input", str(path))
        assert (code, payload["error"]) == (
            2, f"C(20000, {t - 1}) edge subsets exceed the budget of {rigidity.REDUNDANCY_BUDGET}")


@pytest.mark.parametrize("text", ["4 3\n0 1\n1 2\n2 3\n", K4_TEXT], ids=["P4", "K4"])
def test_check_lemma6_refuses_dimension_one_whatever_the_graph(capsys, tmp_path, text):
    # P4 has a non-edge linked in the line; K4 has none: both are refused alike
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, payload = run_json(capsys, "check-lemma6", "--dim", "1", "--input", str(path))
    assert code == 2 and payload["error"] == "ordered construction requires dimension >= 2"


def test_usage_errors_exit_two(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code, payload = run_json(capsys, "rigid", "--input", str(bad))
    assert code == 2 and "line 2" in payload["error"]

    code, payload = run_json(capsys, "check-theorem9", "--dim", "1")
    assert code == 2 and payload["error"] == "requires dimension >= 2"

    # a JSON number too large for a float overflows int()
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 1e400, "d": 2, "sets": []}\n'))
    code, payload = run_json(capsys, "comblemma", "--m", "3")
    assert code == 2 and "error" in payload

    code, payload = run_json(capsys, "mdk", "--k", "99")
    assert code == 2 and "error" in payload

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_theorem9_above_dimension_two_names_the_subset_count(capsys, monkeypatch, d):
    # it names the count of C(d+1,2)-edge subsets of the example it would
    # check, and refuses before building the example
    subsets = f"C({sharpness_example(d).edge_count}, {comb(d + 1, 2)})"

    def forbidden(d):
        raise AssertionError("example built")

    monkeypatch.setattr(experiments, "sharpness_example", forbidden)
    code, payload = run_json(capsys, "check-theorem9", "--dim", str(d))
    assert code == 2 and subsets in payload["error"]
    if d == 3:
        assert "C(144, 6)" in payload["error"]


@pytest.mark.parametrize("argv, message", [
    (("rank", "--dim", "0"), "dimension must be at least 1"),
    (("gpi", "--ordering", "0,1,x"), "expected comma-separated integers, got '0,1,x'"),
], ids=["dim 0", "ordering 0,1,x"])
def test_settings_and_orderings_no_command_can_run_exit_two(capsys, k4_file, argv, message):
    code, payload = run_json(capsys, *argv, "--input", k4_file)
    assert (code, payload["error"]) == (2, message)


def usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("d", [4, 5])
def test_theorem9_from_dimension_four_refuses_even_when_allowed(capsys, d):
    # --allow-large is no flag of the command: passing it is a usage error
    error = usage_error(capsys, "check-theorem9", "--dim", str(d), "--allow-large")
    assert error == "unrecognized arguments: --allow-large"


def test_expected_gpi_refuses_the_degree_cap_flag(capsys, k4_file):
    error = usage_error(capsys, "expected-gpi", "--degree-cap", "20", "--input", k4_file)
    assert error == "unrecognized arguments: --degree-cap 20"


def test_expected_gpi_over_the_state_budget_exits_two(capsys, monkeypatch, tmp_path):
    # K_8 less a perfect matching: every clique polynomial needs 2^4 - 1 states
    path = tmp_path / "k8pm.txt"
    path.write_text(complete_graph(8).remove_edges([(i, i + 4) for i in range(4)]).to_edge_list())
    monkeypatch.setattr(combinatorics, "CLIQUE_STATE_BUDGET", 14)
    code, payload = run_json(capsys, "expected-gpi", "--input", str(path))
    assert code == 2 and "vertex 0" in payload["error"] and "14 states" in payload["error"]
    monkeypatch.setattr(combinatorics, "CLIQUE_STATE_BUDGET", 15)
    code, payload = run_json(capsys, "expected-gpi", "--input", str(path))
    assert code == 0


def test_expected_gpi_past_the_recursion_limit_answers(capsys, tmp_path):
    # the centre's neighbourhood of a star is 1,500 independent vertices,
    # deeper than the recursion limit: 1,500 leaves keep 1/2 edge each, and
    # the centre min(i, 2) plus one more for each backward degree i >= 3
    path = tmp_path / "star.txt"
    path.write_text("1501 1500\n" + "".join(f"0 {i}\n" for i in range(1, 1501)))
    code, payload = run_json(capsys, "expected-gpi", "--input", str(path))
    assert (code, payload["result"]) == (0, "1130247/1501")


def test_redundant_counts_every_deleted_triple(capsys, tmp_path):
    code, out = run_cli(capsys, "gen-sharpness", "--dim", "2")
    path = tmp_path / "sharpness.txt"
    path.write_text(out)
    code, payload = run_json(capsys, "redundant", "--t", "4", "--input", str(path))
    assert code == 0
    assert payload["result"]["value"] is True
    assert payload["result"]["subsets_checked"] == 7140  # C(36, 3)


def test_recursion_limit_exits_two(capsys, k4_file, monkeypatch):
    # stands in for any library call that runs past the recursion limit
    def too_deep(g, d):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(combinatorics, "check_lemma7_hypotheses", too_deep)
    code, payload = run_json(capsys, "check-lemma7-hyp", "--input", k4_file)
    assert code == 2 and "recursion" in payload["error"]


def test_field_errors_exit_two(capsys, k4_file):
    for flags in [
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ]:
        code, payload = run_json(capsys, "rank", "--input", k4_file, *flags)
        assert code == 2 and "error" in payload, flags


# every command that reads no input, with its required flags
NO_INPUT_ARGVS = [
    ["gen-ly", "--s", "8"], ["gen-sharpness"], ["gen-harary", "--k", "3", "--s", "6"],
    ["mdk", "--k", "3"], ["check-theorem9"],
]


@pytest.mark.parametrize("argv", NO_INPUT_ARGVS, ids=lambda argv: argv[0])
def test_commands_that_read_nothing_refuse_input(capsys, argv):
    # a pipeline that meant to feed a file to another command gets a usage error
    code, out = exit_and_output(capsys, main, [*argv, "--input", "/nonexistent/x.txt"])
    assert code == 2 and "unrecognized arguments: --input" in json.loads(out)["error"]
    assert "--input" not in exit_and_output(capsys, main, [argv[0], "--help"])[1]


def test_no_input_argvs_name_every_command_that_reads_nothing():
    assert {argv[0] for argv in NO_INPUT_ARGVS} == {
        name for name, cmd in COMMANDS.items() if cmd.reads is None}


#: the required flags of each command that has some, at values valid on K4
REQUIRED_FLAGS = {
    "linked": ["--u", "0", "--v", "2"], "redundant": ["--t", "2"], "gen-ly": ["--s", "8"],
    "gen-harary": ["--k", "3", "--s", "6"], "comblemma": ["--m", "3"], "mdk": ["--k", "3"],
    "wgl": ["--u", "0", "--v", "2", "--v0", "0,1,2,3"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_takes_exactly_the_flags_its_runner_reads(name):
    # a flag the runner never read would be accepted and silently ignored, and a
    # setting it read without taking its flag would be fixed at the namespace default
    cmd, read = COMMANDS[name], set()

    class RecordingArgs(SimpleNamespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    args = RecordingArgs(**vars(parse_direct([name, *REQUIRED_FLAGS.get(name, [])])))
    source = {"graph": parse_graph(K4_TEXT), "text": '{"n": 6, "d": 2, "sets": [[0, 1, 2]]}', None: None}
    cmd.run(source[cmd.reads], args)
    assert read == {flag[2:] for flag in cmd.all_flags if flag != "--input"}


# every (command, flag) pair of a setting the command does not read
UNREAD_SETTINGS = [(name, "--seed") for name in (
    "connectivity", "expected-gpi", "comblemma", "mdk", "grn-bound", "check-lemma7-hyp",
    "gen-ly", "gen-sharpness", "gen-harary")] + [
    (name, "--dim") for name in ("connectivity", "grn-bound", "gen-harary", "comblemma")]


@pytest.mark.parametrize("name, flag", UNREAD_SETTINGS, ids=[f"{n} {f}" for n, f in UNREAD_SETTINGS])
def test_a_setting_the_command_does_not_read_is_a_usage_error(capsys, k4_file, name, flag):
    argv = [name, *REQUIRED_FLAGS.get(name, []), flag, "5"]
    code, out = exit_and_output(capsys, main, argv + ["--input", k4_file] * bool(COMMANDS[name].reads))
    assert code == 2 and json.loads(out) == {
        "schema": "rigidity-forge/1", "error": f"unrecognized arguments: {flag} 5"}
    assert flag not in exit_and_output(capsys, main, [name, "--help"])[1]


def test_unread_settings_name_every_command_without_the_flag():
    assert sorted(UNREAD_SETTINGS) == sorted(
        (name, flag) for name, cmd in COMMANDS.items() for flag in ("--dim", "--seed")
        if flag not in cmd.all_flags)


#: the `params` keys of each JSON command: the settings it takes among dim
#: and seed (comblemma's dim is its JSON's), and the trials and prime of
#: every report that carries its own confidence tag, as each drawn from placements does
PARAMS_KEYS = {
    "connectivity": set(), "grn-bound": set(),
    **dict.fromkeys(("expected-gpi", "check-lemma7-hyp", "mdk", "comblemma"), {"dim"}),
    "gpi": {"dim", "seed"},
    **dict.fromkeys(("rank", "rigid", "globally-rigid", "linked", "redundant", "check-theorem1",
                     "check-theorem2", "check-theorem9", "check-theorem10", "check-lemma6", "wgl"),
                    {"dim", "seed", "trials", "prime"}),
}


@pytest.mark.parametrize("name", PARAMS_KEYS)
def test_params_state_the_settings_the_command_ran_with(capsys, monkeypatch, name):
    cmd = COMMANDS[name]
    system = json.dumps({"n": 8, "d": 3, "sets": [[0, 1, 2, 3]]})  # d = 3: not the --dim default
    argv = [name, *REQUIRED_FLAGS.get(name, []), *["--seed", "7"] * ("--seed" in cmd.all_flags)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(system if cmd.reads == "text" else K4_TEXT))
    code, payload = run_json(capsys, *argv)
    assert code in (0, 1) and "seed" not in payload
    source = {"graph": parse_graph(K4_TEXT), "text": system, None: None}[cmd.reads]
    tagged = "confidence" in getattr(cmd.run(source, parse_direct(argv)), "_fields", ())
    taken = {flag[2:] for flag in cmd.all_flags if flag in ("--dim", "--seed")}
    taken |= {"dim"} if cmd.reads == "text" else set()  # the system's own d
    assert set(payload["params"]) == PARAMS_KEYS[name] == taken | ({"trials", "prime"} if tagged else set())
    values = {"dim": 3 if cmd.reads == "text" else 2, "seed": 7,
              "trials": rigidity.TRIALS, "prime": rigidity.DEFAULT_PRIME}
    assert payload["params"] == {key: values[key] for key in PARAMS_KEYS[name]}


def test_params_keys_name_every_json_command():
    assert set(PARAMS_KEYS) == {name for name in COMMANDS if not name.startswith("gen-")}


def test_missing_input_file(capsys):
    code, payload = run_json(capsys, "rigid", "--input", "/nonexistent/graph.txt")
    assert code == 2 and "cannot read input" in payload["error"]


def test_empty_input_path_is_not_stdin(capsys, monkeypatch):
    # only "-" reads stdin: an empty path (an unset shell variable) is a file that is not there
    monkeypatch.setattr("sys.stdin", io.StringIO(K4_TEXT))
    code, payload = run_json(capsys, "rank", "--input", "")
    assert code == 2 and "cannot read input" in payload["error"]


def test_environment_does_not_configure_the_cli(capsys, k4_file, monkeypatch):
    def outputs():
        return [(code, strip_runtime(out)) for code, out in (
            run_cli(capsys, "rank", "--input", k4_file),
            run_cli(capsys, "gen-harary", "--k", "4", "--s", "7"))]

    plain = outputs()
    for name, value in [("DIM", "3"), ("TRIALS", "x"), ("FORMAT", "text"), ("SEED", "5"),
                        ("PRIME", "15")]:
        monkeypatch.setenv(f"RIGIDITY_FORGE_{name}", value)
    assert outputs() == plain


def test_reruns_are_byte_identical(capsys, k4_file, c4_file, tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"n": 6, "d": 2, "sets": [[0, 1, 2]]}))
    invocations = [
        ("rank", "--input", k4_file, "--seed", "7"),
        ("rigid", "--input", k4_file, "--seed", "7"),
        ("globally-rigid", "--input", k4_file, "--seed", "7"),
        ("linked", "--u", "0", "--v", "2", "--input", c4_file, "--seed", "7"),
        ("redundant", "--t", "2", "--input", k4_file, "--seed", "7"),
        ("connectivity", "--input", k4_file),
        ("gpi", "--input", k4_file, "--seed", "7"),
        ("expected-gpi", "--input", k4_file),
        ("gen-ly", "--dim", "2", "--s", "8"),
        ("gen-sharpness", "--dim", "2"),
        ("gen-harary", "--k", "4", "--s", "7"),
        ("comblemma", "--m", "3", "--input", str(system)),
        ("mdk", "--k", "3"),
        ("grn-bound", "--input", k4_file),
        ("check-theorem1", "--input", k4_file, "--seed", "7"),
        ("check-theorem10", "--input", c4_file, "--seed", "7"),
        ("check-lemma6", "--input", c4_file, "--seed", "7"),
        ("check-lemma7-hyp", "--input", k4_file),
        ("wgl", "--u", "0", "--v", "2", "--v0", "0,1,2,3", "--input", c4_file, "--seed", "7"),
    ]
    for argv in invocations:
        code_a, out_a = run_cli(capsys, *argv)
        code_b, out_b = run_cli(capsys, *argv)
        assert code_a == code_b
        assert strip_runtime(out_a) == strip_runtime(out_b), argv


def run_child(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports this checkout's
    package; `kwargs` go to `subprocess.run`."""
    src = str(Path(rigidity_forge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, **kwargs
    )


def child_output(code: str) -> tuple[list[str], set[str]]:
    """The lines printed by running `code` in a fresh interpreter, and the
    modules loaded after it."""
    out = run_child("-c", code + "\nimport sys; print(' '.join(sys.modules))")
    assert out.returncode == 0, out.stderr
    *printed, modules = out.stdout.splitlines()
    return printed, set(modules.split())


def loaded_modules(code: str) -> set[str]:
    """The modules loaded after running `code` in a fresh interpreter."""
    return child_output(code)[1]


def test_cli_import_leaves_test_oracle_modules_unloaded():
    # structural start-up check: the Monte Carlo oracle lives in the tests,
    # so the CLI has no use for `statistics`; results are NamedTuples, so
    # nothing loads `dataclasses`; and no library module loads before a
    # command asks for it
    lazy = {"experiments", "rigidity", "global_rigidity", "constructions", "combinatorics"}
    unwanted = {"dataclasses", "statistics", *(f"rigidity_forge.{m}" for m in lazy)}
    assert loaded_modules("import rigidity_forge.cli") & unwanted == set()


def test_cli_command_loads_only_its_modules():
    printed, loaded = child_output(
        "from rigidity_forge.cli import main; main(['mdk', '--k', '5'])")
    assert json.loads(printed[0])["result"] == "19/10"
    assert {"rigidity_forge.combinatorics", "fractions"} <= loaded
    assert "rigidity_forge.rigidity" not in loaded
    # the counting commands build no Fraction and run no rigidity code
    unused = {"fractions", "decimal", *(f"rigidity_forge.{m}" for m in (
        "rigidity", "global_rigidity", "constructions", "experiments"))}
    system = json.dumps({"n": 6, "d": 2, "sets": [[0, 1, 2], [3, 4, 5]]})
    for argv, text in [(["comblemma", "--m", "3"], system),
                       (["check-lemma7-hyp"], complete_bipartite_graph(7, 7).to_edge_list())]:
        printed, loaded = child_output(f"import io, sys\nsys.stdin = io.StringIO({text!r})\n"
                                       f"from rigidity_forge.cli import main; main({argv!r})")
        assert json.loads(printed[0])["command"] == argv[0]
        assert "rigidity_forge.combinatorics" in loaded and loaded & unused == set(), argv
    # the constructions run no rigidity code either
    for argv, text in [(["gen-ly", "--s", "6"], ""), (["gpi"], K4_TEXT)]:
        printed, loaded = child_output(f"import io, sys\nsys.stdin = io.StringIO({text!r})\n"
                                       f"from rigidity_forge.cli import main; main({argv!r})")
        assert printed, argv
        assert "rigidity_forge.constructions" in loaded, argv
        assert "rigidity_forge.rigidity" not in loaded, argv


@pytest.mark.parametrize("argv, expected_code", [
    (["rank"], 0),
    (["check-lemma7-hyp"], 1),
    (["rank", "--seed", str(2**64)], 2),  # a setting main refuses
    (["rank", "--bogus"], 2),  # argparse usage error
])
def test_process_entry_point_prints_what_main_prints(capsys, k4_file, argv, expected_code):
    argv = [*argv, "--input", k4_file]
    child = run_child("-m", "rigidity_forge.cli", *argv)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (child.returncode, strip_runtime(child.stdout)) == (
        expected_code, strip_runtime(capsys.readouterr().out))
    assert child.stderr == ""


def _cap_address_space():
    # 1 GB: an input that allocates per claimed vertex dies with a MemoryError
    # here instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, stdin, refusal", [
    (["connectivity"], "100000000 0\n", "vertices"),  # 12 bytes claiming 10^8 vertices
    (["gen-harary", "--k", "2", "--s", "100000000"], "", "vertices"),
    (["gen-ly", "--s", "100000000"], "", "vertices"),
    (["gen-sharpness", "--dim", "1000"], "", "vertices"),
    # under the vertex limit, but with 2*10^8 and 9.8*10^7 edges
    (["gen-harary", "--k", "19998", "--s", "20000"], "", "edges"),
    (["gen-sharpness", "--dim", "99"], "", "edges"),
    # 1.78*10^6 vertices, refused before the base graph and the clique lists
    (["gen-ly", "--dim", "9", "--s", "20000"], "", "vertices"),
    # the header's edge count is refused before the one edge line is read
    (["connectivity"], "3 500001\n0 1\n", "edges"),
    # 500,500 edges: Graph refuses the 500,001st bit as it streams in
    (["connectivity"], graph6(1001, itertools.combinations(range(1001), 2)), "edges"),
], ids=["edge-list header", "gen-harary", "gen-ly", "gen-sharpness",
        "gen-harary dense", "gen-sharpness dense", "gen-ly dense",
        "edge-list header over the edge budget", "graph6 K1001"])
def test_oversized_graphs_are_refused_before_they_are_built(argv, stdin, refusal):
    child = run_child("-m", "rigidity_forge.cli", *argv, input=stdin,
                      preexec_fn=_cap_address_space)
    assert (child.returncode, child.stderr) == (2, "")
    limit = 20000 if refusal == "vertices" else MAX_EDGES
    assert f"{refusal} exceed the limit of {limit}" in json.loads(child.stdout)["error"]


_EDGE_LIST_TEXT = st.text(alphabet="0123456789+- \t\n", max_size=40)
_GRAPH6_CHAR = st.sampled_from(GRAPH6_BYTES.decode())
# a one-byte size field (n <= 62), or "~" then 3 bytes, or "~~" then 6 bytes,
# each possibly cut short
_GRAPH6_SIZE = st.one_of(st.text(_GRAPH6_CHAR, min_size=1, max_size=1),
                         st.text(_GRAPH6_CHAR, max_size=3).map("~".__add__),
                         st.text(_GRAPH6_CHAR, max_size=6).map("~~".__add__))
_GRAPH6_TEXT = st.tuples(st.sampled_from(["", ">>graph6<<"]), _GRAPH6_SIZE,
                         st.text(_GRAPH6_CHAR, max_size=40)).map("".join)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_EDGE_LIST_TEXT, _GRAPH6_TEXT))
def test_any_graph_text_gets_one_json_answer_or_refusal(text):
    # an exception that escapes a parser's own mapping fails here, not at a user
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), out
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GraphFormatWarning)
            code = main(["connectivity"])
    finally:
        sys.stdin, sys.stdout = saved
    assert code in (0, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    assert ("error" in json.loads(lines[0])) == (code == 2)


def test_process_entry_point_writes_output_larger_than_a_pipe_buffer(capsys):
    child = run_child("-m", "rigidity_forge.cli", "gen-ly", "--dim", "2", "--s", "1000")
    assert child.returncode == 0 and len(child.stdout) > 65536
    assert parse_graph(child.stdout) == lovasz_yemini_family(2, 1000)


def test_process_entry_point_freezes_the_heap_before_shutdown():
    # the probe runs at exit, after console_main, and still prints: the freeze
    # keeps atexit and stream flushing
    child = run_child("-c", "import atexit, gc, sys\n"
                      "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                      "sys.argv = ['rigidity-forge', 'mdk', '--k', '5']\n"
                      "from rigidity_forge.cli import console_main; console_main()")
    assert child.returncode == 0, child.stderr
    result, probe = child.stdout.splitlines()
    assert json.loads(result)["result"] == "19/10" and probe == "frozen True"


def test_main_leaves_the_host_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "mdk", "--k", "5")[0] == 0
    assert gc.get_freeze_count() == before


def test_package_names_follow_rebound_module_attributes(monkeypatch):
    # the lazy package stores no copy, so a tracer's or a test's rebinding
    # of a module attribute, and its undoing, show through the package
    original = rigidity_forge.is_rigid
    monkeypatch.setattr(rigidity, "is_rigid", len)
    assert rigidity_forge.is_rigid is len
    monkeypatch.undo()
    assert rigidity_forge.is_rigid is original is rigidity.is_rigid
    assert "is_rigid" in dir(rigidity_forge) and "is_rigid" not in vars(rigidity_forge)


def exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in COMMANDS]
    + [["--help"], [], ["bogus"], ["rigid", "--bogus"], ["wgl", "--u", "1"]],
)
def test_help_and_usage_match_the_full_parser(capsys, argv):
    # main builds only the named command's subparser; what it prints for
    # help and usage errors must not tell
    ours = exit_and_output(capsys, main, argv)
    assert ours == exit_and_output(capsys, build_parser().parse_args, argv)
    assert ours[1]


# -- the direct parser -------------------------------------------------------


def well_formed_argvs(rng, count):
    """`<command> --flag value ...` argvs of every command: each required flag
    and some optional ones, in random order, a few given twice."""
    samples = {"--dim": ["1", "2", "3"], "--seed": ["0", "7", str(2**64 - 1)],
               "--input": ["g.txt", "", "a b", "-"]}
    for name in list(COMMANDS) * count:
        specs = COMMANDS[name].all_flags
        flags = [f for f, spec in specs.items() if spec.get("required") or rng.random() < 0.5]
        flags += rng.sample(flags, min(len(flags), rng.randint(0, 1)))
        rng.shuffle(flags)
        argv = [name]
        for flag in flags:
            spec = specs[flag]
            argv.append(flag)
            if flag in samples:
                argv.append(rng.choice(samples[flag]))
            elif "type" in spec:
                argv.append(str(rng.randint(0, 40)))
            else:
                argv.append("0,1,2")
        yield argv


def test_direct_parse_matches_argparse_on_every_command():
    seen = set()
    for argv in well_formed_argvs(random.Random(15), 8):
        ours = parse_direct(argv)
        assert ours is not None, argv
        assert vars(ours) == vars(build_parser().parse_args(argv)), argv
        seen.add(argv[0])
    assert seen == set(COMMANDS)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--dim", "2", "rank"], ["rank", "--help"], ["rank", "-h"],
    ["rank", "--di", "2"], ["rank", "--dim=2"], ["rank", "--seed", "-1"],
    ["rank", "--input", "-x"], ["rank", "--dim", "-"], ["rank", "--dim", "x"],
    ["rank", "--format", "xml"], ["rank", "--dim"], ["rank", "2"],
    ["rank", "--", "--dim", "2"], ["linked", "--u", "1"], ["check-theorem9", "--allow-large", "1"],
])
def test_malformed_argv_falls_back_to_argparse(argv):
    assert parse_direct(argv) is None


def test_argparse_forms_give_the_same_output(capsys, k4_file):
    # what only argparse parses still runs, and prints what the direct form prints
    for odd, plain in [
        (["rank", f"--input={k4_file}", "--d", "3"], ["rank", "--input", k4_file, "--dim", "3"]),
        (["mdk", "--k=3"], ["mdk", "--k", "3"]),
        (["check-theorem9", "--dim", "2", "--seed", "-1"], ["check-theorem9", "--dim", "2", "--seed", str(2**64)]),
    ]:
        assert parse_direct(odd) is None and parse_direct(plain) is not None
        odd_code, odd_out = run_cli(capsys, *odd)
        plain_code, plain_out = run_cli(capsys, *plain)
        assert (odd_code, strip_runtime(odd_out)) == (plain_code, strip_runtime(plain_out)), odd


def test_readme_cli_section_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    real = set().union(*(cmd.all_flags for cmd in COMMANDS.values()))
    assert sorted(named - real - {"--help"}) == []
    assert sorted(real - named) == []


def test_input_digest_is_the_sha256_prefix(capsys, k4_file):
    for text in ["", "4 6\n", "\u00e9" * 1000]:
        assert cli.sha256(text.encode()).hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    _, payload = run_json(capsys, "rank", "--input", k4_file)
    canonical = parse_graph(K4_TEXT).to_edge_list().encode()
    assert payload["input_digest"] == hashlib.sha256(canonical).hexdigest()[:16]


def test_well_formed_call_loads_neither_argparse_nor_openssl():
    run = ("import io, sys\nfrom rigidity_forge.cli import main\n"
           f"sys.stdin = io.StringIO({K4_TEXT!r})\n")
    loaded = loaded_modules(run + "main(['rigid', '--dim', '2', '--seed', '3'])")
    assert "rigidity_forge.rigidity" in loaded
    assert loaded & {"argparse", "hashlib", "_hashlib", "locale"} == set()
    # help still goes through argparse
    loaded = loaded_modules(run + "try:\n    main(['rigid', '--help'])\nexcept SystemExit as e:\n"
                            "    assert e.code == 0")
    assert "argparse" in loaded
