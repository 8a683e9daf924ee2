import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import rigidity_forge
from rigidity_forge import cli, combinatorics, experiments, rigidity
from rigidity_forge.cli import COMMANDS, build_parser, main, parse_direct
from rigidity_forge.constructions import lovasz_yemini_family, sharpness_example
from rigidity_forge.graph_core import (
    MAX_EDGES,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_graph,
)

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


def test_text_format_from_flag(capsys, k4_file):
    expected = "command: rank\nresult: 5\nconfidence: certain\nseed: 0\n"
    assert run_cli(capsys, "rank", "--format", "text", "--input", k4_file) == (0, expected)


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
    for argv, n in [
        (("gen-sharpness", "--dim", "2"), 12),
        (("gen-harary", "--k", "5", "--s", "8"), 8),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        g = parse_graph(out)
        assert g.n == n
        assert parse_graph(g.to_edge_list()) == g


def test_generator_json_format(capsys):
    code, payload = run_json(capsys, "gen-harary", "--k", "2", "--s", "5", "--format", "json")
    assert code == 0
    assert payload["result"]["n"] == 5 and payload["result"]["m"] == 5


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

    code, payload = run_json(capsys, "check-lemma6", "--orderings", "5", "--input", k4_file)
    assert code == 0 and payload["result"]["passed"] is True


@pytest.mark.parametrize("orderings", ["0", "-3"])
def test_check_lemma6_refuses_fewer_than_one_ordering(capsys, c4_file, orderings):
    code, payload = run_json(capsys, "check-lemma6", "--orderings", orderings, "--input", c4_file)
    assert code == 2 and payload["error"] == "orderings must be at least 1"


def test_usage_errors_exit_two(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code, payload = run_json(capsys, "rigid", "--input", str(bad))
    assert code == 2 and "line 2" in payload["error"]

    code, payload = run_json(capsys, "check-theorem9", "--dim", "1")
    assert code == 2 and payload["error"] == "requires dimension >= 2"

    # a JSON number too large for a float overflows int()
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 1e400, "sets": []}\n'))
    code, payload = run_json(capsys, "comblemma", "--m", "3")
    assert code == 2 and "error" in payload

    code, payload = run_json(capsys, "mdk", "--k", "99")
    assert code == 2 and "error" in payload

    code, payload = run_json(capsys, "rank", "--prime", "1000", "--input", str(bad))
    assert code == 2

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
        ("--prime", str(2**61 - 3)),  # composite
        ("--prime", "97"),  # prime, but too small for negligible failure odds
        # 399165290221 * 798330580441: a strong pseudoprime to every base of
        # is_prime, which is exact only below 2^64
        ("--prime", "318665857834031151167461"),
        ("--prime", str(2**89 - 1)),  # a prime above 2^64
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


@pytest.mark.parametrize("argv, expected_code", [
    (["rank"], 0),
    (["check-lemma7-hyp"], 1),
    (["rank", "--prime", str(2**61 - 3)], 2),  # composite
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
], ids=["edge-list header", "gen-harary", "gen-ly", "gen-sharpness",
        "gen-harary dense", "gen-sharpness dense", "gen-ly dense"])
def test_oversized_graphs_are_refused_before_they_are_built(argv, stdin, refusal):
    child = run_child("-m", "rigidity_forge.cli", *argv, input=stdin,
                      preexec_fn=_cap_address_space)
    assert (child.returncode, child.stderr) == (2, "")
    limit = 20000 if refusal == "vertices" else MAX_EDGES
    assert f"{refusal} exceed the limit of {limit}" in json.loads(child.stdout)["error"]


def test_process_entry_point_writes_output_larger_than_a_pipe_buffer(capsys):
    child = run_child("-m", "rigidity_forge.cli", "gen-ly", "--dim", "2", "--s", "1000")
    assert child.returncode == 0 and len(child.stdout) > 65536
    assert parse_graph(child.stdout) == lovasz_yemini_family(2, 1000)[0]


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
               "--trials": ["1", "3"], "--prime": [str(2**61 - 1)],
               "--input": ["g.txt", "", "a b", "-"], "--format": ["json", "text"]}
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
        (["mdk", "--k", "3", "--seed", "-1"], ["mdk", "--k", "3", "--seed", str(2**64)]),
    ]:
        assert parse_direct(odd) is None and parse_direct(plain) is not None
        odd_code, odd_out = run_cli(capsys, *odd)
        plain_code, plain_out = run_cli(capsys, *plain)
        assert (odd_code, strip_runtime(odd_out)) == (plain_code, strip_runtime(plain_out)), odd


def test_readme_cli_section_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    real = {"--help"}.union(*(cmd.all_flags for cmd in COMMANDS.values()))
    assert "--dim" in named and "--ordering" in named
    assert sorted(named - real) == []


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
