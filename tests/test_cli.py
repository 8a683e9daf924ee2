import json
import re

import pytest

from rigidity_forge.cli import main
from rigidity_forge.graph_core import (
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


def test_usage_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code, payload = run_json(capsys, "rigid", "--input", str(bad))
    assert code == 2 and "line 2" in payload["error"]

    code, payload = run_json(capsys, "mdk", "--k", "99")
    assert code == 2 and "error" in payload

    code, payload = run_json(capsys, "rank", "--prime", "1000", "--input", str(bad))
    assert code == 2

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "error" in json.loads(capsys.readouterr().out)


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


def test_missing_input_file(capsys):
    code, payload = run_json(capsys, "rigid", "--input", "/nonexistent/graph.txt")
    assert code == 2 and "cannot read input" in payload["error"]


def test_env_override_with_flag_precedence(capsys, k4_file, monkeypatch):
    monkeypatch.setenv("RIGIDITY_FORGE_DIM", "3")
    _, payload = run_json(capsys, "rank", "--input", k4_file)
    assert payload["params"]["dim"] == 3
    _, payload = run_json(capsys, "rank", "--dim", "2", "--input", k4_file)
    assert payload["params"]["dim"] == 2


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
