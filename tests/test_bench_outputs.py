"""The benchmark's invocations at seeds 1, 2 and 3 give the outputs pinned in
``golden/bench_seed1.json`` and ``golden/bench_seed23.json``.

Each entry holds one invocation's workload, argv, the sha256 of its stdin,
its exit code and the sha256 of its stdout with ``runtime_ms`` removed; the
CLI runs in-process, through ``bench/compute.py``'s runner, on the inputs
``perfbench/workloads.py`` generates (imported, never changed, there).  A change that alters any of these outputs
changes the program's output; a change to the workloads regenerates both files
with ``PYTHONPATH=src python tests/test_bench_outputs.py``, which prints the
file, workload and argv of each entry whose record it changed, and a change of
output lists those entries.
"""

import io
import json
import sys
from pathlib import Path

from rigidity_forge import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from compute import GOLDEN, run, seed1_invocations, workloads  # noqa: E402

GOLDEN23 = GOLDEN.with_name("bench_seed23.json")


def seed23_invocations() -> list[tuple[str, workloads.Invocation]]:
    return [(name, inv) for seed in (2, 3)
            for name, w in workloads.WORKLOADS.items() for inv in w.build(seed)]


def bench_outputs(invocations) -> list[dict]:
    return [run(name, inv)[0] for name, inv in invocations]


def check_outputs(golden: Path, invocations, count: int) -> None:
    expected = json.loads(golden.read_text())
    actual = bench_outputs(invocations)
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected) == count


def test_bench_seed1_outputs_match_golden_file():
    check_outputs(GOLDEN, seed1_invocations(), 52)


def test_bench_seed2_and_seed3_outputs_match_golden_file():
    check_outputs(GOLDEN23, seed23_invocations(), 104)


def nested_tags(obj) -> list[str]:
    """Every `confidence` value inside a printed result, depth first."""
    if isinstance(obj, dict):
        own = [obj["confidence"]] if "confidence" in obj else []
        return own + [t for v in obj.values() for t in nested_tags(v)]
    if isinstance(obj, list):
        return [t for v in obj for t in nested_tags(v)]
    return []


def test_no_command_prints_a_stronger_tag_than_a_verdict_in_its_result(capsys, monkeypatch):
    invocations = [inv for _, inv in seed1_invocations()]
    # check-theorem1 is run on check-theorem2's inputs, which it gets nowhere else
    invocations += [workloads.Invocation(("check-theorem1",) + inv.args[1:], inv.stdin)
                    for inv in invocations if inv.command == "check-theorem2"]
    for inv in invocations:
        monkeypatch.setattr(sys, "stdin", io.StringIO(inv.stdin))
        cli.main(list(inv.args))
        payload = json.loads(capsys.readouterr().out)
        tags = nested_tags(payload["result"])
        assert payload["confidence"] == "whp" or "whp" not in tags, inv.args
        if inv.command in ("check-theorem1", "check-theorem2"):
            # a checked report prints its verdict's tag, an inapplicable one certain
            assert [payload["confidence"]] == (tags or ["certain"]), inv.args


def record_key(record: dict) -> tuple:
    return record["workload"], tuple(record["argv"]), record["stdin_sha256"]


def regenerate(golden: Path, invocations) -> list[dict]:
    """Rewrite a golden file from the current outputs; return the records that
    differ from, or are missing in, the file as it was."""
    old = {record_key(r): r for r in json.loads(golden.read_text())} if golden.exists() else {}
    records = bench_outputs(invocations)
    golden.write_text(json.dumps(records, indent=1) + "\n")
    return [r for r in records if old.get(record_key(r)) != r]


def test_regenerate_reports_only_the_records_that_changed(tmp_path):
    invocations = seed1_invocations()[:3]
    golden = tmp_path / "golden.json"
    assert regenerate(golden, invocations) == bench_outputs(invocations)  # all new
    assert regenerate(golden, invocations) == []
    records = json.loads(golden.read_text())
    records[1]["stdout_sha256"] = "stale"
    golden.write_text(json.dumps(records))
    assert regenerate(golden, invocations) == bench_outputs(invocations)[1:2]


if __name__ == "__main__":
    for path, invocations in ((GOLDEN, seed1_invocations()), (GOLDEN23, seed23_invocations())):
        changed = regenerate(path, invocations)
        for record in changed:
            print(path.name, record["workload"], " ".join(record["argv"]))
        print(f"{path.name}: {len(changed)} of {len(invocations)} records changed")
