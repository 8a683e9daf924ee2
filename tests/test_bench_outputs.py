"""The benchmark's invocations at seeds 1, 2 and 3 give the outputs pinned in
``golden/bench_seed1.json`` and ``golden/bench_seed23.json``.

Each entry holds one invocation's workload, argv, the sha256 of its stdin,
its exit code and the sha256 of its stdout with ``runtime_ms`` removed; the
CLI runs in-process, through ``bench/compute.py``'s runner, on the inputs
``perfbench/workloads.py`` generates (imported, never changed, there).  A change that alters any of these outputs
changes the program's output; a change to the workloads regenerates both files
with ``PYTHONPATH=src python tests/test_bench_outputs.py``, and a change of
output lists the entries it changes.
"""

import json
import sys
from pathlib import Path

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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(bench_outputs(seed1_invocations()), indent=1) + "\n")
    GOLDEN23.write_text(json.dumps(bench_outputs(seed23_invocations()), indent=1) + "\n")
