"""The benchmark's seed-1 invocations give the outputs pinned in
``golden/bench_seed1.json``.

Each entry holds one invocation's workload, argv, the sha256 of its stdin,
its exit code and the sha256 of its stdout with ``runtime_ms`` removed; the
CLI runs in-process, through ``bench/compute.py``'s runner, on the inputs
``perfbench/workloads.py`` generates (imported, never changed, there).  A change that alters any of these outputs
changes the program's output; a change to the workloads regenerates the file
with ``PYTHONPATH=src python tests/test_bench_outputs.py``, and a change of
output lists the entries it changes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from compute import GOLDEN, run, seed1_invocations  # noqa: E402


def bench_outputs() -> list[dict]:
    return [run(name, inv)[0] for name, inv in seed1_invocations()]


def test_bench_seed1_outputs_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = bench_outputs()
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected) == 52


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(bench_outputs(), indent=1) + "\n")
