"""The benchmark's seed-1 invocations give the outputs pinned in
``golden/bench_seed1.json``.

Each entry holds one invocation's workload, argv, the sha256 of its stdin,
its exit code and the sha256 of its stdout with ``runtime_ms`` removed; the
CLI runs in-process on the inputs ``perfbench/workloads.py`` generates
(imported, never changed, here).  A change that alters any of these outputs
changes the program's output; a change to the workloads regenerates the file
with ``PYTHONPATH=src python tests/test_bench_outputs.py``, and a change of
output lists the entries it changes.
"""

import hashlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from rigidity_forge import cli  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "bench_seed1.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bench_outputs() -> list[dict]:
    out = []
    for name, workload in workloads.WORKLOADS.items():
        for inv in workload.build(1):
            saved = sys.stdin, sys.stdout
            sys.stdin, sys.stdout = io.StringIO(inv.stdin), io.StringIO()
            try:
                code = cli.main(list(inv.args))
                stdout = sys.stdout.getvalue()
            finally:
                sys.stdin, sys.stdout = saved
            out.append({"workload": name, "argv": list(inv.args), "stdin_sha256": sha256(inv.stdin),
                        "code": code,
                        "stdout_sha256": sha256(re.sub(r'"runtime_ms": \d+', "", stdout))})
    return out


def test_bench_seed1_outputs_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = bench_outputs()
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected) == 52


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(bench_outputs(), indent=1) + "\n")
