"""In-process compute time of the benchmark workloads (`compute_s`).

Usage, from the root of a checkout:

    PYTHONPATH=src python bench/compute.py

A pass runs every seed-1 invocation of each workload in
``perfbench/workloads.py`` (imported, never changed) through
``rigidity_forge.cli.main`` in this process, timing each call.  One untimed
pass first loads and compiles the command modules.  The JSON printed gives,
per workload, the median over PASSES passes of the summed call times
(``compute_s``) and of each command's share, the SLOWEST invocations by
their median milliseconds (``slowest``: argv, input digest as in the golden
file, and ``ms``), and beside them each pass's total (``pass_s``) and, per
pass, perfbench's host-drift reading (``host.ref_loop_ms``, taken before the
pass), so that a slow run shows whether the host or the program slowed.  Unlike perfbench's wall times
it leaves out interpreter start and import, so it is the figure an
algorithmic change moves.  Every output is checked against the digests in
``tests/golden/bench_seed1.json``; the exit code is 1 when any differs.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import ref_loop_ms  # noqa: E402

from rigidity_forge import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "bench_seed1.json"
PASSES = 3
SLOWEST = 5


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(name: str, inv: workloads.Invocation) -> tuple[dict, float]:
    """One invocation through ``cli.main``: its golden-file record (exit code
    and the digest of stdout less ``runtime_ms``) and its seconds."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(inv.stdin), io.StringIO()
    try:
        started = time.perf_counter()
        code = cli.main(list(inv.args))
        seconds = time.perf_counter() - started
        stdout = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return {"workload": name, "argv": list(inv.args), "stdin_sha256": sha256(inv.stdin),
            "code": code,
            "stdout_sha256": sha256(re.sub(r'"runtime_ms": \d+', "", stdout))}, seconds


def seed1_invocations() -> list[tuple[str, workloads.Invocation]]:
    return [(name, inv) for name, w in workloads.WORKLOADS.items() for inv in w.build(1)]


def measure(invocations: list[tuple[str, workloads.Invocation]], golden: list[dict],
            passes: int) -> dict:
    """Medians over ``passes`` timed passes, after one untimed one, and the
    argv of every invocation whose output differs from its golden record."""
    expected = {(g["workload"], tuple(g["argv"]), g["stdin_sha256"]): g for g in golden}
    totals: dict[str, list[float]] = defaultdict(list)
    by_command: dict[tuple[str, str], list[float]] = defaultdict(list)
    by_call: dict[int, list[float]] = defaultdict(list)  # by position in the invocation list
    ref_ms: list[float] = []
    mismatches = set()
    for i in range(passes + 1):
        ref = ref_loop_ms()
        pass_s: dict[str, float] = defaultdict(float)
        command_s: dict[tuple[str, str], float] = defaultdict(float)
        for at, (name, inv) in enumerate(invocations):
            record, seconds = run(name, inv)
            if expected.get((name, inv.args, record["stdin_sha256"])) != record:
                mismatches.add((name, " ".join(inv.args)))
            pass_s[name] += seconds
            command_s[name, inv.command] += seconds
            if i:
                by_call[at].append(seconds)
        if i:  # pass 0 warms up
            ref_ms.append(round(ref, 3))
            for name, s in pass_s.items():
                totals[name].append(s)
            for key, s in command_s.items():
                by_command[key].append(s)
    report = {name: {"compute_s": round(statistics.median(s), 4),
                     "pass_s": [round(x, 4) for x in s], "commands": {}, "slowest": []}
              for name, s in totals.items()}
    for (name, command), s in sorted(by_command.items()):
        report[name]["commands"][command] = round(statistics.median(s), 4)
    call_ms = sorted(((statistics.median(s) * 1000, at) for at, s in by_call.items()), reverse=True)
    for ms, at in call_ms:
        name, inv = invocations[at]
        if len(report[name]["slowest"]) < SLOWEST:
            report[name]["slowest"].append({"argv": " ".join(inv.args), "stdin_sha256": sha256(inv.stdin),
                                            "ms": round(ms, 2)})
    return {"passes": passes, "host.ref_loop_ms": ref_ms, "workloads": report,
            "mismatches": [f"{name}: {argv}" for name, argv in sorted(mismatches)]}


def main() -> int:
    result = measure(seed1_invocations(), json.loads(GOLDEN.read_text()), PASSES)
    print(json.dumps(result, indent=1))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
