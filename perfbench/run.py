"""Benchmark of the rigidity-forge CLI on seeded, fixed invocation lists.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload counting --seed 1 --seconds 48 --trace 0

One client runs one CLI process at a time (a closed loop).  ``--trace 0``
runs the untraced passes: each invocation is a child process
``python -m rigidity_forge.cli`` with ``PYTHONPATH=<checkout>/src``, and the
end-to-end metrics come from their wall times.  ``--trace 1`` runs one such
pass for ``cli.overhead_ms``, then each invocation twice in-process through
``rigidity_forge.cli.main(argv)``, untraced and then traced, which gives the
per-layer metrics and the tracing overhead.  Every output is checked by
:mod:`oracle` after the timed passes.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (environment, per-pass figures, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: The program's bytecode cache, emptied before each set-up so that each
#: set-up compiles the program.
PYCACHE = SRC / tracing.PACKAGE / "__pycache__"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
#: A child still running after this many seconds is a hang: it is killed and
#: counts as failed, and no later child is started.  The longest invocation
#: takes about 4 s on the box named above, so only a hang reaches it.
HANG_S = 60
#: Tail samples: the tail is the highest percentile with this many beyond it.
TAIL_BEYOND = 10

#: The denominator of each traced ratio, printed beside it.
RATIO_BASES = {
    "rigidity.trial_use_ratio": "rigidity.trials_requested",
    "global_rigidity.stress_hit_ratio": "global_rigidity.stress_trials",
}


class BenchError(RuntimeError):
    """The checkout under test cannot be benchmarked."""


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIGIDITY_FORGE_")}
    env["PYTHONPATH"] = str(SRC)
    # children write and read the program's bytecode, whatever the caller set
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(key, None)
    return env


def inside_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT)


def import_program():
    """Import the CLI from <checkout>/src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import rigidity_forge.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import rigidity_forge from {SRC}: {exc}") from None
    if not inside_checkout(cli.__file__):
        raise BenchError(f"rigidity_forge resolves outside the checkout: {cli.__file__}")
    return cli


def warm_up() -> str:
    """One child that imports the whole CLI, compiling its bytecode."""
    proc = subprocess.run(
        [sys.executable, "-c", "import rigidity_forge.cli as c; print(c.__file__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=HANG_S,
    )
    path = proc.stdout.strip()
    if proc.returncode != 0 or not inside_checkout(path):
        raise BenchError(f"child import failed or resolved outside the checkout: {path or proc.stderr}")
    return path


def ref_loop_ms() -> float:
    """Host-drift reading: a fixed pure-Python loop.  A diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i & 7
    return (time.perf_counter() - start) * 1000


def git_sha() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=dict(os.environ, GIT_DIR=str(git_dir)), timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# -- running invocations -------------------------------------------------------


def run_child(inv: workloads.Invocation, env, hung: list[bool]) -> dict:
    """Run one invocation as a child process; code None means it hung, or
    that an earlier child hung and this one was not started."""
    argv = [sys.executable, "-m", "rigidity_forge.cli", *inv.args]
    start = time.perf_counter()
    code, stdout = None, ""
    if not hung[0]:
        try:
            proc = subprocess.run(argv, input=inv.stdin, capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=HANG_S)
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            hung[0] = True
    return {"wall_s": time.perf_counter() - start, "code": code, "stdout": stdout}


def run_in_process(cli, inv: workloads.Invocation) -> dict:
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(inv.stdin), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(list(inv.args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        code = None
    finally:
        wall = time.perf_counter() - start
        stdout = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return {"wall_s": wall, "code": code, "stdout": stdout}


def run_pass(invocations, run_one) -> dict:
    ref = ref_loop_ms()
    start = time.perf_counter()
    records = [run_one(inv) for inv in invocations]
    return {"wall_s": time.perf_counter() - start, "host.ref_loop_ms": ref, "records": records}


def paired_passes(invocations, cli, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """An untraced and a traced in-process pass, run invocation by invocation
    so that each traced call directly follows its untraced twin and host
    drift cancels out of the tracing overhead."""
    ref = ref_loop_ms()
    plain, traced = [], []
    for inv in invocations:
        plain.append(run_in_process(cli, inv))
        tracer.install()
        try:
            traced.append(run_in_process(cli, inv))
        finally:
            tracer.uninstall()
    return tuple({"wall_s": sum(r["wall_s"] for r in records), "host.ref_loop_ms": ref,
                  "records": records} for records in (plain, traced))


# -- metrics ---------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def check_outputs(invocations, passes, judge: oracle.Oracle) -> list[str]:
    """Failure reasons, one per wrong output, over every pass."""
    failures = []
    for p in passes:
        for inv, rec in zip(invocations, p["records"]):
            reason = judge.check(inv, rec["code"], rec["stdout"])
            if reason:
                failures.append(f"{' '.join(inv.args)}: {reason}")
    return failures


def cli_overhead_ms(p: dict) -> float:
    """Median of process wall time minus the runtime the CLI reports."""
    gaps = []
    for rec in p["records"]:
        try:
            runtime = json.loads(rec["stdout"].strip().splitlines()[-1])["runtime_ms"]
        except (IndexError, ValueError, KeyError, TypeError):
            continue
        gaps.append(rec["wall_s"] * 1000 - runtime)
    return statistics.median(gaps) if gaps else None


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    samples = [r["wall_s"] * 1000 for p in passes for r in p["records"]]
    value, pct, n = tail(samples)
    metrics = {
        "batch_s": statistics.median(p["wall_s"] for p in passes),
        "query_p50_ms": statistics.median(samples),
        "query_tail_ms": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    return metrics, {"query_tail_percentile": pct, "query_tail_samples": n}


def result_line(metrics: dict, units: dict, failed: int, attempted: int) -> dict:
    """The benchmark's verdict: correct only when no invocation failed."""
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# -- driver ------------------------------------------------------------------------


def passes_for(workload: str, seconds: int) -> int:
    """The pass count comes from --seconds and the workload's nominal pass
    time, never from a clock reading, so that two commits are always
    compared on the same number of samples (the tail percentile depends on
    it)."""
    return max(1, round(seconds / workloads.WORKLOADS[workload].pass_s))


def setup(workload: str, seed: int) -> tuple[list, list[float], str]:
    """Generate the inputs and warm up, SETUP_REPEATS times; all are timed.
    Each warm-up starts from an empty bytecode cache, so each one compiles."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(PYCACHE, ignore_errors=True)
        start = time.perf_counter()
        invocations = workloads.WORKLOADS[workload].build(seed)
        child_path = warm_up()
        times.append(time.perf_counter() - start)
    return invocations, times, child_path


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cli = import_program()
    invocations, setup_times, child_path = setup(workload, seed)
    env = child_env()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "python": sys.version, "nproc": os.cpu_count(),
        "platform": platform.platform(), "module_path": cli.__file__,
        "child_module_path": child_path, "setup_times_s": setup_times,
        "invocations": len(invocations),
    }

    hung = [False]

    def child(inv):
        return run_child(inv, env, hung)

    metrics: dict = {}
    if not trace:
        passes = [run_pass(invocations, child) for _ in range(passes_for(workload, seconds))]
        metrics, extra = end_to_end(passes, setup_times)
        record.update(extra)
    else:
        passes = [run_pass(invocations, child)]
        # an in-process call cannot be timed out: skip them if a child hung
        if not hung[0]:
            tracer = tracing.Tracer()
            passes.extend(paired_passes(invocations, cli, tracer))
            metrics = tracing.layer_metrics(tracer)
            metrics["cli.overhead_ms"] = cli_overhead_ms(passes[0])
            metrics["trace.overhead_ratio"] = passes[2]["wall_s"] / passes[1]["wall_s"]
            record["counts"] = dict(tracer.counts)
            record["spans"] = [(n, round(s, 7), round(e, 7), p) for n, s, e, p in tracer.spans]
    failures = check_outputs(invocations, passes, oracle.Oracle())
    record["passes"] = [
        {"wall_s": p["wall_s"], "host.ref_loop_ms": p["host.ref_loop_ms"],
         "query_wall_ms": [r["wall_s"] * 1000 for r in p["records"]]}
        for p in passes
    ]
    record["failures"] = failures
    record["attempted"] = len(invocations) * len(passes)
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("RIGIDITY_FORGE_")]:
        del os.environ[key]
    try:
        metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2

    failed = len(record["failures"])
    attempted = record["attempted"]
    units = metric_units(bool(args.trace))
    present = {k: v for k, v in metrics.items() if v is not None}
    absent = sorted(k for k, v in metrics.items() if v is None)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["metrics"] = present
    record["absent_metrics"] = absent
    out_file.write_text(json.dumps(record))

    for reason in record["failures"]:
        print(f"FAILED {reason}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(record['passes'])}  "
          f"python {platform.python_version()}  nproc {record['nproc']}  sha {record['git_sha']}")
    print(f"module {record['module_path']}")
    for i, p in enumerate(record["passes"]):
        print(f"pass {i}: {p['wall_s']:.3f} s  host.ref_loop_ms {p['host.ref_loop_ms']:.2f}")
    if "query_tail_percentile" in record:
        print(f"query_tail_ms is p{record['query_tail_percentile']:.1f} "
              f"of {record['query_tail_samples']} invocations")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    for name, base in RATIO_BASES.items():
        if name in present:
            print(f"{name} has base {base} = {record['counts'].get(base, 0)}")
    for name, value in present.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if absent:
        print(f"absent: {', '.join(absent)}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    result = result_line(present, units, failed, attempted)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
