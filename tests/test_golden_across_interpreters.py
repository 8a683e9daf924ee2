"""The seed-1 benchmark outputs are the same under every other CPython on PATH.

``pyproject.toml`` accepts CPython 3.10 and later, the CLI picks its sha256
module by version, and every verdict is reproducible from its seed, so the
digests pinned in ``golden/bench_seed1.json`` must come out the same under
each of ``python3.10``, ``python3.12`` and ``python3.13``.  Each one found on
PATH replays the seed-1 invocations once, through ``bench/compute.py``'s
runner, and prints their records for this test to compare; it needs no
pytest.  An interpreter that is absent, or whose ``-c pass`` does not exit 0
(a version manager's shim for a version it has not selected, say), is
skipped.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "bench_seed1.json"
REPLAY = """
import json, sys
sys.path[:0] = sys.argv[1:]
from compute import run, seed1_invocations
print(json.dumps([run(name, inv)[0] for name, inv in seed1_invocations()]))
"""


def runnable(name: str) -> str | None:
    """The path of `name` on PATH if `name -c pass` exits 0 there, else None."""
    path = shutil.which(name)
    if path is None:
        return None
    try:
        probe = subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return path if probe.returncode == 0 else None


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_bench_seed1_outputs_match_golden_file_under(name):
    path = runnable(name)
    if path is None:
        pytest.skip(f"no runnable {name} on PATH")
    # -I: the interpreter reads no PYTHON* variable and no user site, only the two paths given
    replay = subprocess.run([path, "-I", "-c", REPLAY, str(ROOT / "src"), str(ROOT / "bench")],
                            capture_output=True, text=True, timeout=300)
    assert replay.returncode == 0, replay.stderr
    records = json.loads(replay.stdout)
    expected = json.loads(GOLDEN.read_text())
    for want, got in zip(expected, records):
        assert got == want, name
    assert len(records) == len(expected) == 52
