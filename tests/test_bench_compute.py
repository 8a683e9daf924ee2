"""``bench/compute.py``, the in-process compute probe, on a two-invocation list."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import compute  # noqa: E402


CALLS = [(name, inv) for name, inv in compute.seed1_invocations() if name == "counting"]


def two_invocations():
    """The first `comblemma` and the first `expected-gpi` call of `counting`."""
    return [next(c for c in CALLS if c[1].command == command)
            for command in ("comblemma", "expected-gpi")]


def test_probe_reports_medians_per_command_and_fails_on_a_changed_output(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(compute, "seed1_invocations", two_invocations)
    assert compute.main() == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passes"] == 3 and result["mismatches"] == []
    assert list(result["workloads"]) == ["counting"]
    counting = result["workloads"]["counting"]
    assert sorted(counting["commands"]) == ["comblemma", "expected-gpi"]
    assert 0 < max(counting["commands"].values()) <= counting["compute_s"]
    # beside the medians: each timed pass's total and the host reading before it
    assert len(counting["pass_s"]) == len(result["host.ref_loop_ms"]) == 3
    assert sorted(counting["pass_s"])[1] == counting["compute_s"]
    assert all(ms > 0 for ms in result["host.ref_loop_ms"])
    # and the slowest invocations, each by its median over the passes
    slowest = counting["slowest"]
    assert sorted(call["argv"] for call in slowest) == sorted(" ".join(inv.args) for _, inv in two_invocations())
    assert [call["ms"] for call in slowest] == sorted((call["ms"] for call in slowest), reverse=True)
    assert all(call["ms"] > 0 for call in slowest)

    golden = json.loads(compute.GOLDEN.read_text())
    name, gpi = two_invocations()[1]
    changed = next(g for g in golden if g["argv"] == list(gpi.args))
    changed["stdout_sha256"] = "0" * 64
    (tmp_path / "golden.json").write_text(json.dumps(golden))
    monkeypatch.setattr(compute, "GOLDEN", tmp_path / "golden.json")
    assert compute.main() == 1
    assert json.loads(capsys.readouterr().out)["mismatches"] == [f"{name}: {' '.join(gpi.args)}"]
