"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps the package's public functions and reads
counts off the arguments of a few of them (its hooks).  When such a
function is renamed or deleted, or a hooked argument stops binding, the
traced benchmark run reports the metric as absent.  This guard runs one
in-process CLI call per hooked function and per command of the ``counting``
workload under the tracer, plus one through the plane route's stress
fallback (and calls the two hooked functions no command reaches directly),
and fails on any absent metric.
"""

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from rigidity_forge import cli, combinatorics, modlinalg  # noqa: E402

K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
K44 = "8 16\n" + "".join(f"{u} {v}\n" for u in range(4) for v in range(4, 8))
K77 = "14 49\n" + "".join(f"{u} {v}\n" for u in range(7) for v in range(7, 14))
K5_LESS_AN_EDGE = "5 9\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
K6_LESS_AN_EDGE = "6 14\n" + "".join(
    f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1))

INVOCATIONS = [
    (["rank"], K4),
    (["redundant", "--t", "3"], K4),  # t - 1 = 2 sampled stresses per placement
    (["linked", "--u", "0", "--v", "1"], K5_LESS_AN_EDGE),
    (["globally-rigid", "--dim", "3"], K6_LESS_AN_EDGE),
    (["globally-rigid"], K44),  # in no K4: the plane route draws its stress
    (["connectivity"], K5_LESS_AN_EDGE),
    (["check-lemma7-hyp"], K77),
    (["expected-gpi"], K4),
    (["comblemma", "--m", "3"], '{"n": 6, "d": 2, "sets": [[0, 1, 2], [3, 4, 5]]}'),
    (["gpi", "--seed", "7"], K4),
]


def test_every_hook_runs_and_every_layer_metric_is_present(monkeypatch):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, stdin in INVOCATIONS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            assert cli.main(argv) == 0, argv
        system = combinatorics.CliqueSystem(8, 3, [[0, 1, 2, 3, 4], [4, 5, 6, 7]])
        assert combinatorics.covered_subset_count(system, 4, "enumerate") == 6
        m = modlinalg.ModMatrix([{0: 1}, {0: 2}, {1: 1}], 2)
        assert modlinalg.left_kernel_basis(m) == [[modlinalg.DEFAULT_PRIME - 2, 1, 0]]
    finally:
        tracer.uninstall()
    assert set(tracing.HOOKS) <= {name for name, *_ in tracer.spans}
    assert tracer.broken_hooks == set()
    metrics = tracing.layer_metrics(tracer)
    assert [name for name, value in metrics.items() if value is None] == []
