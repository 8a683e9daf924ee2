"""Tests of the benchmark's own logic: span arithmetic, the oracle, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("rigidity.generic_rank", 1.0, 4.0, 0),
        ("modlinalg.rank_of_rows", 2.0, 3.0, 1),
        ("graph_core.vertex_connectivity", 5.0, 9.0, 0),
        ("graph_core.Graph.sorted_edges", 6.0, 7.0, 3),
        ("graph_core.Graph.sorted_edges", 7.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [("a.f", 0.0, 10.0, -1), ("b.g", 1.0, 5.0, 0), ("b.h", 3.0, 6.0, 0), ("b.k", 8.0, 12.0, 0)]
    # children cover [1, 6] and [8, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_aggregate_by_module():
    tracer = tracing.Tracer()
    tracer.wrapped |= {"rigidity.generic_rank", "modlinalg.rank_of_rows"}
    tracer.spans.extend([
        ("cli.main", 0.0, 10.0, -1),
        ("rigidity.generic_rank", 1.0, 4.0, 0),
        ("modlinalg.rank_of_rows", 2.0, 3.0, 1),
        ("modlinalg.rank_of_rows", 3.0, 3.5, 1),
    ])
    m = tracing.layer_metrics(tracer)
    assert m["cli.self_s"] == pytest.approx(7.0)
    assert m["rigidity.self_s"] == pytest.approx(1.5)
    assert m["modlinalg.self_s"] == pytest.approx(1.5)
    assert (m["modlinalg.calls"], m["modlinalg.rank_of_rows.calls"]) == (2, 2)
    assert m["experiments.calls"] == 0
    # a function that is not there is absent, not zero
    assert m["graph_core.vertex_connectivity.calls"] is None
    assert m["modlinalg.elim_cells"] is None


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def _cheap_invocations():
    invs = workloads.verdicts_and_checks(1)
    rank = next(i for i in invs if i.command == "rank")
    linked = [i for i in invs if i.command == "linked"][-1]
    return [rank, linked]


def test_oracle_accepts_real_output_and_doctored_result_fails(cli):
    invs = _cheap_invocations()
    passes = [{"records": [run.run_in_process(cli, inv) for inv in invs]}]
    assert run.check_outputs(invs, passes, oracle.Oracle()) == []
    line = run.result_line({}, {}, 0, len(invs))
    assert line["correct"] and line["failed"] == 0

    rank_record = passes[0]["records"][0]
    out = json.loads(rank_record["stdout"])
    out["result"] += 1
    rank_record["stdout"] = json.dumps(out)
    failures = run.check_outputs(invs, passes, oracle.Oracle())
    assert len(failures) == 1 and "expected" in failures[0]
    line = run.result_line({}, {}, len(failures), len(invs))
    assert not line["correct"] and line["failed"] / line["attempted"] == 0.5


@pytest.mark.parametrize("stdout,code", [("not json", 0), ('{"error": "boom"}', 2), ("", None)])
def test_broken_outputs_fail(stdout, code):
    inv = _cheap_invocations()[0]
    assert oracle.Oracle().check(inv, code, stdout)


def test_wrong_exit_code_fails(cli):
    inv = _cheap_invocations()[0]
    rec = run.run_in_process(cli, inv)
    assert oracle.Oracle().check(inv, rec["code"], rec["stdout"]) is None
    assert "exit code" in oracle.Oracle().check(inv, 1, rec["stdout"])


def test_tracer_wraps_shared_references_and_restores_them(cli):
    import rigidity_forge.modlinalg as modlinalg
    import rigidity_forge.rigidity as rigidity

    original = modlinalg.rank_of_rows
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rigidity.rank_of_rows is modlinalg.rank_of_rows is not original
        inv = _cheap_invocations()[0]
        rec = run.run_in_process(cli, inv)
    finally:
        tracer.uninstall()
    assert modlinalg.rank_of_rows is original and rigidity.rank_of_rows is original
    assert oracle.Oracle().check(inv, rec["code"], rec["stdout"]) is None
    m = tracing.layer_metrics(tracer)
    assert m["cli.calls"] >= 1 and m["rigidity.generic_rank.calls"] == 1
    assert 1 <= m["modlinalg.rank_of_rows.calls"] <= 2
    assert m["rigidity.trial_use_ratio"] == m["modlinalg.rank_of_rows.calls"] / 2
    assert m["modlinalg.elim_cells"] > 0
    assert all(span is not None for span in tracer.spans)


def test_a_different_seed_gives_the_same_invocation_shape():
    for workload in workloads.WORKLOADS.values():
        a, b = workload.build(1), workload.build(2)
        assert [i.command for i in a] == [i.command for i in b]
        assert a != b


def test_random_graphs_are_regular_and_contain_the_circulant():
    import random

    for n in workloads.RANDOM_GRAPH_SIZES:
        edges = set(workloads.dense_random_graph(n, random.Random(n)))
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        assert set(degree) == {n // 2}


def test_ordered_subgraph_size_by_hand():
    # K4 on 0..3 in order 0,1,2,3 (d=2): 0 + 1 + 2 + (2 + 0, backward set is a clique)
    text = workloads.edge_list(4, workloads.complete_edges(range(4)))
    assert oracle.ordered_subgraph_size(text, [0, 1, 2, 3]) == 5
    # C4 0-1-2-3-0 with vertex 2 last of four: its 2 backward neighbours give 2 edges
    text = workloads.edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracle.ordered_subgraph_size(text, [0, 1, 3, 2]) == 1 + 1 + 2


def test_nonedge_is_never_an_edge_of_an_unnormalised_cycle():
    import random

    cycle = [(i, (i + 1) % 40) for i in range(40)]  # holds (39, 0), not (0, 39)
    adjacent = {(min(u, v), max(u, v)) for u, v in cycle}
    rng = random.Random(0)
    for _ in range(5000):
        assert workloads._nonedge(40, cycle, rng) not in adjacent


def test_printed_metrics_are_the_ones_benchmark_json_lists(cli):
    per_layer = set(run.metric_units(trace=True))
    traced = set(tracing.layer_metrics(tracing.Tracer()))
    assert traced | {"cli.overhead_ms", "trace.overhead_ratio"} == per_layer
    passes = [{"wall_s": 1.0, "records": [{"wall_s": 0.5}]}]
    metrics, _ = run.end_to_end(passes, [0.2])
    assert set(metrics) == set(run.metric_units(trace=False))


def test_no_child_starts_after_a_hang():
    inv = _cheap_invocations()[0]
    rec = run.run_child(inv, run.child_env(), [True])
    assert rec["code"] is None
    assert oracle.Oracle().check(inv, rec["code"], rec["stdout"]) .startswith("hung")
