"""Every workload emits exactly the metrics BENCHMARK.json declares, and answers correctly."""

from __future__ import annotations

import math
import re

import pytest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_names_the_workloads(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOADS)
    assert benchmark_json["paths"] == ["benchmarks/harness"]
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_declared_metrics_are_emitted(workload, trace, summaries, benchmark_json):
    summary = summaries(workload, trace)
    declared = benchmark_json["per_layer" if trace else "end_to_end"]
    metrics = summary["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"] and UNIT.match(entry["unit"])
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), metric
    for name, entry in summary["report"].items():
        assert math.isfinite(entry["value"]) and UNIT.match(entry["unit"]), name
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values()), "end-to-end metrics are never 0"


# Layer metrics that must come from the workload's own stream or set-up, never a probe.
OWN = {
    "prepare": ["fragmentation.center_s", "disconnection.complementary_s",
                "service.snapshot_save_s", "service.snapshot_load_s"],
    "sp-cold": ["disconnection.site_warm_s", "disconnection.plan_us",
                "disconnection.chains_per_query", "disconnection.local_query_ms",
                "disconnection.assembly_us", "closure.dijkstra_ms"],
    "reach-cold": ["disconnection.site_warm_s", "disconnection.plan_us",
                   "disconnection.local_query_ms", "disconnection.shared_task_share",
                   "disconnection.assembly_us", "closure.selected_share_chain"],
    "hot-batch": ["service.cache_hit_share", "service.batch_dedup_share", "service.overhead_us"],
    "write-mixed": ["graph.apply_delta_us", "graph.overlay_depth_max", "graph.compactions",
                    "disconnection.db_update_ms", "disconnection.site_rederive_ms",
                    "incremental.probe_ms", "incremental.recompute_rows_ms",
                    "incremental.rows_recomputed", "incremental.dirty_fragments_per_write",
                    "service.cache_hit_share", "service.cache_evicted_per_write",
                    "service.cache_retained_share"],
    "pool-batch": ["disconnection.site_warm_s", "service.batch_plan_ms", "service.pool_start_s",
                   "service.pool_evaluate_ms", "placement.dispatch_skew"],
    "net-closure": ["service.snapshot_save_s", "serving.rtt_us", "serving.point_overhead_us",
                    "serving.quanta_per_closure", "serving.suspends_per_closure",
                    "serving.resume_ms", "serving.rejected_share",
                    "serving.generator_lag_p95_ms"],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_metrics_say_where_they_come_from(workload, summaries):
    summary = summaries(workload, 1)
    sources = summary["sources"]
    assert set(sources) == set(summary["metrics"])
    assert set(sources.values()) <= {"stream", "setup", "probe"}
    assert {name: sources[name] for name in OWN[workload] if sources[name] == "probe"} == {}
    if workload != "write-mixed":
        # no write of a probe shows in what the workload left behind
        assert summary["metrics"]["graph.overlay_depth_max"]["value"] == 0
        assert sources["disconnection.db_update_ms"] == "probe"


def test_net_closure_throughput_is_the_closed_loop(summaries):
    summary = summaries("net-closure", 0)
    assert summary["metrics"]["throughput_ops_s"] == summary["report"]["closure_rows_s"]
    assert summary["report"]["point_rate_ops_s"]["value"] < summary["metrics"]["throughput_ops_s"]["value"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_no_operation_fails(workload, trace, summaries):
    summary = summaries(workload, trace)
    assert summary["attempted"] >= 1
    assert summary["failed"] == 0, summary["failure_messages"]
    assert summary["claim"] is None
    assert list(summary)[-1] == "claim"


def test_contract_line_shape(summaries):
    import json

    line = json.loads(run.contract_line(summaries("sp-cold", 0)))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] is True and isinstance(line["attempted"], int)
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())
