"""Observability overhead: telemetry must not tax the hot path it watches.

The telemetry subsystem instruments every stage of the serving hot path —
root spans per call, child spans for cache lookup / planning / evaluation,
registry counters and latency histograms, a bounded structured query log.
This benchmark prices that instrumentation and asserts the bill stays small:

* **instrumented** — tracing on, query log on (the service default),
* **uninstrumented** — tracing and query log toggled off live (the registry
  remains in both — it *is* the statistics).

Both modes run on ONE service instance, toggled between rounds: two
separately constructed services differ by more than the instrumentation
costs (allocation layout, CPU frequency drift across their build times), so
an A-instance/B-instance comparison measures the machine, not the spans.
Rounds are finely interleaved off/on with alternating order, each of several
independent blocks compares the per-mode MEDIANS, and the lowest block ratio
decides: interleaving makes clock drift common-mode, the median rejects
scheduler spikes, and best-of-blocks discards the windows a drift episode
contaminated — all of which, on a millisecond-scale loop, dwarf the
microseconds a span costs.

The asserted hot path is the **batched round** — an evaluated
``query_batch`` (cache cleared first) plus a cached one — the serving fast
path this repository's batch planner, placement routing and result cache
exist for; its instrumented minimum must stay within 5% of the
uninstrumented one.  Single-query streams are measured and reported too
(separately for the evaluated and the cached path), without a gate: a
cache hit answers in a few tens of microseconds, so even two span
allocations are a double-digit *relative* cost there while the *absolute*
cost stays below ~5µs — the report keeps that honest instead of hiding
the cached path inside a blended number.

A second gated section prices the request-lifecycle observability stack
end to end: every round wrapped in a context-adopting request root span
(the distributed-trace propagation the network server performs per
request) **with the continuous sampling profiler actively sampling** the
serving thread, against the bare hot path with the profiler paused.  That
full bill must also stay within the 5% budget, and the run asserts the
profiler actually took samples while it was being priced.

The run also asserts that instrumentation changes no answer and that it
actually recorded what it priced (traces finished, query log filled,
Prometheus output parseable).

The ``--tiny`` smoke run asserts those receipts but only reports the
wall-clock ratios: on a shared host a run that short moves by more than the
5% budget with the code unchanged.  The regression guard that holds at any
size is the span budget in ``tests/integration/test_work_budgets.py``.

Figures are written to ``BENCH_observability.json``.  Run
``python benchmarks/bench_observability_overhead.py`` directly (``--tiny``
for the CI smoke configuration), or through pytest
(``pytest benchmarks/bench_observability_overhead.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.fragmentation import CenterBasedFragmenter
from repro.observability import SamplingProfiler
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.service import QueryService

try:  # pytest provides print_report when collected as part of the harness
    from .conftest import print_report
except ImportError:  # direct `python benchmarks/bench_observability_overhead.py` run
    def print_report(title: str, body: str) -> None:
        separator = "=" * max(len(title), 20)
        print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


OUTPUT_FILE = os.environ.get("BENCH_OBSERVABILITY_OUT", "BENCH_observability.json")
OVERHEAD_BUDGET = 1.05  # the instrumented batched round may cost at most 5% extra


def build_workload(*, tiny: bool = False):
    """Return (graph, fragmentation, queries) for the sample transportation net."""
    # The tiny clusters are deliberately not minimal: the overhead ratio's
    # denominator must contain real kernel work, or the few microseconds a
    # span costs get divided by almost nothing and the gate measures the
    # graph generator's choices instead of the instrumentation's bill.
    config = TransportationGraphConfig(
        cluster_count=3 if tiny else 4,
        nodes_per_cluster=14 if tiny else 16,
        cluster_c1=520.0,
        cluster_c2=0.04,
        inter_cluster_edges=2,
    )
    network = generate_transportation_graph(config, seed=23)
    fragmentation = CenterBasedFragmenter(
        config.cluster_count, center_selection="distributed"
    ).fragment(network.graph)
    queries = cross_cluster_queries(
        network.clusters, 8 if tiny else 16, seed=5, minimum_cluster_distance=1
    )
    return network.graph, fragmentation, [(q.source, q.target) for q in queries]


def _set_instrumented(service, on: bool) -> None:
    if on:
        service.tracer.enable()
        service.query_log.enable()
    else:
        service.tracer.disable()
        service.query_log.disable()


def _batched_round(service, queries):
    """The asserted hot path: an evaluated batch plus a cached batch."""
    service.cache.clear()
    started = time.perf_counter()
    first = service.query_batch(queries)
    second = service.query_batch(queries)
    elapsed = time.perf_counter() - started
    return [a.value for a in first] + [a.value for a in second], elapsed


def _single_evaluated_round(service, queries):
    """Single queries against a cold cache (every one evaluates)."""
    service.cache.clear()
    started = time.perf_counter()
    answers = [service.query(s, t).value for s, t in queries]
    return answers, time.perf_counter() - started


def _single_cached_round(service, queries):
    """Single queries against a warm cache (every one hits)."""
    started = time.perf_counter()
    answers = [service.query(s, t).value for s, t in queries]
    return answers, time.perf_counter() - started


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


BLOCKS = 3  # independent measurement windows; the least-noisy one decides


def _compare(service, round_fn, queries, rounds, reference):
    """Price ``round_fn`` instrumented vs bare on one service, robustly.

    A shared machine's clock drifts on second timescales (frequency scaling,
    noisy neighbours) by more than the few percent being measured.  Three
    defences stack here:

    * within each iteration the two modes run back to back (sharing the
      moment's CPU state) with their order alternating (so "measured
      second" bias cancels);
    * within each block the per-mode MEDIANS are compared — interleaving
      makes drift common-mode and the median rejects scheduler spikes;
    * ``BLOCKS`` independent blocks are measured and the LOWEST block ratio
      is the verdict: drift episodes contaminate a block's ratio upward,
      so the least-contaminated window is the best estimate — the classic
      fastest-of-N-runs argument, applied per block.
    """
    bare_times = []
    instrumented_times = []
    block_ratios = []
    for _ in range(BLOCKS):
        block_bare = []
        block_instrumented = []
        for iteration in range(rounds):
            modes = (False, True) if iteration % 2 == 0 else (True, False)
            for on in modes:
                _set_instrumented(service, on)
                answers, seconds = round_fn(service, queries)
                (block_instrumented if on else block_bare).append(seconds)
                assert answers == reference, (
                    "instrumentation must not change any answer"
                )
        block_ratios.append(_median(block_instrumented) / _median(block_bare))
        bare_times.extend(block_bare)
        instrumented_times.extend(block_instrumented)
    return {
        "bare_seconds": bare_times,
        "instrumented_seconds": instrumented_times,
        "bare_min": min(bare_times),
        "instrumented_min": min(instrumented_times),
        "bare_median": _median(bare_times),
        "instrumented_median": _median(instrumented_times),
        "min_ratio": round(min(instrumented_times) / min(bare_times), 4),
        "block_ratios": [round(ratio, 4) for ratio in block_ratios],
        "overhead_ratio": round(min(block_ratios), 4),
    }


def _propagated_round(service, queries):
    """The batched round under a full request trace context (the serving shape).

    This is what one network request costs the service: a root span adopting
    a freshly minted :class:`TraceContext` (the propagation machinery the
    server runs per request), with the batch's own spans nesting under it.
    """
    tracer = service.tracer
    service.cache.clear()
    started = time.perf_counter()
    with tracer.request_span("request", context=tracer.new_context()):
        first = service.query_batch(queries)
        second = service.query_batch(queries)
    elapsed = time.perf_counter() - started
    return [a.value for a in first] + [a.value for a in second], elapsed


def _compare_propagation(service, profiler, queries, rounds, reference):
    """Price trace propagation plus live profiler sampling, robustly.

    The on mode is the serving tier's full observability bill: tracing and
    query log enabled, every round wrapped in a context-adopting request
    span, and the sampling profiler actively sampling the serving thread.
    The off mode is the bare hot path with the profiler *paused* — same
    thread, same sampler thread parked on its event, so the comparison
    prices exactly what enabling observability costs, not thread churn.
    The same interleaving/median/best-of-blocks defences as :func:`_compare`
    apply.
    """
    bare_times = []
    on_times = []
    block_ratios = []
    for _ in range(BLOCKS):
        block_bare = []
        block_on = []
        for iteration in range(rounds):
            modes = (False, True) if iteration % 2 == 0 else (True, False)
            for on in modes:
                _set_instrumented(service, on)
                if on:
                    profiler.resume()
                    answers, seconds = _propagated_round(service, queries)
                    profiler.pause()
                    block_on.append(seconds)
                else:
                    answers, seconds = _batched_round(service, queries)
                    block_bare.append(seconds)
                assert answers == reference, (
                    "propagation must not change any answer"
                )
        block_ratios.append(_median(block_on) / _median(block_bare))
        bare_times.extend(block_bare)
        on_times.extend(block_on)
    return {
        "bare_seconds": bare_times,
        "instrumented_seconds": on_times,
        "bare_min": min(bare_times),
        "instrumented_min": min(on_times),
        "bare_median": _median(bare_times),
        "instrumented_median": _median(on_times),
        "min_ratio": round(min(on_times) / min(bare_times), 4),
        "block_ratios": [round(ratio, 4) for ratio in block_ratios],
        "overhead_ratio": round(min(block_ratios), 4),
    }


def bench_propagation(service, queries, rounds, *, profiler_interval=0.002):
    """Price the tentpole: context propagation + continuous profiling on."""
    profiler = SamplingProfiler(profiler_interval, tracer=service.tracer)
    profiler.start()  # samples the calling thread — where the rounds run
    profiler.pause()  # the comparison gates sampling per mode
    try:
        _set_instrumented(service, False)
        reference, _ = _batched_round(service, queries)
        figures = _compare_propagation(service, profiler, queries, rounds, reference)
    finally:
        profiler.stop()
    figures["profiler_interval_seconds"] = profiler_interval
    figures["profiler_samples"] = profiler.samples
    figures["profiler_backend_shares"] = profiler.backend_shares()
    return figures


def bench_overhead(fragmentation, queries, rounds):
    """Price the batched hot path (asserted) and the single-query paths."""
    service = QueryService(fragmentation)
    # A constructor-disabled service for the "telemetry truly off" receipts.
    bare = QueryService(fragmentation, tracing=False, query_log_size=0)

    # Warm both (first-touch compact caches, interned structures) and pin the
    # reference answers the instrumented service must keep returning.
    batch_reference, _ = _batched_round(bare, queries)
    answers, _ = _batched_round(service, queries)
    assert answers == batch_reference, "instrumentation must not change any answer"
    single_reference, _ = _single_evaluated_round(service, queries)

    batch = _compare(service, _batched_round, queries, rounds, batch_reference)
    single_evaluated = _compare(
        service, _single_evaluated_round, queries, rounds, single_reference
    )
    # Warm the cache once, then every round is pure hits.
    _single_evaluated_round(service, queries)
    single_cached = _compare(
        service, _single_cached_round, queries, rounds, single_reference
    )

    return service, bare, {
        "rounds": rounds,
        "queries_per_round": 2 * len(queries),
        "budget_ratio": OVERHEAD_BUDGET,
        "batched": batch,
        "single_evaluated": single_evaluated,
        "single_cached": single_cached,
    }


def telemetry_receipts(instrumented, bare):
    """Prove the priced instrumentation actually recorded the workload."""
    tracer = instrumented.tracer
    query_log = instrumented.query_log
    trace = tracer.recent(1)[0]
    prometheus = instrumented.metrics("prometheus")
    samples = [
        line for line in prometheus.splitlines() if line and not line.startswith("#")
    ]
    for sample in samples:  # every sample line must split into name+labels / value
        name, _, value = sample.rpartition(" ")
        assert name, f"unparseable exposition line: {sample!r}"
        float(value)
    quantiles = instrumented.stats.latency_quantiles()
    return {
        "traces_finished": tracer.traces_finished,
        "last_trace_spans": trace.span_names(),
        "query_log_recorded": query_log.recorded,
        "query_log_retained": len(query_log),
        "bare_traces_finished": bare.tracer.traces_finished,
        "bare_query_log_recorded": bare.query_log.recorded,
        "prometheus_samples": len(samples),
        "evaluated_latency_quantiles": quantiles,
    }


def run_overhead_comparison(*, tiny: bool = False, output: str = OUTPUT_FILE):
    graph, fragmentation, queries = build_workload(tiny=tiny)
    rounds = 14 if tiny else 16  # iterations per block (x BLOCKS blocks)

    instrumented, bare, overhead = bench_overhead(fragmentation, queries, rounds)
    overhead["propagation"] = bench_propagation(instrumented, queries, rounds)
    receipts = telemetry_receipts(instrumented, bare)

    assert overhead["propagation"]["profiler_samples"] > 0, (
        "the profiler was on during the propagation rounds but took no samples"
    )
    # The cached single-query path cannot meet a relative budget (its base is
    # tens of microseconds) — bound its absolute bill instead.
    cached = overhead["single_cached"]
    per_query_cost = (
        cached["instrumented_median"] - cached["bare_median"]
    ) / len(queries)
    if not tiny:
        assert overhead["batched"]["overhead_ratio"] <= OVERHEAD_BUDGET, (
            f"instrumented batched hot path is "
            f"{overhead['batched']['overhead_ratio']}x the bare one, over the "
            f"{OVERHEAD_BUDGET}x budget"
        )
        assert overhead["propagation"]["overhead_ratio"] <= OVERHEAD_BUDGET, (
            f"trace propagation + live profiling costs "
            f"{overhead['propagation']['overhead_ratio']}x the bare hot path, "
            f"over the {OVERHEAD_BUDGET}x budget"
        )
        assert per_query_cost < 20e-6, (
            f"telemetry costs {per_query_cost * 1e6:.1f}µs per cached query, "
            "expected well under 20µs"
        )
    assert receipts["traces_finished"] > 0, "tracing was on but produced no traces"
    assert receipts["query_log_recorded"] > 0, "query log was on but recorded nothing"
    assert receipts["bare_traces_finished"] == 0, "tracing=False must produce no traces"
    assert receipts["bare_query_log_recorded"] == 0, "query_log_size=0 must record nothing"
    assert receipts["prometheus_samples"] > 0

    report = {
        "benchmark": "observability_overhead",
        "tiny": tiny,
        "wall_clock_budgets_asserted": not tiny,
        "workload": {
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "fragments": fragmentation.fragment_count(),
            "queries": len(queries),
        },
        "overhead": overhead,
        "cached_query_cost_seconds": per_query_cost,
        "telemetry": receipts,
    }
    Path(output).write_text(json.dumps(report, indent=2, sort_keys=True))

    lines = [
        f"{graph.node_count()} nodes / {graph.edge_count()} edges, "
        f"{fragmentation.fragment_count()} fragments, "
        f"{len(queries)} distinct queries x {BLOCKS} blocks of {rounds} "
        "interleaved round pairs per path",
        "",
        f"{'hot path':<26} {'bare med':>10} {'instrumented':>13} {'ratio':>8}",
        *(
            f"{label:<26} {overhead[key]['bare_median']:>10.6f} "
            f"{overhead[key]['instrumented_median']:>13.6f} "
            f"{overhead[key]['overhead_ratio']:>8.4f}"
            for label, key in (
                ("batched", "batched"),
                ("propagation+profiler", "propagation"),
                ("single, evaluated", "single_evaluated"),
                ("single, cached", "single_cached"),
            )
        ),
        f"batched and propagation budgets {OVERHEAD_BUDGET}x; cached single "
        f"queries pay {per_query_cost * 1e6:.1f}µs each (absolute bound "
        f"20µs); budgets {'reported only' if tiny else 'asserted'}; "
        "identical answers throughout",
        "",
        f"receipts: {receipts['traces_finished']} traces, "
        f"{receipts['query_log_recorded']} query-log entries, "
        f"{receipts['prometheus_samples']} Prometheus samples, "
        f"{overhead['propagation']['profiler_samples']} profiler samples; "
        f"last trace spans {receipts['last_trace_spans']}",
        "",
        f"figures written to {output}",
    ]
    print_report("Observability overhead: instrumented vs bare hot path", "\n".join(lines))
    return report


def test_observability_overhead_report():
    """The smoke run reports the telemetry bill and the receipts exist."""
    report = run_overhead_comparison(tiny=True)
    assert not report["wall_clock_budgets_asserted"]
    assert report["overhead"]["propagation"]["profiler_samples"] > 0
    assert report["telemetry"]["traces_finished"] > 0
    assert report["telemetry"]["query_log_recorded"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: small graph, few rounds",
    )
    parser.add_argument("--output", default=OUTPUT_FILE, help="JSON results path")
    arguments = parser.parse_args()
    run_overhead_comparison(tiny=arguments.tiny, output=arguments.output)
