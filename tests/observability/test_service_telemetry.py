"""Service-level telemetry: traces across the placed pool, exporters, advisors."""

import json
import random

import pytest

from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.observability import MetricsRegistry, QueryLog
from repro.placement import RebalanceAdvisor
from repro.refragmentation import RefragmentationAdvisor
from repro.service import QueryService
from repro.service.pool import WORKER_KERNEL_HISTOGRAM, WORKER_TUPLES_COUNTER
from repro.service.stats import ServiceStatistics

from tests.tracing_helpers import spans_named


def clique_line_fragmentation(blocks=3, block_size=4, seed=7):
    rng = random.Random(seed)
    graph = DiGraph()
    node_blocks = [
        list(range(index * block_size, (index + 1) * block_size))
        for index in range(blocks)
    ]
    for block in node_blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                weight = rng.uniform(0.5, 3.0)
                graph.add_edge(a, b, weight)
                graph.add_edge(b, a, weight)
    for index in range(blocks - 1):
        left = node_blocks[index][-1]
        right = node_blocks[index + 1][0]
        graph.add_edge(left, right, 1.0)
        graph.add_edge(right, left, 1.0)
    return GroundTruthFragmenter([set(block) for block in node_blocks]).fragment(graph)


def warm_border_graph(service, queries):
    """Answer ``queries`` once and forget the answers: every fragment's arcs are then held.

    A cold batch reads the arcs of each fragment its searches reach in a
    round of its own, one pool dispatch each; a warm one is one dispatch,
    so the pool's last dispatch is the whole batch's.
    """
    service.query_batch(queries)
    service.cache.clear()


def cross_fragment_queries(blocks=3, block_size=4):
    """Queries whose chains traverse every fragment of the clique line."""
    return [(0, blocks * block_size - 1), (blocks * block_size - 1, 0), (1, 9), (2, 10)]


class TestTracedBatchAcrossPlacedPool:
    def test_spans_cover_cache_planning_and_every_owner_kernel(self):
        fragmentation = clique_line_fragmentation()
        queries = cross_fragment_queries()
        with QueryService(
            fragmentation, placement="round_robin", workers=3
        ) as service:
            warm_border_graph(service, queries)
            service.query_batch(queries)
            trace = service.tracer.recent(1)[0]

            # One trace id covers the whole call, rooted at query_batch.
            assert trace.root_name == "query_batch"
            assert all(span.trace_id == trace.trace_id for span in trace.spans)
            names = trace.span_names()
            assert "cache_lookup" in names
            assert "plan" in names
            assert "evaluate" in names

            # Every owner that actually ran tasks appears as a remote
            # worker_evaluate span, parenting one kernel span per task it
            # evaluated — durations timed inside the worker processes.
            ran_tasks = service._pool.last_task_workers
            assert ran_tasks, "the batch must have dispatched routed tasks"
            owners_that_ran = set(ran_tasks.values())
            worker_spans = spans_named(trace, "worker_evaluate")
            assert {
                span.attributes["worker"] for span in worker_spans
            } == owners_that_ran
            assert all(span.remote for span in worker_spans)
            kernel_spans = spans_named(trace, "kernel")
            assert len(kernel_spans) == len(ran_tasks)
            worker_span_ids = {span.span_id for span in worker_spans}
            assert all(span.parent_id in worker_span_ids for span in kernel_spans)
            by_task = {
                (span.attributes["worker"], span.attributes["fragment"])
                for span in kernel_spans
            }
            assert by_task == {
                (worker, key[0]) for key, worker in ran_tasks.items()
            }

    def test_worker_metrics_merge_into_the_service_registry(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(
            fragmentation, placement="round_robin", workers=3
        ) as service:
            warm_border_graph(service, cross_fragment_queries())
            registry = service.stats.registry
            hist = registry.get(WORKER_KERNEL_HISTOGRAM)
            assert hist is not None
            kernels_before = sum(series["count"] for series in hist.series_dicts())
            service.query_batch(cross_fragment_queries())
            total_kernels = sum(
                series["count"] for series in hist.series_dicts()
            )
            assert total_kernels - kernels_before == len(service._pool.last_task_workers)
            tuples = registry.get(WORKER_TUPLES_COUNTER)
            assert sum(tuples.series().values()) > 0


class TestSingleQueryTracing:
    def test_query_trace_covers_plan_evaluate_and_kernels(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        trace = service.tracer.recent(1)[0]
        assert trace.root_name == "query"
        names = trace.span_names()
        assert "plan" in names
        assert "evaluate" in names
        assert "kernel" in names
        # In-process kernels aggregate per fragment, durations attached from
        # the evaluator's own timer.
        for span in spans_named(trace, "kernel"):
            assert span.duration >= 0
            assert "fragment" in span.attributes

    def test_query_log_links_to_traces(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        [entry] = service.query_log.recent()
        assert entry.trace_id == service.tracer.recent(1)[0].trace_id
        assert entry.fragments  # the chain's fragments were attributed
        assert not entry.cached
        service.query(0, 11)
        assert service.query_log.recent(1)[0].cached

    def test_tracing_off_service_produces_no_traces(self):
        service = QueryService(clique_line_fragmentation(), tracing=False)
        service.query(0, 11)
        assert service.tracer.traces_finished == 0
        assert service.query(0, 11).value is not None  # still answers


class TestExporters:
    def test_metrics_json_has_all_sections(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        payload = service.metrics()
        json.dumps(payload, default=str)
        assert set(payload) >= {
            "stats",
            "metrics",
            "latency_quantiles",
            "tracing",
            "query_log",
        }
        assert payload["stats"]["queries"] == 1
        quantiles = payload["latency_quantiles"]["evaluated"]
        assert quantiles["p50"] > 0
        assert quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]

    def test_metrics_prometheus_parses_and_counts_queries(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        service.query(0, 11)
        text = service.metrics("prometheus")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)
        assert "repro_queries_total 2" in text
        assert "repro_query_latency_seconds_bucket" in text

    def test_metrics_rejects_unknown_format(self):
        service = QueryService(clique_line_fragmentation())
        with pytest.raises(ValueError):
            service.metrics("xml")


class TestAdvisorsConsumeQueryLog:
    def test_rebalance_advisor_accepts_query_log(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(
            fragmentation, placement="round_robin", workers=3
        ) as service:
            for _ in range(3):
                service.cache.clear()
                service.query_batch(cross_fragment_queries())
            advisor = RebalanceAdvisor()
            dispatch = service.stats.counts(service.stats.per_site_load)
            plain = advisor.fragment_loads(service.placement_plan, dispatch)
            informed = advisor.fragment_loads(
                service.placement_plan, dispatch, query_log=service.query_log
            )
            # The workload-informed load model must at least not lose signal.
            assert sum(informed.values()) >= sum(plain.values())
            assert service.placement_plan.skew(informed) >= 0.0

    def test_refragmentation_advisor_accepts_query_log(self):
        fragmentation = clique_line_fragmentation()
        service = QueryService(fragmentation)
        service.query(0, 11)
        advisor = RefragmentationAdvisor(min_query_sample=1)
        assessment = advisor.assess(fragmentation, query_log=service.query_log)
        assert assessment is not None

    def test_skewed_workload_is_visible_to_advisors(self):
        service = QueryService(clique_line_fragmentation())
        for _ in range(5):
            service.cache.clear()
            service.query(0, 3)  # stays inside fragment 0
        assert service.query_log.query_skew() >= 1.0
        assert 0 in service.query_log.fragment_frequencies()


class TestStatisticsHandles:
    def test_dispatch_series_read_as_int_keyed_counts(self):
        stats = ServiceStatistics(MetricsRegistry())
        stats.per_site_load.inc(2, fragment=3)
        stats.per_site_load.inc(fragment=5)
        stats.per_site_load.inc(4, fragment=3)
        assert stats.counts(stats.per_site_load) == {3: 6, 5: 1}
        stats.per_owner_dispatch.inc(6, worker=0)
        stats.per_owner_dispatch.inc(worker=1)
        assert stats.dispatch_skew() == pytest.approx(6 / 3.5)
        stats.owner_count.max_of(4)  # two idle owners count in the mean
        assert stats.dispatch_skew() == pytest.approx(6 / 1.75)
        assert stats.as_dict()["per_site_load"] == {3: 6, 5: 1}
        assert stats.as_dict()["per_owner_dispatch"] == {0: 6, 1: 1}

    def test_every_dispatched_task_counts_once_per_site_and_in_total(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        service.query_batch(cross_fragment_queries())
        loads = service.stats.counts(service.stats.per_site_load)
        assert loads and sum(loads.values()) == service.stats.local_evaluations.value()

    def test_cached_and_evaluated_latency_series_are_split(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)  # evaluated
        service.query(0, 11)  # cached
        stats = service.stats
        assert stats.cache_hits.value() == 1 and stats.cache_misses.value() == 1
        assert stats.evaluated_latency.value() > 0
        assert stats.cached_latency.value() > 0
        assert stats.average_evaluated_latency() > stats.average_cached_latency()
        assert stats.latency_quantiles("evaluated")["p50"] > 0
        assert stats.latency_quantiles("cached")["p50"] > 0

    def test_stats_share_the_service_registry(self):
        service = QueryService(clique_line_fragmentation())
        service.query(0, 11)
        assert isinstance(service.stats.registry, MetricsRegistry)
        counter = service.stats.registry.get("repro_queries_total")
        assert counter.value() == 1


class TestQueryLogConstructionOptions:
    def test_query_log_size_zero_disables_logging(self):
        service = QueryService(clique_line_fragmentation(), query_log_size=0)
        service.query(0, 11)
        assert service.query_log.recorded == 0
        assert isinstance(service.query_log, QueryLog)

    def test_the_slow_window_keeps_queries_past_the_log_threshold(self, monkeypatch):
        from repro.observability import querylog

        service = QueryService(clique_line_fragmentation())
        assert service.metrics()["query_log"]["slow_threshold"] == 0.1
        monkeypatch.setattr(querylog, "DEFAULT_SLOW_THRESHOLD_SECONDS", 0.0)  # every query is slow
        service.query(0, 11)
        assert service.query_log.slow_count == 1


class TestKernelSelectionTelemetry:
    def test_selection_counters_and_span_backends_in_process(self):
        from repro.closure import (
            KERNEL_BACKENDS,
            KERNEL_SELECTIONS_COUNTER,
            reachability_semiring,
        )

        fragmentation = clique_line_fragmentation(blocks=3, block_size=4)
        with QueryService(fragmentation, semiring=reachability_semiring()) as service:
            service.query_batch(cross_fragment_queries())
            payload = service.metrics("json")["metrics"]
            series = payload[KERNEL_SELECTIONS_COUNTER]["series"]
            assert series, "no kernel selections were recorded"
            backends = set()
            for entry in series:
                backend = entry["labels"]["backend"]
                assert backend in KERNEL_BACKENDS
                assert entry["labels"]["context"] in (
                    "local_query", "complementary", "closure", "seminaive"
                )
                assert entry["value"] > 0
                backends.add(backend)
            trace = service.tracer.recent(1)[0]
            kernel_spans = [s for s in trace.spans if s.name == "kernel"]
            assert kernel_spans
            for span in kernel_spans:
                assert span.attributes.get("backend") in backends

    def test_selection_counters_flow_back_from_placed_workers(self):
        from repro.closure import KERNEL_SELECTIONS_COUNTER, reachability_semiring

        fragmentation = clique_line_fragmentation(blocks=3, block_size=4)
        with QueryService(
            fragmentation,
            semiring=reachability_semiring(),
            placement="round_robin",
            workers=3,
        ) as service:
            service.query_batch(cross_fragment_queries())
            payload = service.metrics("json")["metrics"]
            series = payload[KERNEL_SELECTIONS_COUNTER]["series"]
            assert any(
                entry["labels"]["context"] == "local_query" and entry["value"] > 0
                for entry in series
            )

    def test_prometheus_export_includes_selections(self):
        from repro.closure import KERNEL_SELECTIONS_COUNTER, reachability_semiring

        fragmentation = clique_line_fragmentation(blocks=2, block_size=4)
        with QueryService(fragmentation, semiring=reachability_semiring()) as service:
            service.query_batch([(0, 7)])
            text = service.metrics("prometheus")
            assert KERNEL_SELECTIONS_COUNTER in text
