"""Metrics registry: bucket math, quantiles, labels, cross-process merging."""

import math

import pytest

from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_things_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("repro_dispatch_total", labelnames=("fragment",))
        counter.inc(3, fragment=0)
        counter.inc(1, fragment=1)
        assert counter.value(fragment=0) == 3
        assert counter.value(fragment=1) == 1
        assert counter.value(fragment=2) == 0

    def test_rejects_negative_increment(self):
        counter = Counter("repro_things_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_rejects_wrong_label_set(self):
        counter = Counter("repro_dispatch_total", labelnames=("fragment",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(1, worker=0)
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(1)


    def test_a_missing_or_an_extra_label_is_rejected_by_inc_and_set(self):
        counter = Counter("repro_lookups_total", labelnames=("table", "result"))
        gauge = Gauge("repro_rows_held", labelnames=("table", "result"))
        for metric, write in ((counter, counter.inc), (gauge, gauge.set)):
            message = r"expects labels \('table', 'result'\), got "
            with pytest.raises(ValueError, match=message + r"\('table',\)"):
                write(1, table="rows")
            with pytest.raises(ValueError, match=message + r"\('extra', 'result', 'table'\)"):
                write(1, table="rows", result="read", extra=0)
            with pytest.raises(ValueError, match=message + r"\('result', 'tables'\)"):
                write(1, tables="rows", result="read")
            write(2, result="read", table="rows")  # any order of the same names
            assert metric.value(table="rows", result="read") == 2


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("repro_pool_workers")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value() == 2

    def test_max_of_is_high_water(self):
        gauge = Gauge("repro_queue_depth_peak")
        gauge.max_of(3)
        gauge.max_of(1)
        assert gauge.value() == 3


class TestHistogramBuckets:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram("repro_latency_seconds", buckets=(0.001, 0.01, 0.1))
        # Upper bounds are inclusive (Prometheus `le` semantics).
        hist.observe(0.001)
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(5.0)  # lands in the implicit +Inf bucket
        [series] = hist.series_dicts()
        assert series["bucket_counts"] == [2, 0, 1, 1]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(0.001 + 0.0005 + 0.05 + 5.0)
        assert series["max"] == 5.0

    def test_rejects_unsorted_or_infinite_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_bad", buckets=(0.1, 0.1))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_bad", buckets=(0.2, 0.1))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_bad", buckets=(0.1, math.inf))

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram("repro_latency_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)  # all in the (1.0, 2.0] bucket
        # Every rank resolves inside that bucket; interpolation stays in it
        # and is capped by the observed maximum.
        assert 1.0 < hist.quantile(0.5) <= 1.5
        assert 1.0 < hist.quantile(0.99) <= 1.5

    def test_quantile_orders_across_buckets(self):
        hist = Histogram("repro_latency_seconds", buckets=(0.001, 0.01, 0.1, 1.0))
        for _ in range(90):
            hist.observe(0.005)
        for _ in range(10):
            hist.observe(0.5)
        p50 = hist.quantile(0.50)
        p99 = hist.quantile(0.99)
        assert 0.001 < p50 <= 0.01
        assert 0.1 < p99 <= 0.5
        assert p50 < p99

    def test_quantile_in_inf_bucket_returns_max(self):
        hist = Histogram("repro_latency_seconds", buckets=(0.001,))
        hist.observe(7.0)
        assert hist.quantile(0.99) == 7.0

    def test_quantile_of_empty_series_is_zero(self):
        hist = Histogram("repro_latency_seconds")
        assert hist.quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram("repro_latency_seconds")
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_queries_total")
        second = registry.counter("repro_queries_total")
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_queries_total")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_dispatch_total", labelnames=("fragment",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("repro_dispatch_total", labelnames=("worker",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_latency_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("repro_latency_seconds", buckets=(0.2, 1.0))

    def test_invalid_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("repro queries")


class TestMergeAcrossProcesses:
    """The worker->coordinator path: drain on one registry, merge on another."""

    def _worker_payload(self):
        worker = MetricsRegistry()
        worker.counter(
            "repro_worker_kernel_tasks_total", labelnames=("worker", "fragment")
        ).inc(5, worker=1, fragment=2)
        worker.gauge("repro_worker_queue_peak").set(7)
        worker.histogram(
            "repro_worker_kernel_seconds", buckets=(0.001, 0.01)
        ).observe(0.005)
        return worker

    def test_drain_empties_the_worker_registry(self):
        worker = self._worker_payload()
        payload = worker.drain()
        assert payload["repro_worker_kernel_tasks_total"]["series"]
        # After the drain the same series reads zero — the next payload only
        # carries the delta, so the coordinator never double-counts.
        counter = worker.get("repro_worker_kernel_tasks_total")
        assert counter.value(worker=1, fragment=2) == 0

    def test_merge_creates_and_adds(self):
        coordinator = MetricsRegistry()
        coordinator.merge_dict(self._worker_payload().drain())
        coordinator.merge_dict(self._worker_payload().drain())
        counter = coordinator.get("repro_worker_kernel_tasks_total")
        assert counter.value(worker=1, fragment=2) == 10
        hist = coordinator.get("repro_worker_kernel_seconds")
        assert hist.count() == 2
        # Gauges fold with max, not sum: they are high-water marks.
        assert coordinator.get("repro_worker_queue_peak").value() == 7

    def test_merge_sums_histogram_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, value in ((a, 0.0005), (b, 0.5)):
            registry.histogram(
                "repro_latency_seconds", buckets=(0.001, 0.1)
            ).observe(value)
        a.merge_dict(b.drain())
        [series] = a.get("repro_latency_seconds").series_dicts()
        assert series["bucket_counts"] == [1, 0, 1]
        assert series["count"] == 2

    def test_drain_into_registers_once_and_then_folds_only_what_was_recorded(self):
        module = MetricsRegistry()  # what a module-level registry holds
        selections = module.counter("repro_selections_total", labelnames=("backend",))
        depth = module.gauge("repro_depth")
        coordinator = MetricsRegistry()
        merges = []
        merge = coordinator.merge_dict
        coordinator.merge_dict = lambda payload: merges.append(payload) or merge(payload)
        module.drain_into(coordinator)  # nothing recorded, but the metrics are new there
        assert len(merges) == 1 and coordinator.names() == module.names()
        module.drain_into(coordinator)  # nothing recorded, every metric registered
        assert len(merges) == 1
        selections.inc(backend="bigint")
        depth.set(3)
        module.drain_into(coordinator)
        module.drain_into(coordinator)
        assert len(merges) == 2
        assert coordinator.get("repro_selections_total").value(backend="bigint") == 1
        assert coordinator.get("repro_depth").value() == 3
        assert not selections.recorded() and not depth.recorded()

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("repro_latency_seconds", buckets=(0.001, 0.1)).observe(0.01)
        b = MetricsRegistry()
        b.histogram("repro_latency_seconds", buckets=(0.002, 0.1)).observe(0.01)
        with pytest.raises(ValueError, match="bucket"):
            a.merge_dict(b.drain())

    def test_default_latency_buckets_are_valid(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert all(b > 0 for b in DEFAULT_LATENCY_BUCKETS)


class TestPrometheusExposition:
    def test_output_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_dispatch_total", "Dispatches.", labelnames=("fragment",)
        ).inc(3, fragment=0)
        registry.gauge("repro_pool_workers", "Workers.").set(4)
        registry.histogram(
            "repro_latency_seconds", "Latency.", buckets=(0.001, 0.1)
        ).observe(0.05)
        text = registry.to_prometheus()
        assert "# HELP repro_dispatch_total Dispatches." in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'repro_dispatch_total{fragment="0"} 3' in text
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)  # every sample value parses

    def test_histogram_bucket_lines_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_latency_seconds", buckets=(0.001, 0.1))
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(9.0)
        text = registry.to_prometheus()
        assert 'repro_latency_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_named_total", labelnames=("name",)).inc(
            1, name='a"b\\c'
        )
        assert 'name="a\\"b\\\\c"' in registry.to_prometheus()


class TestResetAndRoundTrip:
    def test_reset_zeroes_but_keeps_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_queries_total")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0
        assert registry.get("repro_queries_total") is counter

    def test_as_dict_is_json_shaped(self):
        import json

        registry = MetricsRegistry()
        registry.counter("repro_queries_total").inc(2)
        registry.histogram("repro_latency_seconds").observe(0.01)
        json.dumps(registry.as_dict())  # must not raise
