"""SLO monitor: definitions, windowed burn rates, multi-window alerting."""

import pytest

from repro.observability import (
    BurnWindow,
    MetricsRegistry,
    SLODefinition,
    SLOMonitor,
    default_slos,
)
from repro.observability import slo as slo_module


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def availability_slo(objective: float = 0.999) -> SLODefinition:
    return SLODefinition(
        name="availability",
        objective=objective,
        counter="requests_total",
        bad_label="outcome",
        bad_values=("error",),
    )


def latency_slo(threshold: float = 0.1, objective: float = 0.99) -> SLODefinition:
    return SLODefinition(
        name="latency",
        objective=objective,
        histogram="latency_seconds",
        threshold=threshold,
    )


class TestSLODefinition:
    def test_objective_must_be_a_fraction(self):
        with pytest.raises(ValueError, match="objective"):
            availability_slo(objective=1.0)
        with pytest.raises(ValueError, match="objective"):
            availability_slo(objective=0.0)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            SLODefinition(name="both", objective=0.99)
        with pytest.raises(ValueError, match="exactly one"):
            SLODefinition(
                name="both",
                objective=0.99,
                histogram="h",
                threshold=0.1,
                counter="c",
                bad_label="outcome",
                bad_values=("error",),
            )

    def test_histogram_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SLODefinition(name="lat", objective=0.99, histogram="h")

    def test_counter_needs_bad_predicate(self):
        with pytest.raises(ValueError, match="bad_label"):
            SLODefinition(name="avail", objective=0.99, counter="c")

    def test_budget_is_the_complement(self):
        assert availability_slo(objective=0.999).budget == pytest.approx(0.001)


class TestBurnRateAlerting:
    def _monitor(self, registry, slo, clock):
        # Tight windows so tests replay realistic burn in a few samples.
        windows = (
            BurnWindow(long_seconds=600.0, short_seconds=60.0, factor=10.0, severity="page"),
            BurnWindow(long_seconds=3600.0, short_seconds=300.0, factor=2.0, severity="ticket"),
        )
        return SLOMonitor(registry, (slo,), windows=windows, clock=clock)

    def test_healthy_workload_stays_ok(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", labelnames=("outcome",))
        monitor = self._monitor(registry, availability_slo(), clock)
        for _ in range(10):
            requests.inc(100, outcome="ok")
            clock.advance(30.0)
            monitor.sample()
        statuses = monitor.evaluate()
        status = statuses["availability"]
        assert status.severity == "ok"
        assert not status.alerting
        assert status.error_rate == 0.0
        assert monitor.worst_severity(statuses) == "ok"

    def test_fast_burn_pages_and_recovery_clears(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", labelnames=("outcome",))
        monitor = self._monitor(registry, availability_slo(), clock)
        # 5% errors against a 0.1% budget = 50x burn: over both windows.
        for _ in range(10):
            requests.inc(95, outcome="ok")
            requests.inc(5, outcome="error")
            clock.advance(30.0)
            monitor.sample()
        assert monitor.evaluate()["availability"].severity == "page"
        # The bleeding stops; the short window clears the page quickly even
        # while the long window still remembers the bad episode.
        for _ in range(4):
            requests.inc(100, outcome="ok")
            clock.advance(30.0)
            monitor.sample()
        assert monitor.evaluate()["availability"].severity != "page"

    def test_slow_burn_tickets_without_paging(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", labelnames=("outcome",))
        monitor = self._monitor(registry, availability_slo(), clock)
        # 0.5% errors = 5x burn: over the 2x ticket factor, under the 10x page.
        for _ in range(20):
            requests.inc(995, outcome="ok")
            requests.inc(5, outcome="error")
            clock.advance(60.0)
            monitor.sample()
        status = monitor.evaluate()["availability"]
        assert status.severity == "ticket"
        firing = [entry for entry in status.burn if entry["firing"]]
        assert [entry["severity"] for entry in firing] == ["ticket"]

    def test_latency_slo_counts_threshold_buckets_as_good(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        latency = registry.histogram(
            "latency_seconds", "latency", buckets=(0.05, 0.1, 0.5)
        )
        monitor = self._monitor(registry, latency_slo(threshold=0.1), clock)
        for _ in range(10):
            for _ in range(7):
                latency.observe(0.01)
            latency.observe(0.08)
            latency.observe(0.3)  # the two slow observations per round
            latency.observe(0.3)
            clock.advance(30.0)
            monitor.sample()
        status = monitor.evaluate()["latency"]
        assert status.total == 100.0
        assert status.good == 80.0
        assert status.error_rate == pytest.approx(0.2)
        # 20% misses against a 1% budget = 20x burn: pages.
        assert status.severity == "page"

    def test_missing_series_count_as_no_data(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = self._monitor(registry, availability_slo(), clock)
        clock.advance(60.0)
        status = monitor.evaluate()["availability"]
        assert (status.good, status.total) == (0.0, 0.0)
        assert status.severity == "ok"

    def test_monitor_baselines_at_construction(self):
        # A monitor started against a warm registry must not inherit the
        # past as instant burn.
        clock = FakeClock()
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", labelnames=("outcome",))
        requests.inc(1000, outcome="error")  # history from before the monitor
        monitor = self._monitor(registry, availability_slo(), clock)
        for _ in range(5):
            requests.inc(100, outcome="ok")
            clock.advance(30.0)
            monitor.sample()
        assert monitor.evaluate()["availability"].severity == "ok"

    def test_as_dict_is_plain_data(self):
        import json

        clock = FakeClock()
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests", labelnames=("outcome",))
        monitor = self._monitor(registry, availability_slo(), clock)
        payload = monitor.as_dict()
        json.dumps(payload)
        assert payload["severity"] == "ok"
        assert [slo["name"] for slo in payload["objectives"]] == ["availability"]


    def test_history_keeps_the_newest_history_capacity_snapshots(self, monkeypatch):
        monkeypatch.setattr(slo_module, "HISTORY_CAPACITY", 3)
        clock = FakeClock()
        monitor = SLOMonitor(MetricsRegistry(), (availability_slo(),), clock=clock)
        for _ in range(5):
            clock.advance(1.0)
            monitor.sample()
        assert [stamp for stamp, _, _ in monitor._history["availability"]] == [1003.0, 1004.0, 1005.0]


class TestDefaultSLOs:
    def test_defaults_name_the_serving_series(self):
        slos = {slo.name: slo for slo in default_slos()}
        assert slos["query_latency"].histogram == "repro_query_latency_seconds"
        assert slos["serving_availability"].counter == "repro_serving_requests_total"
        assert slos["serving_availability"].bad_values == ("error",)
