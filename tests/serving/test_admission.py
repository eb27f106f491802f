"""Tests for admission control: slots, queueing, token buckets, deadlines."""

import pytest

from repro.observability import MetricsRegistry
from repro.serving import AdmissionConfig, AdmissionController, TokenBucket
from repro.serving.admission import HEAVY_COST


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def controller(clock, registry=None, **overrides):
    defaults = dict(max_concurrent=2, max_queue=2, client_rate=10.0, client_burst=10.0)
    defaults.update(overrides)
    return AdmissionController(
        AdmissionConfig(**defaults), registry=registry, clock=clock
    )


class TestSlots:
    def test_runs_until_slots_fill_then_queues_then_rejects(self, clock):
        admission = controller(clock)
        assert admission.admit("a").status == "run"
        assert admission.admit("b").status == "run"
        assert admission.admit("c").status == "queue"
        assert admission.admit("d").status == "queue"
        rejected = admission.admit("e")
        assert rejected.status == "reject"
        assert rejected.reason == "queue_full"
        assert rejected.retry_after > 0

    def test_finish_frees_the_slot_for_promotion(self, clock):
        admission = controller(clock)
        admission.admit("a")
        admission.admit("b")
        assert admission.admit("c").status == "queue"
        admission.finish("a")
        assert admission.free_slots == 1
        admission.start_queued("c")
        assert admission.active == 2
        assert admission.queued == 0

    def test_abandon_queued_frees_the_queue_spot(self, clock):
        admission = controller(clock, max_concurrent=1, max_queue=1)
        admission.admit("a")
        assert admission.admit("b").status == "queue"
        admission.abandon_queued("b", reason="deadline")
        assert admission.queued == 0
        # The spot is reusable immediately.
        assert admission.admit("c").status == "queue"

    def test_transition_guards(self, clock):
        admission = controller(clock)
        with pytest.raises(RuntimeError):
            admission.start_queued("nobody")
        with pytest.raises(RuntimeError):
            admission.abandon_queued("nobody")
        with pytest.raises(RuntimeError):
            admission.finish("nobody")


class TestTokenBuckets:
    def test_burst_exhaustion_rate_limits(self, clock):
        admission = controller(clock, max_concurrent=100)
        # 10-token burst: two heavy admissions drain it.
        assert admission.admit("hog", cost=HEAVY_COST).status == "run"
        assert admission.admit("hog", cost=HEAVY_COST).status == "run"
        rejected = admission.admit("hog", cost=HEAVY_COST)
        assert rejected.status == "reject"
        assert rejected.reason == "rate_limited"
        # 5 missing tokens at 10/s refill: half a second away.
        assert rejected.retry_after == pytest.approx(0.5)

    def test_one_client_throttling_leaves_others_unaffected(self, clock):
        admission = controller(clock, max_concurrent=100)
        for _ in range(3):
            admission.admit("hog", cost=5.0)
        assert admission.admit("hog", cost=5.0).status == "reject"
        assert admission.admit("polite", cost=1.0).status == "run"

    def test_refill_restores_admission(self, clock):
        admission = controller(clock, max_concurrent=100)
        admission.admit("hog", cost=10.0)
        assert admission.admit("hog", cost=10.0).status == "reject"
        clock.advance(1.0)  # 10 tokens/s
        assert admission.admit("hog", cost=10.0).status == "run"

    def test_bucket_caps_at_capacity(self, clock):
        bucket = TokenBucket(capacity=5.0, rate=100.0, now=clock())
        clock.advance(60.0)
        assert not bucket.take(6.0, clock())
        assert bucket.take(5.0, clock())


class TestTelemetry:
    def test_live_gauges_track_active_and_queued(self, clock):
        registry = MetricsRegistry()
        admission = controller(clock, registry=registry)
        active = registry.gauge("repro_serving_active_requests")
        depth = registry.gauge("repro_serving_queue_depth")
        admission.admit("a")
        admission.admit("b")
        admission.admit("c")
        assert active.value() == 2.0
        assert depth.value() == 1.0
        admission.finish("a")
        admission.start_queued("c")
        assert active.value() == 2.0
        assert depth.value() == 0.0

    def test_per_client_dispatch_counters(self, clock):
        registry = MetricsRegistry()
        admission = controller(clock, registry=registry)
        admission.admit("a")
        admission.finish("a")
        admission.admit("a")
        counter = registry.counter(
            "repro_serving_client_requests_total", labelnames=("client",)
        )
        assert counter.value(client="a") == 2.0

    def test_client_stats_reads_back_the_accounting(self, clock):
        admission = controller(clock, max_concurrent=1, max_queue=0)
        admission.admit("a", cost=4.0)
        admission.admit("b", cost=1.0)  # queue_full reject (slot taken)
        stats = admission.client_stats()
        assert stats["a"]["admitted"] == 1
        assert stats["a"]["active"] == 1
        assert stats["a"]["tokens"] == pytest.approx(6.0)
        assert stats["b"]["rejected"] == 1


class TestConfigValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(client_rate=0.0)
