"""Query log: bounding, eviction, the slow side car, workload aggregations."""

import pytest

from repro.observability import DEFAULT_SLOW_THRESHOLD_SECONDS, QueryLog, QueryLogEntry


def push(log, source, target, **fields):
    """Record one shortest-path entry with convenient defaults."""
    log.push(source, target, "shortest_path", **fields)


class TestBoundingAndEviction:
    def test_capacity_bounds_the_window_oldest_first(self):
        log = QueryLog(capacity=3)
        for index in range(5):
            push(log, index, index + 1)
        assert len(log) == 3
        assert [entry.source for entry in log.recent(5)] == [4, 3, 2]
        assert log.recorded == 5  # the counter keeps the total

    def test_recent_returns_newest_first(self):
        log = QueryLog(capacity=10)
        for index in range(4):
            push(log, index, index + 1)
        assert [entry.source for entry in log.recent(2)] == [3, 2]

    def test_zero_capacity_disables_recording(self):
        log = QueryLog(capacity=0)
        push(log, 1, 2)
        assert len(log) == 0
        assert log.recorded == 0
        assert not log.enabled
        log.enable()  # a no-op: there is no window to record into
        assert not log.enabled

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=-1)

    def test_clear_drops_entries_but_keeps_totals(self):
        log = QueryLog()
        push(log, 1, 2)
        push(log, 2, 3)
        assert log.clear() == 2
        assert len(log) == 0
        assert log.recorded == 2

    def test_disable_enable_toggle(self):
        log = QueryLog()
        log.disable()
        push(log, 1, 2)
        assert log.recorded == 0
        log.enable()
        push(log, 1, 2)
        assert log.recorded == 1


class TestSlowQueries:
    def test_slow_entries_survive_fast_traffic(self):
        log = QueryLog(capacity=2)
        push(log, 0, 1, latency=0.5)
        for index in range(10):  # a burst of fast queries rolls the window
            push(log, index, index + 1, latency=0.001)
        assert len(log) == 2
        slowest = log.slowest(1)
        assert slowest[0].latency == 0.5  # retained by the side car
        assert log.slow_count == 1

    def test_slowest_falls_back_to_ranking_the_window(self):
        log = QueryLog()  # nothing crosses the 0.1 s threshold
        push(log, 0, 1, latency=0.003)
        push(log, 1, 2, latency=0.009)
        push(log, 2, 3, latency=0.001)
        assert [entry.latency for entry in log.slowest(2)] == [0.009, 0.003]

    def test_threshold_is_inclusive(self):
        log = QueryLog()
        assert DEFAULT_SLOW_THRESHOLD_SECONDS == 0.1
        push(log, 0, 1, latency=0.1)
        assert log.slow_count == 1


class TestWorkloadSignals:
    def test_fragment_frequencies_count_cached_answers_too(self):
        log = QueryLog()
        push(log, 0, 1, fragments=(0, 2), cached=False)
        push(log, 1, 2, fragments=(2,), cached=True)
        assert log.fragment_frequencies() == {0: 1, 2: 2}

    def test_query_skew_is_max_over_mean(self):
        log = QueryLog()
        push(log, 0, 1, fragments=(0,))
        push(log, 1, 2, fragments=(0,))
        push(log, 2, 3, fragments=(0, 1))
        # touches: fragment 0 -> 3, fragment 1 -> 1; mean 2, max 3.
        assert log.query_skew() == pytest.approx(1.5)
        assert QueryLog().query_skew() == 0.0

    def test_cached_share_and_error_count(self):
        log = QueryLog()
        push(log, 0, 1, cached=True)
        push(log, 1, 2, cached=False)
        push(log, 2, 3, error="no plan")
        assert log.cached_share() == pytest.approx(1 / 3)
        assert log.error_count() == 1
        assert QueryLog().cached_share() == 0.0


class TestEntryRoundTrip:
    def test_entry_dict_is_json_shaped(self):
        import json

        log = QueryLog()
        push(log, 0, 1, fragments=(0,), latency=0.01, trace_id="t-1")
        [payload] = [entry.as_dict() for entry in log.recent()]
        json.dumps(payload)
        assert payload["source"] == 0
        assert payload["fragments"] == [0]
        assert payload["trace_id"] == "t-1"
        assert payload["timestamp"] > 0

    def test_entry_gets_a_timestamp_by_default(self):
        entry = QueryLogEntry("a", "b", "shortest_path")
        assert entry.timestamp > 0
