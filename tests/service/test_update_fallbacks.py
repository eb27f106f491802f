"""A write the live engine did not absorb is counted, by the stage that gave up.

The full rebuild keeps every answer right, so without a counter a broken
in-place path would only ever show up as lost speed.
"""

import pytest

from repro.closure import widest_path_semiring
from repro.disconnection import FragmentedDatabase
from repro.disconnection.maintenance import UpdateEvent
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.incremental.maintainer import IncrementalMaintainer
from repro.service import QueryService

from tests.transit_layouts import interior, ring_layout


def three_pairs():
    graph = DiGraph(
        [
            ("a", "b", 1.0), ("b", "a", 1.0),
            ("c", "d", 1.0), ("d", "c", 1.0),
            ("e", "f", 1.0), ("f", "e", 1.0),
            ("b", "c", 1.0), ("f", "a", 1.0),
        ]
    )
    return GroundTruthFragmenter([{"a", "b"}, {"c", "d"}, {"e", "f"}]).fragment(graph)


def events_of(database):
    events = []
    database.add_update_listener(events.append)
    return events


class TestDatabase:
    def test_an_absorbed_update_reports_no_fallback(self):
        database = FragmentedDatabase(three_pairs())
        database.engine()
        events = events_of(database)
        database.update_edge_weight("a", "b", 3.0)
        assert events == [
            UpdateEvent("reweight", "a", "b", 0, dirty_fragments=(0,), incremental=True)
        ]
        assert database.statistics.incremental_fallbacks == 0
        assert database.statistics.as_dict()["incremental_fallbacks"] == 0

    def test_an_emptied_fragment_falls_back_in_complete(self):
        database = FragmentedDatabase(three_pairs())
        database.engine()
        events = events_of(database)
        database.delete_edge("c", "d")
        database.delete_edge("d", "c")
        assert [event.fallback for event in events] == [None, "complete"]
        assert database.statistics.incremental_fallbacks == 1

    def test_a_write_without_a_live_engine_is_unsupported(self):
        database = FragmentedDatabase(three_pairs())
        events = events_of(database)  # engine() was never called
        database.update_edge_weight("a", "b", 3.0)
        assert events[0].fallback == "unsupported" and not events[0].incremental
        assert database.statistics.incremental_fallbacks == 1

    def test_a_custom_semiring_is_unsupported(self):
        database = FragmentedDatabase(
            three_pairs(), semiring=widest_path_semiring()
        )
        database.engine()
        events = events_of(database)
        database.update_edge_weight("a", "b", 3.0)
        assert events[0].fallback == "unsupported"

    def test_a_failing_probe_falls_back_in_begin(self, monkeypatch):
        database = FragmentedDatabase(three_pairs())
        database.engine()
        events = events_of(database)

        def broken(self, changes):
            raise RuntimeError("probe")

        monkeypatch.setattr(IncrementalMaintainer, "begin", broken)
        database.update_edge_weight("a", "b", 3.0)
        assert events[0].fallback == "begin"
        assert database.engine().query("a", "b").value == 3.0


class TestService:
    def test_the_counter_is_exported_shown_and_round_trips(self):
        service = QueryService(three_pairs())
        service.update_edge("a", "b", 3.0)
        assert service.stats.update_fallbacks() == {"begin": 0, "complete": 0, "unsupported": 0}
        service.update_edge("c", "d", delete=True)
        service.update_edge("d", "c", delete=True)  # fragment 1 empties
        service.update_edge("a", "b", 4.0)  # no read since: the engine is still stale
        expected = {"begin": 0, "complete": 1, "unsupported": 1}
        assert service.stats.update_fallbacks() == expected
        assert service.stats.as_dict()["update_fallbacks"] == expected
        assert service.database.statistics.incremental_fallbacks == 2
        exposition = service.metrics("prometheus")
        assert 'repro_update_fallbacks_total{stage="complete"} 1' in exposition
        assert 'repro_update_fallbacks_total{stage="unsupported"} 1' in exposition
        assert service.query("a", "b").value == 4.0

    def test_the_repair_report_carries_its_decision_inputs(self):
        fragmentation, layout = ring_layout()
        service = QueryService(fragmentation)
        a, b = interior(layout, 2)
        service.update_edge(a, b, 30.0)
        report = service.database.last_delta.report
        stored = service.engine().catalog.complementary.values
        largest = max(value for values in stored.values() for value in values.values())
        assert report.searches == 2
        assert report.probe_limit == pytest.approx(largest)
        assert 0 < report.probe_settled < service.database.graph.node_count()
