"""Delta-log replay on restore: snapshot + tail catch-up instead of re-snapshot."""

import pytest

from repro.closure import shortest_path_cost
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.service import QueryService


def three_fragment_line():
    graph = DiGraph()
    blocks = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12))]
    for block in blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                graph.add_edge(a, b, 1.0)
                graph.add_edge(b, a, 1.0)
    for left, right in ((3, 4), (7, 8)):
        graph.add_edge(left, right, 1.0)
        graph.add_edge(right, left, 1.0)
    return GroundTruthFragmenter([set(block) for block in blocks]).fragment(graph)


class TestReplayOnRestore:
    def test_restored_service_catches_up_from_the_live_log(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.update_edge(0, 2, 0.5)
        live.snapshot(tmp_path / "snap")
        # The live database keeps moving after the snapshot was taken.
        live.update_edge(9, 11, 0.25)
        live.update_edge(3, 4, 4.0)
        live.update_edge(5, 7, 0.75)

        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert restored.stats.replayed_records.value() == 3
        assert restored.version_vector == live.version_vector
        assert restored.database.delta_log.last_sequence == live.database.delta_log.last_sequence
        for probe in [(0, 11), (9, 11), (5, 1), (8, 3)]:
            assert restored.query(*probe).value == pytest.approx(
                shortest_path_cost(live.database.graph, *probe)
            )

    def test_replay_goes_through_the_incremental_maintainer(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.snapshot(tmp_path / "snap")
        live.update_edge(0, 2, 0.5)
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        # The restored engine was patched in place, not rebuilt: replay is
        # incremental maintenance, not a fresh preparation.
        assert restored.database.statistics.incremental_updates == 1
        assert restored.database.statistics.engine_rebuilds == 0
        assert restored.database.delta_log.last().incremental

    def test_replayed_records_keep_their_sequence_numbers(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.update_edge(0, 2, 0.5)
        live.update_edge(4, 6, 0.75)
        live.snapshot(tmp_path / "snap")
        live.update_edge(8, 10, 0.25)
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert [r.sequence for r in restored.database.delta_log.records()] == [3]
        # A second-generation hand-off from the restored service's own log
        # therefore composes: records_since(2) finds exactly the tail.
        assert len(restored.database.delta_log.records_since(2)) == 1

    def test_no_tail_means_no_replay_work(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.update_edge(0, 2, 0.5)
        live.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert restored.stats.replayed_records.value() == 0

    def test_replay_crosses_a_refragmentation(self, tmp_path):
        # A refragment record carries the complete aligned layout, so a
        # replica follows the reorganisation — and every later record's
        # fragment ids line up with the redrawn layout.
        from repro.fragmentation import HashFragmenter

        live = QueryService(three_fragment_line())
        live.snapshot(tmp_path / "snap")
        live.database.refragment(HashFragmenter(2))
        live.update_edge(0, 2, 0.5)
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert restored.stats.replayed_records.value() == 2
        live_frag = live.database.fragmentation()
        restored_frag = restored.database.fragmentation()
        assert [f.edges for f in restored_frag.fragments] == [
            f.edges for f in live_frag.fragments
        ]
        for probe in [(0, 11), (9, 11), (0, 2)]:
            assert restored.query(*probe).value == pytest.approx(
                shortest_path_cost(live.database.graph, *probe)
            )

    def test_replay_record_applies_the_recorded_layout(self):
        live = QueryService(three_fragment_line())
        replica = QueryService(three_fragment_line())
        from repro.fragmentation import HashFragmenter

        live.database.refragment(HashFragmenter(2))
        record = live.database.delta_log.last()
        assert record.layout is not None
        replica.database.replay_record(record)
        assert [f.edges for f in replica.database.fragmentation().fragments] == [
            f.edges for f in live.database.fragmentation().fragments
        ]

    def test_legacy_layoutless_refragment_records_still_refuse(self):
        from repro.incremental import DeltaRecord

        replica = QueryService(three_fragment_line())
        legacy = DeltaRecord(sequence=1, kind="refragment")  # no layout recorded
        with pytest.raises(ValueError, match="resynchronise"):
            replica.database.replay_record(legacy)

    def test_falling_off_the_log_tail_is_an_error(self, tmp_path):
        from repro.incremental import DeltaLog

        live = QueryService(three_fragment_line())
        live.snapshot(tmp_path / "snap")
        # A tiny log that evicted everything the snapshot could replay from.
        tiny = DeltaLog(capacity=1)
        for sequence in range(5):
            tiny.append("reweight", incremental=True)
        with pytest.raises(ValueError, match="resynchronise"):
            QueryService.from_snapshot(tmp_path / "snap", replay_log=tiny)

    def test_replay_of_a_delete_and_insert(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.snapshot(tmp_path / "snap")
        live.update_edge(0, 3, delete=True)
        live.update_edge(1, 11, 2.5)  # a brand-new cross-fragment edge
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert not restored.database.graph.has_edge(0, 3)
        assert restored.database.graph.edge_weight(1, 11) == 2.5
        for probe in [(0, 11), (1, 11), (0, 3)]:
            assert restored.query(*probe).value == pytest.approx(
                shortest_path_cost(live.database.graph, *probe)
            )

    def test_replay_lands_on_the_same_fragment_owners(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.snapshot(tmp_path / "snap")
        owner = live.update_edge(5, 12, 1.5)  # node 12 is brand new
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        record = restored.database.delta_log.last()
        assert record.dirty_fragments == (owner,)


class TestResumedLogTail:
    def test_resumed_empty_log_does_not_fake_an_empty_tail(self):
        # A database restored from a snapshot at sequence 100 has an empty
        # log that *knows of* sequences up to 100 without holding them.  A
        # consumer at sequence 10 must get the fell-off-tail error, not a
        # silent empty tail that would let it believe it caught up.
        from repro.incremental import DeltaLog

        log = DeltaLog()
        log.resume_at(100)
        assert log.records_since(100) == []
        with pytest.raises(ValueError, match="resynchronise"):
            log.records_since(10)

    def test_second_generation_restore_is_caught(self, tmp_path):
        live = QueryService(three_fragment_line())
        live.update_edge(0, 2, 0.5)
        old = live.snapshot(tmp_path / "old")
        live.update_edge(4, 6, 0.75)
        live.snapshot(tmp_path / "new")
        # A source that is itself a fresh restore of the newer snapshot has
        # an empty, resumed log; replaying the older snapshot against it
        # must fail loudly instead of silently skipping updates 2..2.
        source = QueryService.from_snapshot(tmp_path / "new")
        with pytest.raises(ValueError, match="resynchronise"):
            QueryService.from_snapshot(
                tmp_path / "old", replay_log=source.database.delta_log
            )


class TestSequenceSeeding:
    def test_snapshot_records_the_delta_position(self, tmp_path):
        from repro.service import load_snapshot

        live = QueryService(three_fragment_line())
        live.update_edge(0, 2, 0.5)
        live.update_edge(4, 6, 0.75)
        live.snapshot(tmp_path / "snap")
        assert load_snapshot(tmp_path / "snap").delta_sequence == 2

    def test_old_snapshots_load_at_sequence_zero(self, tmp_path):
        from repro.disconnection import DisconnectionSetEngine
        from repro.service import load_snapshot, save_snapshot

        engine = DisconnectionSetEngine(three_fragment_line())
        save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.delta_sequence == 0
        assert loaded.placement_plan is None
