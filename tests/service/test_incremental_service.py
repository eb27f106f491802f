"""Scoped invalidation, typed cache keys, version-vector snapshots, re-pinning."""

import pytest

from repro.closure import shortest_path_cost, widest_path_semiring
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import DiGraph
from repro.incremental import VersionVector
from repro.observability import MetricsRegistry
from repro.service import CachedAnswer, CacheKey, LRUCache, QueryService
from repro.service.cache import fragment_mask
from repro.service.pool import WorkerPoolError


def three_fragment_line():
    """Three cliques in a line: 0-3 | 4-7 | 8-11, single bridges between them.

    An update inside fragment 0 cannot affect an answer confined to fragment
    2 — the setting scoped invalidation is about.
    """
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


class TestScopedInvalidation:
    def test_far_update_keeps_unrelated_answers_cached(self):
        service = QueryService(three_fragment_line())
        far = service.query(9, 11)      # confined to fragment 2
        crossing = service.query(0, 11)  # crosses every fragment
        assert not far.cached and not crossing.cached
        service.update_edge(0, 3, 5.0)   # interior to fragment 0: 0 -> 3 now costs 2
        assert service.query(9, 11).cached
        again = service.query(0, 11)
        assert not again.cached and again.value == crossing.value + 1
        assert again.value == shortest_path_cost(service.database.graph, 0, 11)

    def test_a_reweight_to_the_current_weight_changes_nothing(self):
        service = QueryService(three_fragment_line())
        service.query(0, 11)
        service.query(1, 3)
        heard = []
        service.database.add_update_listener(heard.append)
        version, vector = service.catalog_version, service.version_vector.copy()
        log_length = len(service.database.delta_log)
        cached = [(key, service.cache.get(key)) for key in list(service.cache)]
        assert service.update_edge(1, 3, 1.0) == 0  # the stored weight; still returns the owner
        assert heard == [] and service.stats.updates_applied.value() == 0
        assert service.catalog_version == version and service.version_vector == vector
        assert len(service.database.delta_log) == log_length
        assert [(key, service.cache.get(key)) for key in list(service.cache)] == cached

    def test_inserting_a_stored_edge_at_its_weight_changes_nothing(self):
        service = QueryService(three_fragment_line())
        service.query(0, 11)
        heard = []
        service.database.add_update_listener(heard.append)
        version, vector = service.catalog_version, service.version_vector.copy()
        log_length = len(service.database.delta_log)
        assert service.database.insert_edge(0, 3, 1.0) == 0
        assert service.database.insert_edge(0, 3, 1.0, symmetric=True) == 0
        assert heard == [] and service.stats.updates_applied.value() == 0
        assert service.catalog_version == version and service.version_vector == vector
        assert len(service.database.delta_log) == log_length

    def test_a_symmetric_insert_applies_only_the_half_that_changes(self):
        service = QueryService(three_fragment_line())
        # 0 -> 3 is stored at 1.0; 3 -> 0 moves to 2.0 only after this one-way write.
        service.update_edge(3, 0, 2.0)
        log = service.database.delta_log
        sequence = log.last_sequence
        service.database.insert_edge(0, 3, 1.0, symmetric=True)
        (record,) = log.records_since(sequence)
        assert [(c.source, c.target, c.weight, c.old_weight) for c in record.changes] == [
            (3, 0, 1.0, 2.0)
        ]
        assert service.database.graph.edge_weight(3, 0) == 1.0

    def test_a_writes_re_read_is_not_query_load(self):
        service = QueryService(three_fragment_line())
        service.query(0, 11)
        service.query(1, 3)
        load, evaluations = service.stats.counts(service.stats.per_site_load), service.stats.local_evaluations.value()
        service.update_edge(0, 2, 0.5)  # re-reads fragment 0's arcs and endpoint rows
        assert service.database.last_delta is not None  # absorbed in place
        assert service.stats.reread_tasks.value() > 0
        assert service.stats.as_dict()["reread_tasks"] == service.stats.reread_tasks.value()
        assert service.stats.counts(service.stats.per_site_load) == load
        assert service.stats.local_evaluations.value() == evaluations

    def test_each_write_records_what_it_decided_for_each_cached_answer(self):
        service = QueryService(three_fragment_line())
        service.query(0, 11)  # crosses every fragment
        service.query(1, 3)   # inside fragment 0
        service.query(9, 11)  # inside fragment 2
        service.update_edge(0, 2, 0.5)  # interior to fragment 0, off every row either answer read
        assert service.stats.cache_decisions() == {
            "kept": 2,
            "endpoint_rows": 0,
            "arcs_moved": 0,
            "only_worse_on_chain": 0,
            "no_inputs": 0,
        }
        for pair in ((0, 11), (1, 3)):
            kept = service.query(*pair)
            assert kept.cached and kept.value == shortest_path_cost(service.database.graph, *pair)
        service.update_edge(1, 3, 5.0)  # the inside answer's own edge; 0 -> 11 leaves by 0 -> 3
        decisions = service.stats.cache_decisions()
        assert decisions["endpoint_rows"] == 1 and decisions["kept"] == 3
        assert service.stats.as_dict()["cache_decisions"] == decisions
        exposition = service.metrics("prometheus")
        assert 'repro_cache_write_decisions_total{decision="kept"} 3' in exposition
        assert service.query(0, 11).cached and not service.query(1, 3).cached

    def test_a_pool_failure_during_the_re_read_evicts_every_candidate(self, monkeypatch):
        service = QueryService(three_fragment_line())
        service.query(0, 11)
        service.query(9, 11)

        def lost(tasks, grouped=False, reread=False):
            raise WorkerPoolError("routed evaluation lost tasks")

        monkeypatch.setattr(service, "_evaluate_tasks", lost)
        service.update_edge(0, 2, 0.5)  # a write that would keep (0, 11) after a re-read
        monkeypatch.undo()
        assert service.stats.cache_decisions()["arcs_moved"] == 1
        assert not service.query(0, 11).cached and service.query(9, 11).cached

    def test_scoped_eviction_counts_are_observable(self):
        service = QueryService(three_fragment_line())
        service.query(9, 11)
        service.query(1, 3)
        service.update_edge(1, 3, 5.0)  # the fragment-0 answer's own edge
        assert service.stats.scoped_invalidations.value() == 1
        assert service.stats.cache_entries_evicted.value() == 1  # only the fragment-0 answer
        assert len(service.cache) == 1

    def test_an_update_outside_the_envelope_flushes_everything(self):
        # A custom semiring has no in-place repair: every update is a
        # counted fallback into the classic rebuild.
        service = QueryService(three_fragment_line(), semiring=widest_path_semiring())
        service.query(9, 11)
        service.query(1, 3)
        service.update_edge(0, 2, 0.5)
        assert len(service.cache) == 0
        assert service.stats.scoped_invalidations.value() == 0
        assert service.stats.update_fallbacks()["unsupported"] == 1
        assert not service.query(9, 11).cached

    def test_version_vector_moves_only_for_dirty_fragments(self):
        service = QueryService(three_fragment_line())
        service.query(0, 11)
        before = service.catalog_version
        service.update_edge(0, 2, 0.5)
        assert service.catalog_version != before
        assert service.version_vector.version_of(0) == 1
        assert service.version_vector.version_of(2) == 0

    def test_answers_stay_correct_across_mixed_updates(self):
        service = QueryService(three_fragment_line())
        probes = [(0, 11), (9, 11), (5, 1), (8, 3)]
        for source, target, weight in [(0, 2, 0.5), (3, 4, 0.25), (9, 10, 4.0)]:
            service.update_edge(source, target, weight)
            for probe in probes:
                assert service.query(*probe).value == shortest_path_cost(
                    service.database.graph, *probe
                )


class TestTypedCacheKey:
    def test_keys_are_typed_not_positional(self):
        service = QueryService(three_fragment_line())
        service.query(9, 11)
        (key,) = list(service.cache)
        assert isinstance(key, CacheKey)
        assert (key.source, key.target) == (9, 11)
        assert key.semiring == "shortest_path"

    def test_entries_record_their_fragment_dependencies(self):
        service = QueryService(three_fragment_line())
        service.query(9, 11)
        (key,) = list(service.cache)
        entry = service.cache.get(key)
        assert isinstance(entry, CachedAnswer)
        assert [fragment for fragment, _ in entry.fragment_versions] == [2]
        assert entry.fragment_mask == fragment_mask({2})

    def test_evict_where_and_discard(self):
        cache = LRUCache(8, registry=MetricsRegistry())
        key_a = CacheKey("a", "b", "shortest_path", "v")
        key_b = CacheKey("b", "c", "shortest_path", "v")
        cache.put(key_a, CachedAnswer(1.0, (0,), fragment_versions=((0, 1),)))
        cache.put(key_b, CachedAnswer(2.0, (1,), fragment_versions=((1, 1),)))
        dropped = cache.evict_where(lambda key, entry: entry.fragment_mask & fragment_mask({0}))
        assert dropped == 1 and key_a not in cache and key_b in cache
        assert cache.discard(key_b)
        assert not cache.discard(key_b)
        assert len(cache) == 0

    def test_stale_entry_is_never_served_even_without_eviction(self):
        service = QueryService(three_fragment_line())
        service.query(9, 11)
        (key,) = list(service.cache)
        # Forge staleness: bump the fragment the entry depends on without
        # running the listener's eviction pass.
        service.database.version_vector.bump(2)
        assert not service.query(9, 11).cached
        assert key not in service.cache or service.cache.get(key) is not None


class TestSnapshotVersionVector:
    @pytest.fixture
    def fragmentation(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        return GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)

    def test_round_trip_resumes_mid_stream(self, fragmentation, tmp_path):
        service = QueryService(fragmentation)
        service.query(0, 7)
        service.update_edge(0, 4, 0.5)
        service.update_edge(1, 2, 0.75)
        vector_before = service.version_vector.copy()
        assert sum(vector_before.as_dict()["versions"].values()) > 0
        service.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap")
        assert restored.version_vector == vector_before
        # The stream continues from the restored versions, not from zero.
        restored.update_edge(0, 4, 0.4)
        assert restored.version_vector.version_of(0) > vector_before.version_of(0)
        assert restored.query(0, 7).value == shortest_path_cost(restored.database.graph, 0, 7)

    def test_snapshot_without_vector_loads_at_zero(self, fragmentation, tmp_path):
        from repro.disconnection import DisconnectionSetEngine
        from repro.service import load_snapshot, save_snapshot

        engine = DisconnectionSetEngine(fragmentation)
        save_snapshot(tmp_path / "snap", engine)  # no vector passed
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.version_vector == VersionVector()

    def test_vector_is_not_part_of_the_content_hash(self, fragmentation, tmp_path):
        service = QueryService(fragmentation)
        manifest_a = service.snapshot(tmp_path / "a")
        service.update_edge(0, 4, 1.0)  # reweight to the same value: same content
        manifest_b = service.snapshot(tmp_path / "b")
        assert manifest_a.version == manifest_b.version


class TestPoolRepin:
    def test_workers_absorb_incremental_updates(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        with QueryService(fragmentation, workers=2) as service:
            assert service.query(0, 7).value == 2.0
            service.update_edge(0, 4, 0.25)
            assert service.query(0, 7).value == shortest_path_cost(
                service.database.graph, 0, 7
            )
            service.update_edge(4, 5, 10.0)  # repairs the shared border pair
            for probe in [(0, 7), (1, 6), (2, 5)]:
                assert service.query(*probe).value == shortest_path_cost(
                    service.database.graph, *probe
                )
            assert service._pool is not None
            assert service._pool.repins >= 2


class TestRespawnAfterRepin:
    def test_a_respawned_worker_serves_the_repinned_state(self):
        """A worker respawned after a crash re-pins the pool's mirror; repin
        must keep that mirror current or the respawn would silently serve
        pre-update state."""
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        with QueryService(fragmentation, workers=2) as service:
            service.query(0, 7)
            service.update_edge(0, 4, 0.25)
            pool = service._pool
            for handle in pool._workers:
                handle.process.terminate()
                handle.process.join(timeout=5)
                assert not handle.process.is_alive()
            assert service.query(0, 4).value == 0.25
            assert pool.respawns >= 1
