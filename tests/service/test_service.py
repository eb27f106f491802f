"""Tests for the QueryService façade: caching, invalidation, batching, pooling."""

import pytest

from repro.closure import reachability_semiring, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.exceptions import NoChainError
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.service import QueryService

from tests.service.test_cache import cache_events
from tests.transit_layouts import grid_layout, oracle_value, ring_layout


def make_fragmentation():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    return GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)


@pytest.fixture
def service():
    return QueryService(make_fragmentation())


class TestQuery:
    def test_matches_the_one_shot_engine(self, service):
        engine = DisconnectionSetEngine(make_fragmentation())
        for source, target in [(0, 7), (1, 6), (3, 4), (2, 3)]:
            assert service.query(source, target).value == engine.query(source, target).value

    def test_repeated_query_hits_the_cache(self, service):
        first = service.query(1, 7)
        evaluations = service.stats.local_evaluations.value()
        second = service.query(1, 7)
        assert not first.cached
        assert second.cached
        assert second.value == first.value
        assert second.chain == first.chain
        assert service.stats.cache_hits.value() == 1
        assert cache_events(service.registry, "miss") == 1
        # The cache hit did no local work: the evaluation count is unchanged.
        assert evaluations > 0 and service.stats.local_evaluations.value() == evaluations

    def test_same_node_query_is_trivial(self, service):
        answer = service.query(3, 3)
        assert answer.value == service.semiring.one
        assert answer.chain is None

    def test_unknown_node_raises(self, service):
        with pytest.raises(NoChainError):
            service.query(0, "missing")

    def test_latency_and_hit_rate_are_tracked(self, service):
        service.query(0, 7)
        service.query(0, 7)
        assert service.stats.queries.value() == 2
        assert service.stats.hit_rate() == 0.5
        assert service.stats.average_latency() > 0.0
        assert service.stats.max_latency.value() >= service.stats.average_latency()


class TestCacheInvalidation:
    def test_update_edge_invalidates_cached_answers(self, service):
        before = service.query(0, 4)
        assert before.value == pytest.approx(1.0)
        service.update_edge(0, 4, 0.25)
        after = service.query(0, 4)
        assert not after.cached
        assert after.value == pytest.approx(0.25)
        assert service.stats.invalidations.value() == 1
        assert service.stats.updates_applied.value() == 1

    def test_update_bumps_catalog_version(self, service):
        version = service.catalog_version
        service.update_edge(2, 6, 3.0)
        assert service.catalog_version != version

    def test_insert_then_delete_roundtrip(self, service):
        baseline = service.query(2, 6).value
        service.update_edge(2, 6, 0.125)
        assert service.query(2, 6).value == pytest.approx(0.125)
        service.update_edge(2, 6, delete=True)
        assert service.query(2, 6).value == pytest.approx(baseline)

    def test_cached_entries_from_old_versions_cannot_be_served(self, service):
        service.query(1, 7)
        service.update_edge(0, 4, 9.0)
        # After the flush the old answer is gone even though the key differs
        # only in its version component.
        assert len(service.cache) == 0
        answer = service.query(1, 7)
        assert not answer.cached


class TestBatch:
    def test_batch_matches_individual_queries(self, service):
        queries = [(0, 7), (1, 6), (2, 3), (3, 4)]
        expected = [service.query(source, target).value for source, target in queries]
        fresh = QueryService(make_fragmentation())
        answers = fresh.query_batch(queries)
        assert [answer.value for answer in answers] == expected

    def test_batch_dedupes_submitted_queries(self, service):
        answers = service.query_batch([(0, 7), (0, 7), (0, 7)])
        assert len(answers) == 3
        assert len({answer.value for answer in answers}) == 1
        assert service.stats.duplicate_queries_saved.value() == 2
        # Dedup-served duplicates count as hits: one computation, two free rides.
        assert service.stats.cache_misses.value() == 1
        assert service.stats.cache_hits.value() == 2

    def test_batch_shares_local_subqueries(self, service):
        pairs = [(0, 7), (1, 7), (2, 7)]
        answers = service.query_batch(pairs)
        assert [answer.value for answer in answers] == [
            oracle_value(service, source, target) for source, target in pairs
        ]
        # The three pairs share the target's row: two evaluations saved.
        assert service.stats.shared_subqueries_saved.value() == 2

    def test_batch_tolerates_unknown_endpoints(self, service):
        answers = service.query_batch([(0, "missing"), (0, 7)])
        assert answers[0].error is not None
        assert answers[0].value is None
        assert answers[1].error is None
        assert answers[1].exists()

    def test_batch_reuses_cache_across_calls(self, service):
        service.query_batch([(0, 7)])
        answers = service.query_batch([(0, 7)])
        assert answers[0].cached

    def test_empty_batch(self, service):
        assert service.query_batch([]) == []


class TestReachability:
    def test_reachability_semiring_is_served(self):
        service = QueryService(make_fragmentation(), semiring=reachability_semiring())
        first = service.query(0, 7)
        second = service.query(0, 7)
        assert first.value is True
        assert second.cached and second.value is True


class TestWorkerPool:
    def test_pooled_service_matches_inline_service(self):
        inline = QueryService(make_fragmentation())
        with QueryService(make_fragmentation(), workers=2) as pooled:
            for source, target in [(0, 7), (2, 5)]:
                assert pooled.query(source, target).value == inline.query(source, target).value
            assert sum(pooled.stats.counts(pooled.stats.per_site_load).values()) > 0

    def test_pool_survives_updates(self):
        with QueryService(make_fragmentation(), workers=2) as pooled:
            before = pooled.query(0, 4).value
            pooled.update_edge(0, 4, before / 2)
            assert pooled.query(0, 4).value == pytest.approx(before / 2)

    def test_pool_rejects_nonstandard_semiring(self):
        with pytest.raises(ValueError):
            QueryService(make_fragmentation(), semiring=widest_path_semiring(), workers=2)


class TestCacheBounds:
    def test_eviction_under_small_capacity(self):
        service = QueryService(make_fragmentation(), cache_size=2)
        service.query(0, 7)
        service.query(1, 7)
        service.query(2, 7)
        assert len(service.cache) == 2
        assert cache_events(service.registry, "eviction") == 1
        # The evicted (0, 7) answer is recomputed, not served stale.
        answer = service.query(0, 7)
        assert not answer.cached


class TestCyclicLayouts:
    """4 x 4 grid blocks: more chains join the corner blocks than the engine's planner enumerates.

    The service answers through the border graph, so it never flags them.
    """

    @pytest.fixture
    def grid_service(self):
        return QueryService(grid_layout(4, 4)[0])

    def test_query_answers_caches_and_logs_the_oracle_value(self, grid_service):
        expected = oracle_value(grid_service, 0, 126)
        first = grid_service.query(0, 126)
        second = grid_service.query(0, 126)
        assert first.value == second.value == expected
        assert not first.cached and second.cached
        assert first.chain[0] == 0 and first.chain[-1] == 15
        assert len(grid_service.cache) == 1
        assert grid_service.query_log.error_count() == 0

    def test_batch_answers_every_pair(self, grid_service):
        answers = grid_service.query_batch([(0, 126), (0, 3), (0, 126)])
        for answer in answers:
            assert answer.error is None
            assert answer.value == oracle_value(grid_service, answer.source, answer.target)
        assert answers[2] == answers[0]
        assert len(grid_service.cache) == 2


class TestFailedPairAccounting:
    """A pair that fails planning is logged with its error, never counted as an answer."""

    @pytest.fixture
    def ring(self):
        fragmentation, layout = ring_layout(4, 30)
        return QueryService(fragmentation), layout[0][5]

    @staticmethod
    def assert_no_answer_counted(service):
        assert service.stats.queries.value() == 0
        assert service.stats.cache_misses.value() == 0
        assert service.stats.evaluated_latency.value() == 0.0
        assert set(service.stats.latency_quantiles("evaluated").values()) == {0.0}
        (entry,) = service.query_log.recent()
        assert entry.target == "nowhere" and not entry.cached
        assert "not stored in any fragment" in entry.error

    def test_query(self, ring):
        service, node = ring
        with pytest.raises(NoChainError):
            service.query(node, "nowhere")
        self.assert_no_answer_counted(service)

    def test_query_batch(self, ring):
        service, node = ring
        (answer,) = service.query_batch([(node, "nowhere")])
        assert answer.value is None and "not stored in any fragment" in answer.error
        self.assert_no_answer_counted(service)
