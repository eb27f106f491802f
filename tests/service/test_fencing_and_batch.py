"""Replica version fencing and placement-aware batch planning."""

import random

import pytest

from repro.closure import shortest_path_cost
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.placement import PlacementPlan
from repro.service import PlacedWorkerPool, QueryService


def clique_line(blocks=3, size=4, seed=None):
    rng = random.Random(seed)
    graph = DiGraph()
    node_blocks = [list(range(i * size, (i + 1) * size)) for i in range(blocks)]
    for block in node_blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                weight = 1.0 if seed is None else rng.uniform(0.5, 3.0)
                graph.add_edge(a, b, weight)
                graph.add_edge(b, a, weight)
    for i in range(blocks - 1):
        left, right = node_blocks[i][-1], node_blocks[i + 1][0]
        weight = 1.0 if seed is None else rng.uniform(0.5, 3.0)
        graph.add_edge(left, right, weight)
        graph.add_edge(right, left, weight)
    return GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)


def replicated_plan():
    # Fragment 0 is replicated onto both other workers; 3 workers total.
    return PlacementPlan(
        owner_of={0: 0, 1: 1, 2: 2},
        worker_count=3,
        replicas={0: (1, 2)},
    )


class TestReplicaVersionFencing:
    def test_update_of_a_replicated_fragment_repins_only_the_owner(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement=replicated_plan()) as service:
            service.query(0, 11)  # starts the pool
            pool = service._pool
            service.update_edge(0, 2, 0.5)  # interior to replicated fragment 0
            # Eager delivery reached exactly one worker: the owner.
            assert pool.repin_messages == 1
            assert pool.last_repin_workers == (0,)
            # Both replicas were fenced, not refreshed.
            assert pool.replica_repins_deferred == 2
            assert pool.replica_refreshes == 0
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )

    def test_fenced_replica_refreshes_on_first_routed_read(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement=replicated_plan()) as service:
            service.query(0, 11)
            pool = service._pool
            service.update_edge(0, 2, 0.5)
            assert pool.replica_refreshes == 0
            # Kill the owner: the next read of fragment 0 falls back to a
            # fenced replica, which must refresh from the mirror first.
            pool._workers[0].process.terminate()
            pool._workers[0].process.join()
            service.cache.clear()
            assert service.query(0, 3).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 3)
            )
            assert pool.replica_fallbacks >= 1
            assert pool.replica_refreshes >= 1
            assert service.stats.replica_refreshes.value() >= 1

    def test_repeated_updates_defer_repeatedly_but_refresh_once(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement=replicated_plan()) as service:
            service.query(0, 11)
            pool = service._pool
            for step in range(3):
                service.update_edge(0, 2, 0.5 + step * 0.25)
            assert pool.replica_repins_deferred == 6  # 3 updates x 2 replicas
            pool._workers[0].process.terminate()
            pool._workers[0].process.join()
            service.cache.clear()
            assert service.query(0, 3).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 3)
            )
            # One refresh served all three deferred updates: the fence holds
            # a version, not a backlog.
            assert pool.replica_refreshes == 1

    def test_randomized_kills_with_fencing_match_the_truth(self):
        fragmentation = clique_line(seed=13)
        rng = random.Random(13)
        nodes = sorted(fragmentation.graph.nodes())
        with QueryService(fragmentation, placement=replicated_plan()) as service:
            service.query(0, 11)
            pool = service._pool
            for step in range(20):
                op = rng.random()
                if op < 0.4:
                    source, target = rng.sample(nodes, 2)
                    service.query(source, target)
                elif op < 0.8:
                    source, target = rng.sample(nodes, 2)
                    service.update_edge(source, target, rng.uniform(0.5, 3.0))
                else:
                    victim = rng.randrange(pool.worker_count)
                    if pool._workers[victim].is_alive():
                        pool._workers[victim].process.terminate()
                        pool._workers[victim].process.join()
            service.cache.clear()
            for _ in range(8):
                source, target = rng.sample(nodes, 2)
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )


class TestPlacementAwareBatches:
    def test_batch_is_grouped_per_owner(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)  # starts the pool; plan is live
            answers = service.query_batch([(0, 11), (4, 9), (11, 0), (5, 2)])
            assert all(answer.error is None for answer in answers)
            assert service.stats.placement_aware_batches.value() == 1
            assert 1 <= service.stats.batch_owner_rounds.value() <= 3
            for answer in answers:
                source, target = answer.source, answer.target
                assert answer.value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )

    def test_grouped_batch_matches_ungrouped_answers(self):
        fragmentation = clique_line(seed=3)
        queries = [(0, 11), (1, 10), (8, 2), (4, 9), (11, 1)]
        baseline = QueryService(fragmentation)
        expected = [answer.value for answer in baseline.query_batch(queries)]
        with QueryService(fragmentation, placement="cost_balanced", workers=2) as service:
            service.query(0, 11)
            got = [answer.value for answer in service.query_batch(queries)]
            assert got == pytest.approx(expected)

    def test_group_for_a_dead_owner_falls_back_to_live_routing(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            assert isinstance(pool, PlacedWorkerPool)
            victim = service.placement_plan.owner(0)
            pool._workers[victim].process.terminate()
            pool._workers[victim].process.join()
            service.cache.clear()
            answers = service.query_batch([(0, 11), (2, 9)])
            for answer in answers:
                assert answer.value == pytest.approx(
                    shortest_path_cost(
                        service.database.graph, answer.source, answer.target
                    )
                )

    def test_in_process_batches_stay_placement_blind(self):
        service = QueryService(clique_line())
        service.query_batch([(0, 11), (4, 9)])
        assert service.stats.placement_aware_batches.value() == 0

    def test_batches_regroup_after_a_migration(self):
        fragmentation = clique_line()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            destination = (service.placement_plan.owner(0) + 1) % 3
            service.migrate(0, destination)
            answers = service.query_batch([(0, 11), (1, 9)])
            for answer in answers:
                assert answer.value == pytest.approx(
                    shortest_path_cost(
                        service.database.graph, answer.source, answer.target
                    )
                )
            assert service.stats.placement_aware_batches.value() >= 1
