"""Shared-nothing placement through the service: routing, repins, migration,
worker death, snapshot round-trips."""

import random

import pytest

from repro.closure import shortest_path_cost
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import DiGraph
from repro.placement import PlacementError, PlacementPlan, round_robin_plan
from repro.service import PlacedWorkerPool, QueryService


def clique_line_fragmentation(blocks=3, block_size=4, seed=None):
    """``blocks`` cliques in a line with single bridges; optionally noisy weights."""
    rng = random.Random(seed)
    graph = DiGraph()
    node_blocks = [
        list(range(index * block_size, (index + 1) * block_size)) for index in range(blocks)
    ]
    for block in node_blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                weight = 1.0 if seed is None else rng.uniform(0.5, 3.0)
                graph.add_edge(a, b, weight)
                graph.add_edge(b, a, weight)
    for index in range(blocks - 1):
        left = node_blocks[index][-1]
        right = node_blocks[index + 1][0]
        weight = 1.0 if seed is None else rng.uniform(0.5, 3.0)
        graph.add_edge(left, right, weight)
        graph.add_edge(right, left, weight)
    return GroundTruthFragmenter([set(block) for block in node_blocks]).fragment(graph)


def probe_queries(fragmentation, count, seed):
    rng = random.Random(seed)
    nodes = sorted(fragmentation.graph.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


class TestOwnerRouting:
    def test_routed_answers_match_in_process(self):
        fragmentation = clique_line_fragmentation()
        baseline = QueryService(fragmentation)
        with QueryService(fragmentation, placement="round_robin", workers=3) as placed:
            for source, target in probe_queries(fragmentation, 8, seed=1):
                assert placed.query(source, target).value == pytest.approx(
                    baseline.query(source, target).value
                )

    def test_each_worker_pins_only_its_fragments(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)  # starts the pool
            census = service._pool.pinned_census()
            plan = service.placement_plan
            assert census == {
                worker: plan.fragments_on(worker) for worker in range(plan.worker_count)
            }
            for worker, pinned in census.items():
                assert len(pinned) <= plan.pinned_bound()

    def test_per_owner_dispatch_and_queue_depth_are_observable(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            for source, target in probe_queries(fragmentation, 6, seed=2):
                service.query(source, target)
            stats = service.stats.as_dict()
            assert sum(stats["per_owner_dispatch"].values()) == stats["local_evaluations"]
            assert stats["queue_depth_peak"] >= 1
            assert stats["dispatch_skew"] >= 1.0

    def test_empty_batch_does_not_reaccumulate_route_counts(self):
        # A batch that plans zero tasks (unknown endpoints) must not replay
        # the previous evaluate's per-owner route counts into the stats.
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            before = service.stats.counts(service.stats.per_owner_dispatch)
            answers = service.query_batch([("ghost", "phantom")])
            assert answers[0].error is not None
            assert service.stats.counts(service.stats.per_owner_dispatch) == before
            assert (
                sum(service.stats.counts(service.stats.per_owner_dispatch).values())
                == service.stats.local_evaluations.value()
            )

    def test_explicit_plan_is_respected(self):
        fragmentation = clique_line_fragmentation()
        plan = PlacementPlan(owner_of={0: 1, 1: 0, 2: 1}, worker_count=2)
        with QueryService(fragmentation, placement=plan) as service:
            service.query(0, 11)
            assert service._pool.pinned_census() == {0: [1], 1: [0, 2]}

    def test_placement_requires_standard_semiring_pool_contract(self):
        fragmentation = clique_line_fragmentation()
        with pytest.raises(PlacementError):
            QueryService(fragmentation).migrate(0, 1)


class TestScopedRepin:
    def test_update_repins_only_the_owner(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            plan = service.placement_plan
            service.update_edge(0, 2, 0.5)  # interior to fragment 0
            pool = service._pool
            assert pool.repins == 1
            assert pool.last_repin_workers == (plan.owner(0),)
            assert pool.repin_messages == 1  # not worker_count
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )

    def test_updates_stay_correct_across_the_routed_pool(self):
        fragmentation = clique_line_fragmentation(seed=7)
        baseline = QueryService(fragmentation)
        probes = probe_queries(fragmentation, 6, seed=3)
        with QueryService(fragmentation, placement="cost_balanced", workers=3) as placed:
            for round_index, (a, b) in enumerate([(0, 2), (4, 6), (8, 10), (3, 4)]):
                placed.update_edge(a, b, 0.25 + round_index)
                baseline.update_edge(a, b, 0.25 + round_index)
                for source, target in probes:
                    assert placed.query(source, target).value == pytest.approx(
                        baseline.query(source, target).value
                    )


class TestLiveMigration:
    def test_migrate_moves_state_without_restart(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            pids_before = pool.worker_pids()
            owner = service.placement_plan.owner(0)
            destination = (owner + 1) % 3
            assert service.migrate(0, destination)
            assert service.placement_plan.owner(0) == destination
            assert 0 not in pool.pinned_census()[owner]
            assert 0 in pool.pinned_census()[destination]
            assert pool.worker_pids() == pids_before, "migration must not restart workers"
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )
            assert service.stats.migrations.value() == 1

    def test_destination_death_mid_migration_self_heals(self):
        # The destination's mirror is updated before the pin is sent: if the
        # destination dies without ever processing the pin, the respawn
        # re-pins the migrating fragment from the mirror and the move still
        # lands — the fragment is never stranded on an owner that lacks it.
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            owner = service.placement_plan.owner(0)
            destination = (owner + 1) % 3
            handle = pool._workers[destination]

            def swallow_and_die(message):
                handle.process.terminate()
                handle.process.join()

            handle.queue.put = swallow_and_die  # the pin message is never seen
            assert service.migrate(0, destination)
            assert pool.respawns >= 1
            assert service.placement_plan.owner(0) == destination
            assert 0 in pool.pinned_census()[destination]
            service.cache.clear()
            assert service.query(0, 3).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 3)
            )

    def test_migrated_fragment_still_absorbs_updates(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            destination = (service.placement_plan.owner(0) + 1) % 3
            service.migrate(0, destination)
            service.update_edge(0, 2, 0.5)
            assert service._pool.last_repin_workers == (destination,)
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )

    def test_migrate_to_invalid_worker_has_no_side_effects(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            census_before = pool.pinned_census()
            for bad_worker in (99, -1):
                with pytest.raises(PlacementError):
                    service.migrate(0, bad_worker)
            assert pool.pinned_census() == census_before
            assert service.stats.migrations.value() == 0

    def test_rebalance_repairs_a_forced_skew(self):
        fragmentation = clique_line_fragmentation()
        skewed = PlacementPlan(owner_of={0: 0, 1: 0, 2: 0}, worker_count=3)
        with QueryService(fragmentation, placement=skewed) as service:
            probes = probe_queries(fragmentation, 8, seed=4)
            for source, target in probes:
                service.query(source, target)
            pool = service._pool
            pids_before = pool.worker_pids()
            migrations = service.rebalance()
            assert migrations, "an all-on-one plan must be repaired"
            plan = service.placement_plan
            assert plan.max_pinned() <= plan.pinned_bound()
            assert max(len(plan.owned_by(w)) for w in range(3)) == 1
            assert pool.worker_pids() == pids_before, "rebalancing must not restart workers"
            for source, target in probes:
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )
            # A balanced pool has nothing more to move.
            assert service.rebalance() == []


class TestWorkerDeathRecovery:
    def test_killed_owner_is_rehomed_with_correct_pins(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            victim = service.placement_plan.owner(0)
            pool._workers[victim].process.terminate()
            pool._workers[victim].process.join()
            answer = service.query(2, 9)
            assert answer.value == pytest.approx(
                shortest_path_cost(service.database.graph, 2, 9)
            )
            assert pool.respawns >= 1
            census = pool.pinned_census()
            plan = service.placement_plan
            assert census[victim] == plan.fragments_on(victim)

    def test_killed_owner_after_update_respawns_with_current_state(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            service.update_edge(0, 2, 0.125)  # repinned into the owner only
            pool = service._pool
            victim = service.placement_plan.owner(0)
            pool._workers[victim].process.terminate()
            pool._workers[victim].process.join()
            service.cache.clear()
            # The respawned owner must serve post-update state, not the
            # state captured at pool start.
            assert service.query(0, 3).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 3)
            )

    @pytest.mark.parametrize("seed", [11, 29])
    def test_randomized_kills_match_in_process_baseline(self, seed):
        fragmentation = clique_line_fragmentation(seed=seed)
        rng = random.Random(seed)
        probes = probe_queries(fragmentation, 10, seed=seed)
        baseline = QueryService(fragmentation)
        with QueryService(fragmentation, placement="round_robin", workers=3) as placed:
            for index, (source, target) in enumerate(probes):
                if index and index % 3 == 0:
                    victim = rng.randrange(3)
                    placed._pool._workers[victim].process.terminate()
                    placed._pool._workers[victim].process.join()
                assert placed.query(source, target).value == pytest.approx(
                    baseline.query(source, target).value
                )


class TestPlacementSnapshots:
    def test_plan_round_trips_through_a_snapshot(self, tmp_path):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            destination = (service.placement_plan.owner(0) + 1) % 3
            service.migrate(0, destination)
            service.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap")
        try:
            plan = restored.placement_plan
            assert plan is not None
            assert plan.owner(0) == destination, "migrations must survive the snapshot"
            assert restored.query(0, 11).value == pytest.approx(
                shortest_path_cost(restored.database.graph, 0, 11)
            )
        finally:
            restored.close()

    def test_policy_plan_is_visible_and_persisted_before_the_first_query(self, tmp_path):
        # A policy-string service must report and persist its placement even
        # before the first query forces the pool up — and the pool must then
        # start with exactly the plan that was reported/persisted.
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            plan = service.placement_plan
            assert plan is not None and plan.worker_count == 3
            service.snapshot(tmp_path / "snap")
            service.query(0, 11)
            assert service._pool.plan.owner_of == plan.owner_of
        restored = QueryService.from_snapshot(tmp_path / "snap")
        try:
            assert restored.placement_plan is not None
            assert restored.placement_plan.owner_of == plan.owner_of
        finally:
            restored.close()

    def test_conflicting_workers_and_plan_are_rejected(self):
        fragmentation = clique_line_fragmentation()
        plan = round_robin_plan([0, 1, 2], 2)
        with pytest.raises(PlacementError, match="conflicts"):
            QueryService(fragmentation, placement=plan, workers=8)

    def test_restore_with_new_worker_count_recomputes_the_plan(self, tmp_path):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap", workers=2)
        try:
            plan = restored.placement_plan
            assert plan is not None
            assert plan.worker_count == 2
            assert plan.policy == "round_robin"  # the persisted policy survives
        finally:
            restored.close()

    def test_explicit_none_placement_overrides_the_persisted_plan(self, tmp_path):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap", placement=None)
        try:
            assert restored.placement_plan is None
        finally:
            restored.close()

    def test_snapshot_without_plan_restores_in_process_service(self, tmp_path):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter(
            [set(range(4)), set(range(4, 8))]
        ).fragment(graph)
        QueryService(fragmentation).snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap")
        assert restored.placement_plan is None


class TestDefaultPlan:
    """``workers=N`` alone is the placed pool under a ``cost_balanced`` plan."""

    def test_workers_alone_answers_like_an_explicit_cost_balanced_service(self):
        fragmentation = clique_line_fragmentation(seed=7)
        probes = probe_queries(fragmentation, 8, seed=7)
        with QueryService(fragmentation, workers=2) as default:
            with QueryService(fragmentation, placement="cost_balanced", workers=2) as named:
                assert default.placement_plan.policy == "cost_balanced"
                assert default.placement_plan.owner_of == named.placement_plan.owner_of
                for source, target in probes:
                    assert default.query(source, target) == named.query(source, target)
                assert default.pool_health()["mode"] == "placed"

    def test_workers_alone_agrees_with_the_sequential_engine_on_a_random_graph(self):
        from repro.disconnection import DisconnectionSetEngine
        from repro.fragmentation import CenterBasedFragmenter
        from repro.generators import RandomGraphConfig, generate_random_graph

        graph = generate_random_graph(RandomGraphConfig(node_count=40, c1=90.0, c2=0.5), seed=11)
        fragmentation = CenterBasedFragmenter(3, center_selection="random", seed=7).fragment(graph)
        engine = DisconnectionSetEngine(fragmentation)
        with QueryService(fragmentation, workers=3) as service:
            for source, target in [(0, 39), (5, 30), (12, 27), (3, 18), (20, 8)]:
                sequential = engine.query(source, target).value
                pooled = service.query(source, target).value
                assert pooled == (None if sequential is None else pytest.approx(sequential))
            # One resident pool served every query, and closing releases it.
            pool = service._pool
            assert pool.is_running() and pool.respawns == 0
            assert sum(pool.dispatch_counts.values()) >= 5
        assert not pool.is_running()

    def test_reachability_is_served_through_the_pool(self):
        from repro.closure import reachability_semiring

        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, semiring=reachability_semiring(), workers=2) as service:
            assert service.query(0, 11).value is True
            assert service.pool_health()["mode"] == "placed"

    def test_the_default_plan_round_trips_through_a_snapshot(self, tmp_path):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, workers=2) as service:
            plan = service.placement_plan
            service.query(0, 11)
            service.snapshot(tmp_path / "snap")
        with QueryService.from_snapshot(tmp_path / "snap") as restored:
            assert restored.placement_plan.owner_of == plan.owner_of
            assert restored.pool_health()["workers"] == 2
            assert restored.query(0, 11).value == pytest.approx(
                shortest_path_cost(restored.database.graph, 0, 11)
            )

    def test_migrate_works_on_the_default_plan(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, workers=2) as service:
            service.query(0, 11)
            destination = 1 - service.placement_plan.owner(0)
            assert service.migrate(0, destination)
            assert service.placement_plan.owner(0) == destination
            service.cache.clear()
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )

    def test_a_killed_worker_is_respawned_and_the_answer_still_matches(self):
        fragmentation = clique_line_fragmentation()
        with QueryService(fragmentation, workers=2) as service:
            expected = service.query(0, 11).value
            pool = service._pool
            victim = pool._workers[service.placement_plan.owner(0)]
            victim.process.terminate()
            victim.process.join(timeout=5)
            assert service.pool_health()["healthy"] is False
            service.cache.clear()
            assert service.query(0, 11).value == expected
            assert pool.respawns >= 1 and service.pool_health()["healthy"]

    def test_an_in_process_service_has_no_pool_to_migrate_on(self):
        service = QueryService(clique_line_fragmentation())
        assert service.placement_plan is None
        assert service.pool_health()["mode"] == "in-process"
        with pytest.raises(PlacementError, match="in-process"):
            service.migrate(0, 0)


class TestPlacedPoolContract:
    def test_closed_pool_refuses_work(self):
        fragmentation = clique_line_fragmentation()
        service = QueryService(fragmentation, placement="round_robin", workers=3)
        service.query(0, 11)
        pool = service._pool
        service.close()
        from repro.service import WorkerPoolError

        with pytest.raises(WorkerPoolError):
            pool.evaluate([(0, frozenset([0]), frozenset([3]))])

    def test_unplaced_fragment_is_rejected(self):
        fragmentation = clique_line_fragmentation()
        from repro.disconnection.catalog import DistributedCatalog

        catalog = DistributedCatalog(fragmentation)
        with pytest.raises(PlacementError):
            PlacedWorkerPool(catalog, round_robin_plan([0, 1], 2))
