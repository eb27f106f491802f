"""Live refragmentation through the serving stack: pools, snapshots, advisor.

The acceptance contract: a live ``refragment()`` under an active
``PlacedWorkerPool`` rebuilds only changed fragments — unchanged fragments'
compact states stay object-identical and their owner workers keep their PIDs
— and ``from_snapshot(replay_log=...)`` replays a tail containing a
``refragment`` record with answers identical to a fresh build.
"""

import random

import pytest

from repro.closure import shortest_path_cost
from repro.fragmentation import CenterBasedFragmenter, GroundTruthFragmenter, HashFragmenter
from repro.graph import DiGraph
from repro.incremental.maintainer import IncrementalFallback, IncrementalMaintainer
from repro.placement import PlacementPlan
from repro.refragmentation import RefragmentationAdvisor
from repro.service import PlacedWorkerPool, QueryService, WorkerPoolError
from repro.service.server import REFRAGMENT_CHECK_INTERVAL

from tests.transit_layouts import ring_layout


def clique_line(blocks=4, size=4, seed=None):
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
    return graph, node_blocks


def force_full_rebuild(monkeypatch):
    """Make the scoped redraw give up, so ``refragment`` takes the classic rebuild."""

    def give_up(self, new_fragmentation):
        raise IncrementalFallback("forced by the test")

    monkeypatch.setattr(IncrementalMaintainer, "redraw", give_up)


def shifted_blocks(node_blocks):
    """The same partition with one node moved between the last two blocks."""
    moved = node_blocks[-1][0]
    blocks = [set(block) for block in node_blocks]
    blocks[-2].add(moved)
    blocks[-1].discard(moved)
    return blocks


class TestLiveRefragmentUnderPlacedPool:
    def test_only_changed_fragments_rebuild_and_pids_survive(self):
        graph, node_blocks = clique_line()
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        with QueryService(fragmentation, placement="round_robin", workers=4) as service:
            service.query(0, 15)  # starts the pool
            pool = service._pool
            assert isinstance(pool, PlacedWorkerPool)
            pids_before = pool.worker_pids()
            compact_before = {
                site.fragment_id: site.compact()
                for site in service.engine().catalog.sites()
            }
            result = service.refragment(
                GroundTruthFragmenter(shifted_blocks(node_blocks))
            )
            assert result is not None, "the redraw must be scoped"
            assert set(result.unchanged) == {0, 1}
            assert pool is service._pool, "the pool object must survive"
            assert pool.worker_pids() == pids_before
            for fragment_id in result.unchanged:
                assert (
                    service.engine().catalog.site(fragment_id).compact()
                    is compact_before[fragment_id]
                )
            for fragment_id in result.changed:
                assert (
                    service.engine().catalog.site(fragment_id).compact()
                    is not compact_before[fragment_id]
                )
            # The workers' pinned state matches the remapped plan exactly.
            plan = service.placement_plan
            assert pool.pinned_census() == {
                worker: plan.fragments_on(worker) for worker in range(plan.worker_count)
            }
            for source, target in [(0, 15), (5, 12), (12, 1), (8, 13)]:
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )
            assert service.stats.scoped_refragments == 1
            assert service.stats.refragment_fragments_kept == 2

    def test_shrinking_redraw_unpins_dropped_fragments(self):
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        with QueryService(fragmentation, placement="round_robin", workers=3) as service:
            service.query(0, 11)
            pool = service._pool
            pids_before = pool.worker_pids()
            merged = [set(node_blocks[0]) | set(node_blocks[1]), set(node_blocks[2])]
            result = service.refragment(GroundTruthFragmenter(merged))
            assert result is not None
            assert result.dropped == (2,)
            assert pool.worker_pids() == pids_before
            census = pool.pinned_census()
            assert all(2 not in pinned for pinned in census.values())
            plan = service.placement_plan
            assert sorted(plan.owner_of) == [0, 1]
            for source, target in [(0, 11), (5, 9), (11, 0)]:
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )

    def test_owner_killed_mid_refragment_recovers(self):
        graph, node_blocks = clique_line()
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        with QueryService(fragmentation, placement="round_robin", workers=4) as service:
            service.query(0, 15)
            pool = service._pool
            # Kill the owner of a fragment the redraw will rebuild, *before*
            # the refragment executes: the apply must skip the corpse, keep
            # its mirror current, and the respawn must pin post-redraw state.
            victim = service.placement_plan.owner(3)
            pool._workers[victim].process.terminate()
            pool._workers[victim].process.join()
            result = service.refragment(
                GroundTruthFragmenter(shifted_blocks(node_blocks))
            )
            assert result is not None
            service.cache.clear()
            for source, target in [(0, 15), (12, 1), (15, 4)]:
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )
            assert pool.respawns >= 1
            plan = service.placement_plan
            assert pool.pinned_census() == {
                worker: plan.fragments_on(worker) for worker in range(plan.worker_count)
            }

    def test_full_rebuild_redraw_remaps_a_pinned_plan_before_pool_start(self, monkeypatch):
        # When the scoped redraw falls back, the full rebuild runs; an
        # explicit plan pinned before the pool ever started must still follow
        # the new fragment ids or the first query cannot build the pool.
        force_full_rebuild(monkeypatch)
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        plan = PlacementPlan(owner_of={0: 0, 1: 1, 2: 0}, worker_count=2)
        with QueryService(fragmentation, placement=plan) as service:
            assert service.refragment(HashFragmenter(4)) is None
            remapped = service.placement_plan
            assert sorted(remapped.owner_of) == [0, 1, 2, 3]
            assert remapped.owner_of[0] == 0 and remapped.owner_of[1] == 1
            assert service.query(0, 11).value == pytest.approx(
                shortest_path_cost(service.database.graph, 0, 11)
            )

    def test_a_full_rebuild_restart_follows_a_hand_made_plan(self, monkeypatch):
        # PlacementPlan.policy is a free string: a restart onto new fragment
        # ids must remap the live plan, not look the policy name up.
        force_full_rebuild(monkeypatch)
        fragmentation, _ = ring_layout(4, 6)
        plan = PlacementPlan({0: 0, 1: 1, 2: 0, 3: 1}, 2, policy="manual")
        with QueryService(fragmentation, placement=plan) as service:
            service.query(0, 12)  # starts the pool on the four-fragment layout
            assert service.refragment(CenterBasedFragmenter(3, center_selection="distributed")) is None
            remapped = service.placement_plan
            assert remapped.policy == "manual" and sorted(remapped.owner_of) == [0, 1, 2]
            for source, target in [(0, 12), (3, 20), (14, 1), (23, 9)]:
                assert service.query(source, target).value == shortest_path_cost(
                    service.database.graph, source, target
                )

    def test_a_failed_restart_raises_again_instead_of_answering_stale(self, monkeypatch):
        force_full_rebuild(monkeypatch)
        fragmentation, _ = ring_layout(4, 6)
        with QueryService(fragmentation, workers=2) as service:
            service.query(0, 12)
            restart = PlacedWorkerPool.restart

            def broken(self, catalog):
                raise WorkerPoolError("restart failed")

            monkeypatch.setattr(PlacedWorkerPool, "restart", broken)
            with pytest.raises(WorkerPoolError):
                service.refragment(CenterBasedFragmenter(3, center_selection="distributed"))
            with pytest.raises(WorkerPoolError):
                service.query(3, 20)  # the workers still pin the old layout
            monkeypatch.setattr(PlacedWorkerPool, "restart", restart)
            assert service.query(3, 20).value == shortest_path_cost(
                service.database.graph, 3, 20
            )

    def test_default_plan_pool_absorbs_a_redraw_without_restart(self):
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        with QueryService(fragmentation, workers=2) as service:
            service.query(0, 11)
            pool = service._pool
            pids_before = pool.worker_pids()
            result = service.refragment(
                GroundTruthFragmenter(shifted_blocks(node_blocks))
            )
            assert result is not None
            assert pool is service._pool and pool.worker_pids() == pids_before
            for source, target in [(0, 11), (5, 9)]:
                assert service.query(source, target).value == pytest.approx(
                    shortest_path_cost(service.database.graph, source, target)
                )


class TestSnapshotAndReplayAcrossRefragment:
    def test_tail_with_refragment_record_replays_to_identical_answers(self, tmp_path):
        graph, node_blocks = clique_line(seed=5)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        live = QueryService(fragmentation)
        live.update_edge(0, 2, 0.25)
        live.snapshot(tmp_path / "snap")
        live.update_edge(9, 11, 0.75)
        assert live.refragment(GroundTruthFragmenter(shifted_blocks(node_blocks))) is not None
        live.update_edge(3, 4, 4.0)
        restored = QueryService.from_snapshot(
            tmp_path / "snap", replay_log=live.database.delta_log
        )
        assert restored.stats.replayed_records == 3
        fresh_nodes = sorted(graph.nodes())
        rng = random.Random(1)
        for _ in range(12):
            source, target = rng.sample(fresh_nodes, 2)
            assert restored.query(source, target).value == pytest.approx(
                shortest_path_cost(live.database.graph, source, target)
            )

    def test_snapshot_taken_after_a_live_redraw_restores(self, tmp_path):
        graph, node_blocks = clique_line()
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        with QueryService(fragmentation, placement="round_robin", workers=4) as live:
            live.query(0, 15)
            assert live.refragment(GroundTruthFragmenter(shifted_blocks(node_blocks))) is not None
            live.snapshot(tmp_path / "snap")
        restored = QueryService.from_snapshot(tmp_path / "snap")
        assert [f.edges for f in restored.database.fragmentation().fragments] == [
            f.edges for f in fragmentation_after(graph, node_blocks).fragments
        ]
        plan = restored.placement_plan
        assert plan is not None
        assert sorted(plan.owner_of) == list(range(4))
        restored.close()


def fragmentation_after(graph, node_blocks):
    return GroundTruthFragmenter(shifted_blocks(node_blocks)).fragment(graph)


class TestAutoRefragment:
    def test_advisor_triggers_a_live_redraw(self):
        graph, node_blocks = clique_line(blocks=3)
        # Deploy a deliberately bad layout over a clustered graph.
        eroded = HashFragmenter(3).fragment(graph)
        advisor = RefragmentationAdvisor(
            cross_ratio_threshold=0.3,
            fragmenter_factory=lambda g, n: GroundTruthFragmenter(
                [set(b) for b in node_blocks]
            ),
        )
        service = QueryService(eroded, auto_refragment=advisor)
        before = service.stats.refragments
        for step in range(REFRAGMENT_CHECK_INTERVAL - 1):
            service.update_edge(0, 2 + step % 2, 1.5 + step)
        assert service.stats.refragments == before  # no assessment before the 32nd update
        service.update_edge(0, 2, 0.5)
        assert service.stats.refragments == before + 1
        assert service.stats.scoped_refragments >= 1
        # The redrawn layout is the clustered one the factory proposed.
        signals = RefragmentationAdvisor().signals(service.database.fragmentation())
        assert signals.border_nodes <= 4
        for source, target in [(0, 11), (5, 9)]:
            assert service.query(source, target).value == pytest.approx(
                shortest_path_cost(service.database.graph, source, target)
            )

    def test_healthy_layout_is_left_alone(self):
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        service = QueryService(fragmentation, auto_refragment=True)
        for step in range(2 * REFRAGMENT_CHECK_INTERVAL):  # two assessments
            service.update_edge(0, 2, 1.0 + step * 0.125)
        assert service.stats.refragments == 0

    def test_auto_refragment_true_installs_a_default_advisor(self):
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        service = QueryService(fragmentation, auto_refragment=True)
        assert service.refragment_advisor is not None
        assert service.refragment_advisor.baseline is not None

    def test_unworthwhile_advice_leaves_the_layout_untouched(self):
        graph, node_blocks = clique_line(blocks=3)
        fragmentation = GroundTruthFragmenter([set(b) for b in node_blocks]).fragment(graph)
        service = QueryService(fragmentation)
        layout_before = [f.edges for f in service.database.fragmentation().fragments]
        # The advisor path must refuse a candidate that is not a measured
        # improvement — re-proposing the same layout is a wash.
        advisor = RefragmentationAdvisor(
            fragmenter_factory=lambda g, n: GroundTruthFragmenter(
                [set(b) for b in node_blocks]
            )
        )
        assert service.refragment(advisor=advisor) is None
        assert service.stats.refragments == 0
        assert [f.edges for f in service.database.fragmentation().fragments] == layout_before
