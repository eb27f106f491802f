"""Tests for the batch planner (dedup + shared local subqueries)."""

import pytest

from repro.disconnection import DisconnectionSetEngine, QueryPlanner
from repro.exceptions import NoChainError, PlanTruncatedError
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.service import BatchPlanner

from tests.transit_layouts import grid_layout


@pytest.fixture(scope="module")
def planner():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    engine = DisconnectionSetEngine(fragmentation)
    return BatchPlanner(QueryPlanner(engine.catalog))


class TestBatchPlanning:
    def test_duplicates_are_collapsed(self, planner):
        batch = planner.plan_batch([(0, 7), (0, 7), (0, 7), (1, 6)])
        assert batch.unique_queries == [(0, 7), (1, 6)]
        assert len(batch.plans) == 2

    def test_shared_subqueries_are_pooled(self, planner):
        # Both queries cross the same fragment pair, so the border-to-border
        # subqueries of the intermediate chains coincide; the pooled task
        # list must contain each (fragment, entry, exit) spec exactly once.
        batch = planner.plan_batch([(0, 7), (1, 7)])
        assert batch.spec_references > len(batch.tasks)
        assert batch.shared_subqueries_saved() > 0
        assert len(set(batch.tasks)) == len(batch.tasks)

    def test_pairs_on_one_fragment_chain_share_subqueries(self, planner):
        # Cross-cluster queries share their fragment chain, so a batch of two
        # saves more evaluations than the two planned apart.
        together = planner.plan_batch([(0, 7), (1, 7)]).shared_subqueries_saved()
        apart = sum(
            planner.plan_batch([pair]).shared_subqueries_saved() for pair in [(0, 7), (1, 7)]
        )
        assert together > apart

    def test_planning_errors_do_not_abort_the_batch(self, planner):
        batch = planner.plan_batch([(0, "missing"), (0, 7)])
        assert batch.plans[0] is None
        assert isinstance(batch.errors[0], NoChainError)
        assert batch.plans[1] is not None
        assert batch.tasks, "the healthy query must still be planned"

    def test_single_fragment_query_has_no_sharing(self, planner):
        # 2 and 3 are interior to the left clique: one chain, one spec.
        batch = planner.plan_batch([(2, 3)])
        assert batch.spec_references == len(batch.tasks)
        assert batch.shared_subqueries_saved() == 0


def test_a_truncated_plan_is_that_pairs_error_and_the_batch_goes_on():
    engine = DisconnectionSetEngine(grid_layout(4, 4)[0])
    batch = BatchPlanner(QueryPlanner(engine.catalog)).plan_batch([(0, 126), (0, 3)])
    assert batch.plans[0] is None and isinstance(batch.errors[0], PlanTruncatedError)
    assert "more than 32 fragment chains" in str(batch.errors[0])
    assert batch.plans[1] is not None and 1 not in batch.errors
    assert batch.tasks  # the answerable pair's subqueries are still planned
