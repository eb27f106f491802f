"""Unit tests for the query planner (fragment chains and local query specs)."""

import pytest

from repro.disconnection import DistributedCatalog, QueryPlanner
from repro.exceptions import DisconnectionSetError, NoChainError, PlanTruncatedError
from repro.fragmentation import Fragmentation, GroundTruthFragmenter
from repro.generators import chain_graph
from repro.graph import DiGraph

from tests.transit_layouts import grid_layout


def _three_fragment_chain():
    """A chain of 3 cliques-of-3 joined by single nodes (shared borders)."""
    graph = DiGraph()
    cliques = [list(range(0, 3)), list(range(3, 6)), list(range(6, 9))]
    for clique in cliques:
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                graph.add_symmetric_edge(a, b, 1.0)
    graph.add_symmetric_edge(2, 3, 1.0)
    graph.add_symmetric_edge(5, 6, 1.0)
    fragments = [
        [e for e in graph.edges() if set(e) <= {0, 1, 2, 3}],
        [e for e in graph.edges() if set(e) <= {3, 4, 5, 6} and not set(e) <= {0, 1, 2, 3}],
        [e for e in graph.edges() if set(e) <= {6, 7, 8} and not set(e) <= {3, 4, 5, 6}],
    ]
    return graph, Fragmentation(graph, fragments, algorithm="manual-chain")


@pytest.fixture
def planner():
    _, fragmentation = _three_fragment_chain()
    return QueryPlanner(DistributedCatalog(fragmentation))


class TestPlans:
    def test_single_fragment_plan(self, planner):
        plan = planner.plan(0, 1)
        assert plan.chains[0].chain == (0,)
        spec = plan.chains[0].local_queries[0]
        assert spec.entry_nodes == frozenset([0])
        assert spec.exit_nodes == frozenset([1])

    def test_cross_chain_plan_structure(self, planner):
        plan = planner.plan(0, 8)
        chain = plan.chains[0]
        assert chain.chain == (0, 1, 2)
        first, middle, last = chain.local_queries
        assert first.entry_nodes == frozenset([0])
        assert first.exit_nodes == frozenset([3])
        assert middle.entry_nodes == frozenset([3])
        assert middle.exit_nodes == frozenset([6])
        assert last.entry_nodes == frozenset([6])
        assert last.exit_nodes == frozenset([8])

    def test_loosely_connected_flag(self, planner):
        # An acyclic fragmentation graph joins two fragments by one chain.
        plan = planner.plan(0, 8)
        assert len(plan.chains) == 1
        assert plan.fragments_involved() == [0, 1, 2]

    def test_border_node_source_considers_both_fragments(self, planner):
        plan = planner.plan(3, 8)
        chains = {chain.chain for chain in plan.chains}
        # Node 3 is stored in fragments 0 and 1, so a 2-hop chain must exist.
        assert (1, 2) in chains

    def test_chains_sorted_shortest_first(self, planner):
        plan = planner.plan(3, 8)
        lengths = [chain.length() for chain in plan.chains]
        assert lengths == sorted(lengths)

    def test_unknown_source_raises(self, planner):
        with pytest.raises(NoChainError):
            planner.plan("ghost", 8)

    def test_unknown_target_raises(self, planner):
        with pytest.raises(NoChainError):
            planner.plan(0, "ghost")

    def test_disconnected_fragments_raise(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        graph.add_symmetric_edge("x", "y")
        fragmentation = Fragmentation(
            graph, [[("a", "b"), ("b", "a")], [("x", "y"), ("y", "x")]]
        )
        planner = QueryPlanner(DistributedCatalog(fragmentation))
        with pytest.raises(NoChainError):
            planner.plan("a", "x")

    def test_max_chains_limits_enumeration(self):
        _, fragmentation = _three_fragment_chain()
        planner = QueryPlanner(DistributedCatalog(fragmentation), max_chains=1)
        plan = planner.plan(3, 8)
        assert len(plan.chains) >= 1


class TestTruncatedPlans:
    """3 x 3 grid blocks: 12 chains join the corner blocks 0 and 8."""

    @pytest.fixture(scope="class")
    def catalog(self):
        fragmentation, _ = grid_layout(3, 3)
        return DistributedCatalog(fragmentation)

    def test_a_plan_at_the_cap_is_complete(self, catalog):
        plan = QueryPlanner(catalog, max_chains=12).plan(0, 70)
        assert len(plan.chains) == 12

    def test_a_plan_past_the_cap_raises_instead_of_planning_a_subset(self, catalog):
        with pytest.raises(PlanTruncatedError) as raised:
            QueryPlanner(catalog, max_chains=11).plan(0, 70)
        error = raised.value
        assert isinstance(error, DisconnectionSetError) and not isinstance(error, NoChainError)
        assert (error.source, error.target, error.max_chains) == (0, 70, 11)
        assert "more than 11 fragment chains connect 0 and 70" in str(error)

    def test_the_default_cap_holds_on_4x4_blocks(self):
        fragmentation, _ = grid_layout(4, 4)
        planner = QueryPlanner(DistributedCatalog(fragmentation))
        with pytest.raises(PlanTruncatedError):
            planner.plan(0, 126)  # corner block to corner block: 184 chains
        assert [chain.chain for chain in planner.plan(0, 3).chains] == [(0,)]  # one block

    def test_no_cap_plans_every_chain(self, catalog):
        assert len(QueryPlanner(catalog, max_chains=None).plan(0, 70).chains) == 12
