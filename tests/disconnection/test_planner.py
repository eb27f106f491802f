"""Unit tests for the query planner (fragment chains and local query specs)."""

import pytest

from repro.disconnection import DistributedCatalog, QueryPlanner
from repro.exceptions import NoChainError
from repro.fragmentation import Fragmentation, GroundTruthFragmenter
from repro.generators import chain_graph
from repro.graph import DiGraph


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
        plan = planner.plan(0, 8)
        assert plan.loosely_connected
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
