"""Unit and integration tests for the DisconnectionSetEngine."""

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import (
    DisconnectionSetEngine,
    LocalQueryEvaluator,
    QueryPlanner,
    answer_in_process,
    reachability_engine,
    shortest_path_engine,
)
from repro.exceptions import DisconnectedError, NoChainError, PlanTruncatedError
from repro.fragmentation import GroundTruthFragmenter, LinearFragmenter
from repro.generators import (
    TransportationGraphConfig,
    generate_transportation_graph,
    two_cluster_dumbbell,
)
from repro.graph import DiGraph
from repro.graph.shortest_path import shortest_path_length

from tests.transit_layouts import grid_layout


@pytest.fixture
def dumbbell_engine():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return graph, DisconnectionSetEngine(fragmentation)


class TestShortestPathQueries:
    def test_intra_fragment_query(self, dumbbell_engine):
        graph, engine = dumbbell_engine
        assert engine.shortest_path_cost(0, 2) == shortest_path_cost(graph, 0, 2)

    def test_cross_fragment_query(self, dumbbell_engine):
        graph, engine = dumbbell_engine
        assert engine.shortest_path_cost(2, 6) == shortest_path_cost(graph, 2, 6)

    def test_query_to_self_costs_zero(self, dumbbell_engine):
        _, engine = dumbbell_engine
        assert engine.query(3, 3).value == 0.0

    def test_unknown_node_raises(self, dumbbell_engine):
        _, engine = dumbbell_engine
        with pytest.raises(NoChainError):
            engine.query("ghost", 2)

    def test_unreachable_island_raises_no_chain(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        graph.add_symmetric_edge("islandA", "islandB")
        clusters = [set(range(3)), set(range(3, 6)), {"islandA", "islandB"}]
        engine = DisconnectionSetEngine(GroundTruthFragmenter(clusters).fragment(graph))
        # The island fragment shares no disconnection set with the rest, so
        # planning already fails: there is no chain of fragments to evaluate.
        with pytest.raises(NoChainError):
            engine.shortest_path_cost(0, "islandA")

    def test_unreachable_within_connected_fragmentation_raises_disconnected(self):
        # A directed graph where the fragments overlap (connected fragmentation
        # graph) but the destination is unreachable along edge directions.
        graph = DiGraph([("a", "b", 1.0), ("c", "b", 1.0)])
        from repro.fragmentation import Fragmentation

        fragmentation = Fragmentation(graph, [[("a", "b")], [("c", "b")]])
        engine = DisconnectionSetEngine(fragmentation)
        with pytest.raises(DisconnectedError):
            engine.shortest_path_cost("a", "c")

    def test_answer_reports_chain_and_work(self, dumbbell_engine):
        _, engine = dumbbell_engine
        answer = engine.query(0, 7)
        assert answer.exists()
        assert answer.chain is not None
        assert 0 in answer.chain and 1 in answer.chain
        assert answer.report.site_work
        assert answer.report.planned_fragments >= 2
        assert answer.report.chains_evaluated == 0  # no chain is assembled
        assert answer.report.critical_path_iterations() >= 1

    def test_wrong_semiring_for_cost_helper(self, dumbbell_engine):
        graph, _ = dumbbell_engine
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        engine = reachability_engine(fragmentation)
        with pytest.raises(DisconnectedError):
            engine.shortest_path_cost(0, 7)


class TestReachabilityQueries:
    def test_reachability_engine_answers_connection_questions(self, dumbbell_engine):
        graph, _ = dumbbell_engine
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        engine = reachability_engine(fragmentation)
        assert engine.is_connected(0, 7)
        assert not engine.is_connected(0, "ghost")

    def test_shortest_path_engine_is_connected(self, dumbbell_engine):
        _, engine = dumbbell_engine
        assert engine.is_connected(0, 7)


class TestAgainstCentralizedBaseline:
    """The core correctness claim: the parallel strategy computes the same answers."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_pairs_on_small_transportation_graph(self, seed):
        config = TransportationGraphConfig(
            cluster_count=3, nodes_per_cluster=7, cluster_c1=110.0, inter_cluster_edges=2
        )
        network = generate_transportation_graph(config, seed=seed)
        graph = network.graph
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(graph)
        engine = shortest_path_engine(fragmentation)
        nodes = graph.nodes()
        # Check a deterministic sample of pairs spanning all cluster combinations.
        sample = [(nodes[i], nodes[j]) for i in range(0, len(nodes), 4) for j in range(1, len(nodes), 5)]
        for source, target in sample:
            expected = shortest_path_cost(graph, source, target)
            assert engine.shortest_path_cost(source, target) == pytest.approx(expected)

    def test_linear_fragmentation_answers_match(self, small_transportation_network):
        network = small_transportation_network
        graph = network.graph
        fragmentation = LinearFragmenter(4).fragment(graph)
        engine = shortest_path_engine(fragmentation)
        nodes = graph.nodes()
        for source, target in [(nodes[0], nodes[-1]), (nodes[3], nodes[20]), (nodes[10], nodes[35])]:
            assert engine.shortest_path_cost(source, target) == pytest.approx(
                shortest_path_cost(graph, source, target)
            )

    def test_intra_fragment_query_touches_one_site(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        engine = shortest_path_engine(fragmentation)
        # Two interior nodes of cluster 0.
        border = network.border_nodes()
        interior = [node for node in network.clusters[0] if node not in border]
        answer = engine.query(interior[0], interior[1])
        assert answer.exists()
        assert len(answer.report.site_work) == 1


class TestShortcutAblation:
    def test_without_shortcuts_paths_may_be_missed_or_longer(self):
        # Source and target in the same fragment, but the only short route
        # detours through the other fragment; complementary information is
        # what keeps the single-site answer correct.
        graph = DiGraph()
        for a, b, w in [("a", "x", 1.0), ("x", "b", 1.0), ("a", "b", 10.0)]:
            graph.add_symmetric_edge(a, b, w)
        fragmentation = GroundTruthFragmenter([{"a", "b"}, {"x"}]).fragment(graph)
        with_info = DisconnectionSetEngine(fragmentation)
        catalog = with_info.catalog
        bare = LocalQueryEvaluator(use_shortcuts=False)
        without_info = answer_in_process(
            catalog, QueryPlanner(catalog), bare, catalog.site, "a", "b"
        )
        assert with_info.shortest_path_cost("a", "b") == 2.0
        assert without_info.value >= 2.0


class TestTruncatedPlans:
    """On 4 x 4 grid blocks, 184 chains join the corner blocks: past the chain planner's cap of 32.

    The engine plans no chains, so it answers the pair exactly.
    """

    @pytest.fixture(scope="class")
    def fragmentation(self):
        return grid_layout(4, 4)[0]

    def test_the_engine_answers_a_pair_whose_chain_plan_is_cut(self, fragmentation):
        expected = shortest_path_length(fragmentation.graph, 0, 126)
        assert DisconnectionSetEngine(fragmentation).query(0, 126).value == expected
        catalog = DisconnectionSetEngine(fragmentation).catalog
        with pytest.raises(PlanTruncatedError):
            QueryPlanner(catalog).plan(0, 126)

    def test_is_connected_answers_a_pair_whose_chain_plan_is_cut(self, fragmentation):
        engine = reachability_engine(fragmentation)
        assert engine.is_connected(0, 126)
        assert engine.is_connected(0, 3)  # one block
        assert not engine.is_connected(0, "missing")
