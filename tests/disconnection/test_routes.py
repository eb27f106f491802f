"""Tests for distributed route reconstruction."""

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import (
    QueryPlanner,
    RouteReconstructingEngine,
    precompute_complementary_information,
)
from repro.exceptions import DisconnectedError, NoChainError
from repro.fragmentation import GroundTruthFragmenter, LinearFragmenter
from repro.generators import cross_cluster_queries, european_railway_example, two_cluster_dumbbell
from repro.graph import shortest_path

from tests.local_query_oracles import dict_local_routes


def _route_cost(graph, route):
    return sum(graph.edge_weight(a, b) for a, b in zip(route, route[1:]))


class TestDumbbellRoutes:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        return graph, RouteReconstructingEngine(fragmentation)

    def test_route_matches_centralized_cost(self, setup):
        graph, engine = setup
        answer = engine.shortest_path(2, 7)
        expected_cost, _ = shortest_path(graph, 2, 7)
        assert answer.cost == pytest.approx(expected_cost)

    def test_route_is_a_valid_walk_with_the_reported_cost(self, setup):
        graph, engine = setup
        answer = engine.shortest_path(3, 6)
        assert answer.route[0] == 3 and answer.route[-1] == 6
        for a, b in zip(answer.route, answer.route[1:]):
            assert graph.has_edge(a, b)
        assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)

    def test_route_to_self(self, setup):
        _, engine = setup
        answer = engine.shortest_path(5, 5)
        assert answer.cost == 0.0
        assert answer.route == [5]
        assert answer.hops() == 0

    def test_unknown_node_raises(self, setup):
        _, engine = setup
        with pytest.raises(NoChainError):
            engine.shortest_path("ghost", 3)

    def test_unreachable_raises(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        from repro.graph import DiGraph
        directed = DiGraph([("a", "b", 1.0), ("c", "b", 1.0)])
        from repro.fragmentation import Fragmentation

        fragmentation = Fragmentation(directed, [[("a", "b")], [("c", "b")]])
        engine = RouteReconstructingEngine(fragmentation)
        with pytest.raises(DisconnectedError):
            engine.shortest_path("a", "c")


class TestRailwayRoutes:
    @pytest.fixture(scope="class")
    def setup(self):
        graph, countries = european_railway_example()
        clusters = [set(v) for v in countries.values()]
        fragmentation = GroundTruthFragmenter(clusters).fragment(graph)
        return graph, RouteReconstructingEngine(fragmentation)

    def test_amsterdam_milan_route(self, setup):
        graph, engine = setup
        answer = engine.shortest_path("amsterdam", "milan")
        expected_cost, expected_route = shortest_path(graph, "amsterdam", "milan")
        assert answer.cost == pytest.approx(expected_cost)
        assert answer.route[0] == "amsterdam" and answer.route[-1] == "milan"
        assert _route_cost(graph, answer.route) == pytest.approx(expected_cost)

    def test_domestic_route_with_detour_over_the_border(self, setup):
        graph, engine = setup
        # The best Arnhem -> Enschede route stays domestic, but the engine must
        # still return a valid walk whose cost equals the optimum.
        answer = engine.shortest_path("arnhem", "enschede")
        expected_cost, _ = shortest_path(graph, "arnhem", "enschede")
        assert answer.cost == pytest.approx(expected_cost)
        assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)

    def test_reuses_precomputed_information_with_paths(self, setup):
        graph, _ = setup
        _, countries = european_railway_example()
        clusters = [set(v) for v in countries.values()]
        fragmentation = GroundTruthFragmenter(clusters).fragment(graph)
        info = precompute_complementary_information(fragmentation, store_paths=True)
        engine = RouteReconstructingEngine(fragmentation, complementary=info)
        answer = engine.shortest_path("utrecht", "verona")
        assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)


class TestGeneratedNetworkRoutes:
    def test_routes_on_linear_fragmentation(self, small_transportation_network):
        network = small_transportation_network
        graph = network.graph
        fragmentation = LinearFragmenter(4).fragment(graph)
        engine = RouteReconstructingEngine(fragmentation)
        queries = cross_cluster_queries(network.clusters, 5, seed=8)
        for query in queries:
            answer = engine.shortest_path(query.source, query.target)
            assert answer.cost == pytest.approx(shortest_path_cost(graph, query.source, query.target))
            assert answer.route[0] == query.source
            assert answer.route[-1] == query.target
            assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)


def assert_local_routes_match_the_dict_walk(engine, source, target):
    """Every per-fragment search of the query's plan agrees with the dict oracle."""
    catalog = engine.catalog
    for chain_plan in QueryPlanner(catalog).plan(source, target).chains:
        for spec in chain_plan.local_queries:
            site = catalog.site(spec.fragment_id)
            local = engine._evaluate_local(site, spec)
            values, paths = dict_local_routes(site, spec)
            assert local.values == pytest.approx(values)
            assert set(local.paths) == set(paths)
            augmented = site.augmented_subgraph()
            for pair, path in local.paths.items():
                assert path[0] == pair[0] and path[-1] == pair[1]
                assert _route_cost(augmented, path) == pytest.approx(values[pair])


class TestCompactKernelEquivalence:
    """The array-kernel local search must agree with the dict-based walk."""

    @pytest.fixture(scope="class")
    def engines(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        info = precompute_complementary_information(fragmentation, store_paths=True)
        return graph, RouteReconstructingEngine(fragmentation, complementary=info)

    def test_local_searches_agree_on_every_pair(self, engines):
        graph, kernel_engine = engines
        for source in range(8):
            for target in range(8):
                if source != target:
                    assert_local_routes_match_the_dict_walk(kernel_engine, source, target)

    def test_kernel_routes_are_valid_walks_at_the_optimal_cost(self, engines):
        graph, kernel_engine = engines
        for source, target in [(0, 7), (2, 5), (6, 1), (3, 4)]:
            answer = kernel_engine.shortest_path(source, target)
            assert answer.route[0] == source and answer.route[-1] == target
            for a, b in zip(answer.route, answer.route[1:]):
                assert graph.has_edge(a, b)
            assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)
            assert answer.cost == pytest.approx(shortest_path_cost(graph, source, target))

    def test_kernel_equivalence_on_generated_network(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = LinearFragmenter(4).fragment(network.graph)
        info = precompute_complementary_information(fragmentation, store_paths=True)
        kernel_engine = RouteReconstructingEngine(fragmentation, complementary=info)
        for query in cross_cluster_queries(network.clusters, 6, seed=3):
            assert_local_routes_match_the_dict_walk(kernel_engine, query.source, query.target)
            kernel_answer = kernel_engine.shortest_path(query.source, query.target)
            assert kernel_answer.cost == pytest.approx(
                shortest_path_cost(network.graph, query.source, query.target)
            )
            assert _route_cost(network.graph, kernel_answer.route) == pytest.approx(
                kernel_answer.cost
            )
