"""Tests for route reconstruction from the engine's border-graph answers."""

import pytest

from repro.closure import reachability_semiring, shortest_path_cost
from repro.disconnection import (
    DisconnectionSetEngine,
    LocalQueryEvaluator,
    QueryPlanner,
    answer_in_process,
    precompute_complementary_information,
)
from repro.disconnection.routes import trace_route
from repro.exceptions import DisconnectedError, NoChainError
from repro.fragmentation import Fragmentation, GroundTruthFragmenter, LinearFragmenter
from repro.generators import cross_cluster_queries, european_railway_example, two_cluster_dumbbell
from repro.graph import DiGraph, shortest_path


def _route_cost(graph, route):
    return sum(graph.edge_weight(a, b) for a, b in zip(route, route[1:]))


def assert_valid_walk(graph, answer, source, target):
    assert answer.route[0] == source and answer.route[-1] == target
    for a, b in zip(answer.route, answer.route[1:]):
        assert graph.has_edge(a, b)
    assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)


class TestDumbbellRoutes:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        return graph, DisconnectionSetEngine(fragmentation)

    def test_route_matches_centralized_cost(self, setup):
        graph, engine = setup
        answer = engine.route(2, 7)
        expected_cost, _ = shortest_path(graph, 2, 7)
        assert answer.cost == pytest.approx(expected_cost)

    def test_route_is_a_valid_walk_with_the_reported_cost(self, setup):
        graph, engine = setup
        assert_valid_walk(graph, engine.route(3, 6), 3, 6)

    def test_route_to_self(self, setup):
        _, engine = setup
        answer = engine.route(5, 5)
        assert answer.cost == 0.0
        assert answer.route == [5]
        assert answer.hops() == 0

    def test_unknown_node_raises(self, setup):
        _, engine = setup
        with pytest.raises(NoChainError):
            engine.route("ghost", 3)

    def test_unreachable_raises(self):
        directed = DiGraph([("a", "b", 1.0), ("c", "b", 1.0)])
        fragmentation = Fragmentation(directed, [[("a", "b")], [("c", "b")]])
        engine = DisconnectionSetEngine(fragmentation)
        with pytest.raises(DisconnectedError):
            engine.route("a", "c")

    def test_a_reachability_engine_has_no_routes(self, setup):
        graph, _ = setup
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        with pytest.raises(ValueError, match="shortest-path semiring"):
            engine.route(0, 7)


class TestRailwayRoutes:
    @pytest.fixture(scope="class")
    def setup(self):
        graph, countries = european_railway_example()
        clusters = [set(v) for v in countries.values()]
        fragmentation = GroundTruthFragmenter(clusters).fragment(graph)
        return graph, DisconnectionSetEngine(fragmentation)

    def test_amsterdam_milan_route(self, setup):
        graph, engine = setup
        answer = engine.route("amsterdam", "milan")
        expected_cost, _ = shortest_path(graph, "amsterdam", "milan")
        assert answer.cost == pytest.approx(expected_cost)
        assert answer.route[0] == "amsterdam" and answer.route[-1] == "milan"
        assert _route_cost(graph, answer.route) == pytest.approx(expected_cost)

    def test_domestic_route_with_detour_over_the_border(self, setup):
        graph, engine = setup
        # The best Arnhem -> Enschede route stays domestic, but the engine must
        # still return a valid walk whose cost equals the optimum.
        answer = engine.route("arnhem", "enschede")
        expected_cost, _ = shortest_path(graph, "arnhem", "enschede")
        assert answer.cost == pytest.approx(expected_cost)
        assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)

    def test_reuses_precomputed_information(self, setup):
        graph, _ = setup
        _, countries = european_railway_example()
        clusters = [set(v) for v in countries.values()]
        fragmentation = GroundTruthFragmenter(clusters).fragment(graph)
        info = precompute_complementary_information(fragmentation)
        engine = DisconnectionSetEngine(fragmentation, complementary=info)
        answer = engine.route("utrecht", "verona")
        assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)


class TestGeneratedNetworkRoutes:
    def test_routes_on_linear_fragmentation(self, small_transportation_network):
        network = small_transportation_network
        graph = network.graph
        fragmentation = LinearFragmenter(4).fragment(graph)
        engine = DisconnectionSetEngine(fragmentation)
        queries = cross_cluster_queries(network.clusters, 5, seed=8)
        for query in queries:
            answer = engine.route(query.source, query.target)
            assert answer.cost == pytest.approx(shortest_path_cost(graph, query.source, query.target))
            assert answer.route[0] == query.source
            assert answer.route[-1] == query.target
            assert _route_cost(graph, answer.route) == pytest.approx(answer.cost)


class TestRoutesAreTheQueryAnswer:
    """A route's cost and chain are ``query``'s, and its hops are base edges."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        return graph, DisconnectionSetEngine(fragmentation)

    def test_every_pair_routes_at_the_query_value(self, setup):
        graph, engine = setup
        for source in range(8):
            for target in range(8):
                answer = engine.query(source, target)
                routed = engine.route(source, target)
                assert (routed.cost, routed.chain) == (answer.value, answer.chain)
                assert routed.cost == pytest.approx(shortest_path_cost(graph, source, target))
                assert_valid_walk(graph, routed, source, target)

    def test_routes_on_a_generated_network(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = LinearFragmenter(4).fragment(network.graph)
        engine = DisconnectionSetEngine(fragmentation)
        for query in cross_cluster_queries(network.clusters, 6, seed=3):
            answer = engine.route(query.source, query.target)
            assert answer.cost == engine.query(query.source, query.target).value
            assert answer.cost == pytest.approx(
                shortest_path_cost(network.graph, query.source, query.target)
            )
            assert_valid_walk(network.graph, answer, query.source, query.target)

    def test_a_no_shortcut_answer_routes_on_the_graph_it_queried(self):
        # a reaches t cheaply only through the other fragment: a -> c -> x -> b -> t.
        graph = DiGraph(
            [("a", "t", 10.0), ("a", "c", 1.0), ("b", "t", 1.0), ("c", "x", 1.0), ("x", "b", 1.0)]
        )
        fragmentation = Fragmentation(
            graph, [[("a", "t"), ("a", "c"), ("b", "t")], [("c", "x"), ("x", "b")]]
        )
        engine = DisconnectionSetEngine(fragmentation)
        assert engine.route("a", "t").route == ["a", "c", "x", "b", "t"]
        catalog = engine.catalog
        bare = LocalQueryEvaluator(use_shortcuts=False)
        answer = answer_in_process(catalog, QueryPlanner(catalog), bare, catalog.site, "a", "t")
        assert answer.chain == (0,)
        route = trace_route([(0, "a", "t")], catalog.site, graph, bare)
        assert (answer.value, route) == (10.0, ["a", "t"])

    def test_a_route_makes_one_core_call(self, setup, monkeypatch):
        import repro.disconnection.engine as engine_module

        _, engine = setup
        calls = []
        real = engine_module.answer_pairs

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "answer_pairs", counted)
        engine.route(0, 7)
        assert len(calls) == 1
        assert calls[0][0] is engine.catalog and calls[0][1] == [(0, 7)]
