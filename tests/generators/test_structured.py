"""Unit tests for the deterministic structured graph generators."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.generators import (
    chain_graph,
    complete_graph,
    cycle_graph,
    european_railway_example,
    grid_graph,
    layered_dag,
    star_graph,
    two_cluster_dumbbell,
)
from repro.graph import hop_diameter, is_weakly_connected


class TestBasicShapes:
    def test_chain(self):
        graph = chain_graph(5)
        assert graph.node_count() == 5
        assert graph.undirected_edge_count() == 4
        assert hop_diameter(graph) == 4

    def test_chain_directed(self):
        graph = chain_graph(3, symmetric=False)
        assert graph.has_edge(0, 1) and not graph.has_edge(1, 0)

    def test_chain_invalid_length(self):
        with pytest.raises(FragmenterConfigurationError):
            chain_graph(0)

    def test_cycle(self):
        graph = cycle_graph(6)
        assert graph.undirected_edge_count() == 6
        assert hop_diameter(graph) == 3

    def test_cycle_minimum_size(self):
        with pytest.raises(FragmenterConfigurationError):
            cycle_graph(2)

    def test_grid(self):
        graph = grid_graph(3, 4)
        assert graph.node_count() == 12
        assert graph.undirected_edge_count() == 3 * 3 + 2 * 4  # horizontal + vertical
        assert graph.has_coordinates()

    def test_grid_invalid(self):
        with pytest.raises(FragmenterConfigurationError):
            grid_graph(0, 3)

    def test_star(self):
        graph = star_graph(7)
        assert graph.node_count() == 8
        assert graph.undirected_degree(0) == 7

    def test_complete(self):
        graph = complete_graph(5)
        assert graph.undirected_edge_count() == 10
        assert hop_diameter(graph) == 1

    def test_layered_dag(self):
        graph = layered_dag(3, 2)
        assert graph.node_count() == 6
        assert graph.edge_count() == 2 * 2 * 2
        assert not graph.has_edge(2, 0)

    def test_dumbbell(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        assert graph.node_count() == 8
        assert is_weakly_connected(graph)

    def test_dumbbell_validation(self):
        with pytest.raises(FragmenterConfigurationError):
            two_cluster_dumbbell(1)
        with pytest.raises(FragmenterConfigurationError):
            two_cluster_dumbbell(3, bridge_nodes=9)


GENERATED = {
    "chain": lambda: chain_graph(5),
    "cycle": lambda: cycle_graph(6),
    "grid": lambda: grid_graph(3, 3),
    "star": lambda: star_graph(4),
    "complete": lambda: complete_graph(4),
    "layered_dag": lambda: layered_dag(3, 2),
    "dumbbell": lambda: two_cluster_dumbbell(3, bridge_nodes=2),
}


class TestWeightsAndDirections:
    @pytest.mark.parametrize("shape", sorted(GENERATED))
    def test_every_edge_has_unit_weight(self, shape):
        graph = GENERATED[shape]()
        assert {weight for _, _, weight in graph.weighted_edges()} == {1.0}

    @pytest.mark.parametrize("shape", ["complete", "dumbbell", "grid", "star"])
    def test_every_edge_has_its_reverse(self, shape):
        graph = GENERATED[shape]()
        assert all(graph.has_edge(target, source) for source, target in graph.edges())


class TestEuropeanRailway:
    def test_structure(self):
        graph, countries = european_railway_example()
        assert set(countries) == {"holland", "germany", "italy"}
        assert graph.node_count() == 18
        assert is_weakly_connected(graph)
        assert graph.has_coordinates()

    def test_cities_belong_to_exactly_one_country(self):
        _, countries = european_railway_example()
        all_cities = [city for cities in countries.values() for city in cities]
        assert len(all_cities) == len(set(all_cities))

    def test_amsterdam_reaches_milan(self):
        graph, _ = european_railway_example()
        from repro.closure import is_connected

        assert is_connected(graph, "amsterdam", "milan")
