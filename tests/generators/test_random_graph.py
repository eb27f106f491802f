"""Unit tests for the distance-biased random graph generator."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.generators import (
    RandomGraphConfig,
    edge_probability,
    generate_random_graph,
)
from repro.graph import is_weakly_connected


class TestConfigValidation:
    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(FragmenterConfigurationError):
            RandomGraphConfig(node_count=0, c1=1.0, c2=0.1)

    def test_rejects_nonpositive_c1(self):
        with pytest.raises(FragmenterConfigurationError):
            RandomGraphConfig(node_count=10, c1=0.0, c2=0.1)

    def test_rejects_negative_c2(self):
        with pytest.raises(FragmenterConfigurationError):
            RandomGraphConfig(node_count=10, c1=1.0, c2=-0.1)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(FragmenterConfigurationError):
            RandomGraphConfig(node_count=10, c1=1.0, c2=0.1, extent=0.0)


class TestEdgeProbability:
    def test_decreases_with_distance(self):
        config = RandomGraphConfig(node_count=10, c1=50.0, c2=0.5)
        assert edge_probability(config, 1.0) > edge_probability(config, 10.0)

    def test_capped_at_one(self):
        config = RandomGraphConfig(node_count=2, c1=1e9, c2=0.0)
        assert edge_probability(config, 0.0) == 1.0

    def test_c2_zero_is_distance_independent(self):
        config = RandomGraphConfig(node_count=10, c1=50.0, c2=0.0)
        assert edge_probability(config, 1.0) == edge_probability(config, 99.0)


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = RandomGraphConfig(node_count=30, c1=900.0, c2=0.05)
        assert generate_random_graph(config, seed=3) == generate_random_graph(config, seed=3)

    def test_different_seeds_differ(self):
        config = RandomGraphConfig(node_count=30, c1=900.0, c2=0.05)
        left = generate_random_graph(config, seed=1)
        right = generate_random_graph(config, seed=2)
        assert left != right

    def test_every_node_has_coordinates(self):
        graph = generate_random_graph(RandomGraphConfig(node_count=20, c1=500.0, c2=0.05), seed=0)
        assert graph.node_count() == 20
        assert graph.has_coordinates()

    def test_connect_flag_gives_connected_graph(self):
        config = RandomGraphConfig(node_count=40, c1=60.0, c2=0.2, connect=True)
        graph = generate_random_graph(config, seed=5)
        assert is_weakly_connected(graph)

    def test_symmetric_edges(self):
        graph = generate_random_graph(RandomGraphConfig(node_count=20, c1=800.0, c2=0.02), seed=0)
        for source, target in graph.edges():
            assert graph.has_edge(target, source)

    def test_weights_are_euclidean_distances(self):
        graph = generate_random_graph(RandomGraphConfig(node_count=15, c1=800.0, c2=0.02), seed=1)
        for source, target, weight in graph.weighted_edges():
            distance = graph.coordinate(source).distance_to(graph.coordinate(target))
            assert weight == pytest.approx(distance)

    def test_c1_increases_edge_count(self):
        sparse = generate_random_graph(RandomGraphConfig(node_count=40, c1=400.0, c2=0.05), seed=2)
        dense = generate_random_graph(RandomGraphConfig(node_count=40, c1=2400.0, c2=0.05), seed=2)
        assert dense.undirected_edge_count() > sparse.undirected_edge_count()
