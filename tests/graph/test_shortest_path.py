"""Unit tests for shortest-path algorithms."""

import math
import random

import pytest

from repro.exceptions import DisconnectedError, NegativeWeightError, NodeNotFoundError
from repro.generators import chain_graph, grid_graph
from repro.graph import (
    DiGraph,
    dijkstra,
    hop_diameter,
    shortest_path,
    shortest_path_length,
)


@pytest.fixture
def weighted_graph() -> DiGraph:
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("a", "c", 10.0)
    graph.add_edge("c", "d", 3.0)
    graph.add_edge("b", "d", 9.0)
    return graph


class TestDijkstra:
    def test_distances(self, weighted_graph):
        distances, _ = dijkstra(weighted_graph, "a")
        assert distances["c"] == 3.0
        assert distances["d"] == 6.0

    def test_target_restriction_stops_early(self, weighted_graph):
        distances, _ = dijkstra(weighted_graph, "a", targets=["b"])
        assert distances["b"] == 1.0

    def test_missing_source_raises(self, weighted_graph):
        with pytest.raises(NodeNotFoundError):
            dijkstra(weighted_graph, "ghost")

    def test_negative_weight_raises(self):
        graph = DiGraph([("a", "b", -1.0)])
        with pytest.raises(NegativeWeightError):
            dijkstra(graph, "a")

    def test_shortest_path_route(self, weighted_graph):
        length, path = shortest_path(weighted_graph, "a", "d")
        assert length == 6.0
        assert path == ["a", "b", "c", "d"]

    def test_shortest_path_length_unreachable_raises(self, weighted_graph):
        weighted_graph.add_node("island")
        with pytest.raises(DisconnectedError):
            shortest_path_length(weighted_graph, "a", "island")


def random_weighted_graph(seed: int, node_count: int = 12, edge_count: int = 30) -> DiGraph:
    """A directed graph with integer weights (exact sums) and some unreachable pairs."""
    rng = random.Random(seed)
    graph = DiGraph()
    for node in range(node_count):
        graph.add_node(node)
    for _ in range(edge_count):
        source, target = rng.sample(range(node_count), 2)
        graph.add_edge(source, target, float(rng.randint(0, 9)))
    return graph


def bellman_ford(graph: DiGraph, source) -> dict:
    """Independent oracle: relax every edge |V| - 1 times."""
    distances = {node: math.inf for node in graph.nodes()}
    distances[source] = 0.0
    for _ in range(graph.node_count() - 1):
        for node_from, node_to, weight in graph.weighted_edges():
            if distances[node_from] + weight < distances[node_to]:
                distances[node_to] = distances[node_from] + weight
    return {node: distance for node, distance in distances.items() if distance < math.inf}


@pytest.mark.parametrize("seed", range(8))
class TestAgainstBellmanFord:
    def test_dijkstra_distances_match_from_every_source(self, seed):
        graph = random_weighted_graph(seed)
        for source in graph.nodes():
            distances, _ = dijkstra(graph, source)
            assert distances == bellman_ford(graph, source)

    def test_predecessors_and_routes_are_shortest_paths(self, seed):
        graph = random_weighted_graph(seed)
        for source in graph.nodes():
            distances, predecessors = dijkstra(graph, source)
            for node, previous in predecessors.items():
                assert distances[previous] + graph.edge_weight(previous, node) == distances[node]
            for target in distances:
                length, path = shortest_path(graph, source, target)
                assert (path[0], path[-1]) == (source, target)
                assert length == distances[target]
                assert sum(graph.edge_weight(a, b) for a, b in zip(path, path[1:])) == length


class TestDiameter:
    def test_chain_diameter(self):
        assert hop_diameter(chain_graph(6)) == 5

    def test_grid_diameter(self):
        assert hop_diameter(grid_graph(3, 4)) == 5  # (3-1) + (4-1)

    def test_empty_graph_diameter_zero(self):
        assert hop_diameter(DiGraph()) == 0
