"""Unit tests for the DiGraph container."""

import pytest

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph import DiGraph, Point


class TestNodes:
    def test_add_node_is_idempotent(self):
        graph = DiGraph()
        graph.add_node("x")
        graph.add_node("x")
        assert graph.nodes() == ["x"]
        assert graph.node_count() == 1

    def test_contains_and_len(self):
        graph = DiGraph(nodes=[1, 2, 3])
        assert 2 in graph
        assert 9 not in graph
        assert len(graph) == 3

    def test_iteration_preserves_insertion_order(self):
        graph = DiGraph(nodes=["c", "a", "b"])
        assert list(graph) == ["c", "a", "b"]

    def test_remove_node_drops_incident_edges(self):
        graph = DiGraph([("a", "b"), ("b", "c"), ("c", "a")])
        graph.remove_node("b")
        assert not graph.has_node("b")
        assert graph.edges() == [("c", "a")]

    def test_remove_missing_node_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node("ghost")


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        graph = DiGraph()
        graph.add_edge("a", "b", 3.0)
        assert graph.has_node("a") and graph.has_node("b")
        assert graph.edge_weight("a", "b") == 3.0

    def test_add_edge_overwrites_weight(self):
        graph = DiGraph()
        graph.add_edge("a", "b", 3.0)
        graph.add_edge("a", "b", 7.0)
        assert graph.edge_weight("a", "b") == 7.0
        assert graph.edge_count() == 1

    def test_edges_are_directed(self):
        graph = DiGraph([("a", "b")])
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_symmetric_edge_adds_both_directions(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b", 2.5)
        assert graph.edge_weight("a", "b") == 2.5
        assert graph.edge_weight("b", "a") == 2.5

    def test_remove_edge(self):
        graph = DiGraph([("a", "b"), ("b", "c")])
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")

    def test_remove_missing_edge_raises(self):
        graph = DiGraph([("a", "b")])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("b", "a")

    def test_edge_weight_missing_raises(self):
        graph = DiGraph([("a", "b")])
        with pytest.raises(EdgeNotFoundError):
            graph.edge_weight("a", "z")

    def test_undirected_edge_count_counts_pairs_once(self):
        graph = DiGraph()
        graph.add_symmetric_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.edge_count() == 3
        assert graph.undirected_edge_count() == 2

    def test_weighted_edges_roundtrip(self):
        edges = [("a", "b", 1.0), ("b", "c", 2.0)]
        graph = DiGraph(edges)
        assert sorted(graph.weighted_edges()) == sorted(edges)


class TestAdjacency:
    def test_successors_predecessors_neighbors(self):
        graph = DiGraph([("a", "b"), ("c", "a"), ("a", "d")])
        assert sorted(graph.successors("a")) == ["b", "d"]
        assert graph.predecessors("a") == ["c"]
        assert sorted(graph.neighbors("a")) == ["b", "c", "d"]

    def test_degrees(self):
        graph = DiGraph([("a", "b"), ("c", "a"), ("a", "d")])
        assert graph.out_degree("a") == 2
        assert graph.in_degree("a") == 1
        assert graph.degree("a") == 3
        assert graph.undirected_degree("a") == 3

    def test_undirected_degree_counts_symmetric_pair_once(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        assert graph.degree("a") == 2
        assert graph.undirected_degree("a") == 1

    def test_adjacency_of_missing_node_raises(self):
        graph = DiGraph([("a", "b")])
        with pytest.raises(NodeNotFoundError):
            graph.successors("ghost")


class TestCoordinatesAndDerivations:
    def test_set_and_get_coordinate(self):
        graph = DiGraph()
        graph.set_coordinate("a", (1.0, 2.0))
        assert graph.coordinate("a") == Point(1.0, 2.0)
        assert graph.coordinate("a").x == 1.0

    def test_has_coordinates_requires_all_nodes(self):
        graph = DiGraph([("a", "b")])
        graph.set_coordinate("a", (0, 0))
        assert not graph.has_coordinates()
        graph.set_coordinate("b", (1, 1))
        assert graph.has_coordinates()

    def test_copy_is_independent(self):
        graph = DiGraph([("a", "b", 1.0)])
        graph.set_coordinate("a", (0, 0))
        clone = graph.copy()
        clone.add_edge("b", "c")
        assert not graph.has_node("c")
        assert clone.coordinate("a") == graph.coordinate("a")

    def test_subgraph_keeps_only_induced_edges(self):
        graph = DiGraph([("a", "b"), ("b", "c"), ("c", "a")])
        sub = graph.subgraph({"a", "b"})
        assert sub.edges() == [("a", "b")]
        assert sorted(sub.nodes()) == ["a", "b"]

    def test_edge_subgraph(self):
        graph = DiGraph([("a", "b", 2.0), ("b", "c", 3.0)])
        sub = graph.edge_subgraph([("b", "c")])
        assert sub.edges() == [("b", "c")]
        assert sub.edge_weight("b", "c") == 3.0

    def test_equality_ignores_insertion_order(self):
        left = DiGraph([("a", "b", 1.0), ("b", "c", 2.0)])
        right = DiGraph([("b", "c", 2.0), ("a", "b", 1.0)])
        assert left == right

    def test_repr_mentions_counts(self):
        graph = DiGraph([("a", "b")])
        assert "nodes=2" in repr(graph)
        assert "edges=1" in repr(graph)
