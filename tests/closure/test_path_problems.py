"""Unit tests for the high-level path-problem entry points."""

import pytest

from repro.closure import bill_of_materials, is_connected, shortest_path_cost
from repro.exceptions import DisconnectedError
from repro.generators import layered_dag
from repro.graph import DiGraph


class TestConnectivityQueries:
    def test_is_connected_true_false(self):
        graph = DiGraph([("a", "b"), ("b", "c")])
        assert is_connected(graph, "a", "c")
        assert not is_connected(graph, "c", "a")

    def test_is_connected_missing_node(self):
        graph = DiGraph([("a", "b")])
        assert not is_connected(graph, "a", "ghost")

    def test_is_connected_to_self(self):
        graph = DiGraph(nodes=["x"])
        assert is_connected(graph, "x", "x")


class TestShortestPathQueries:
    def test_cost(self):
        graph = DiGraph([("a", "b", 2.0), ("b", "c", 3.0), ("a", "c", 10.0)])
        assert shortest_path_cost(graph, "a", "c") == 5.0

    def test_cost_to_self_is_zero(self):
        graph = DiGraph(nodes=["a"])
        assert shortest_path_cost(graph, "a", "a") == 0.0

    def test_unreachable_raises(self):
        graph = DiGraph([("a", "b")])
        graph.add_node("z")
        with pytest.raises(DisconnectedError):
            shortest_path_cost(graph, "a", "z")


class TestBillOfMaterials:
    def test_path_counts_in_layered_dag(self):
        # 3 layers of width 2: from a top node to a bottom node there are
        # exactly 2 distinct paths (one through each middle node).
        graph = layered_dag(3, 2)
        result = bill_of_materials(graph)
        assert result.values[(0, 4)] == 2

    def test_direct_edge_counts_one(self):
        graph = DiGraph([("assembly", "part")])
        result = bill_of_materials(graph)
        assert result.values[("assembly", "part")] == 1
