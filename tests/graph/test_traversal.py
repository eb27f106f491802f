"""Unit tests for graph traversals and components."""

from repro.generators import chain_graph, cycle_graph
from repro.graph import (
    DiGraph,
    bfs_levels,
    bfs_order,
    is_reachable,
    is_weakly_connected,
    strongly_connected_components,
    undirected_cycle_count,
    weakly_connected_components,
)


class TestBfs:
    def test_bfs_order_directed(self):
        graph = DiGraph([("a", "b"), ("a", "c"), ("b", "d")])
        order = bfs_order(graph, "a")
        assert order[0] == "a"
        assert set(order) == {"a", "b", "c", "d"}
        assert order.index("b") < order.index("d")

    def test_bfs_undirected_crosses_reverse_edges(self):
        graph = DiGraph([("b", "a")])
        assert bfs_order(graph, "a") == ["a"]
        assert set(bfs_order(graph, "a", undirected=True)) == {"a", "b"}

    def test_bfs_levels_hop_counts(self):
        graph = chain_graph(5, symmetric=False)
        levels = bfs_levels(graph, 0)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_is_reachable(self):
        graph = DiGraph([("a", "b"), ("b", "c"), ("x", "y")])
        assert is_reachable(graph, "a", "c")
        assert not is_reachable(graph, "a", "y")
        assert is_reachable(graph, "a", "a")


class TestComponents:
    def test_weak_components(self):
        graph = DiGraph([("a", "b"), ("c", "d")])
        components = weakly_connected_components(graph)
        assert sorted(sorted(component) for component in components) == [["a", "b"], ["c", "d"]]
        assert not is_weakly_connected(graph)

    def test_single_component(self):
        graph = DiGraph([("a", "b"), ("b", "c")])
        assert is_weakly_connected(graph)

    def test_strongly_connected_components(self):
        graph = DiGraph([("a", "b"), ("b", "a"), ("b", "c")])
        components = strongly_connected_components(graph)
        as_sets = sorted(sorted(component) for component in components)
        assert ["a", "b"] in as_sets
        assert ["c"] in as_sets

    def test_scc_on_cycle(self):
        graph = cycle_graph(5, symmetric=False)
        components = strongly_connected_components(graph)
        assert len(components) == 1
        assert components[0] == set(range(5))


class TestUndirectedCycles:
    def test_undirected_cycle_count_tree_is_zero(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        graph.add_symmetric_edge("b", "c")
        assert undirected_cycle_count(graph) == 0

    def test_undirected_cycle_count_cycle_is_one(self):
        graph = cycle_graph(4)
        assert undirected_cycle_count(graph) == 1

    def test_undirected_cycle_count_two_independent_cycles(self):
        graph = cycle_graph(3)
        # Add a second triangle sharing node 0.
        graph.add_symmetric_edge(0, 10)
        graph.add_symmetric_edge(10, 11)
        graph.add_symmetric_edge(11, 0)
        assert undirected_cycle_count(graph) == 2
