"""Unit tests for Warshall closure and per-source search closures."""

import pytest

from repro.closure import (
    bfs_closure,
    dijkstra_closure,
    seminaive_transitive_closure,
    warshall_closure,
)
from repro.generators import chain_graph, grid_graph
from repro.graph import DiGraph


@pytest.fixture
def weighted_graph() -> DiGraph:
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 1.0)
    graph.add_edge("a", "c", 5.0)
    graph.add_edge("c", "d", 2.0)
    return graph


class TestWarshall:
    def test_matches_seminaive_shortest_paths(self, weighted_graph):
        warshall = warshall_closure(weighted_graph)
        semi = seminaive_transitive_closure(weighted_graph)
        assert warshall.values == semi.values

    def test_reaches_follows_directed_edges(self):
        result = warshall_closure(chain_graph(4, symmetric=False))
        assert result.reaches(0, 3)
        assert result.values[(0, 3)] == 3.0
        assert not result.reaches(2, 0)

    def test_one_round_per_pivot(self, weighted_graph):
        result = warshall_closure(weighted_graph)
        assert result.statistics.iterations == weighted_graph.node_count()


class TestSearchClosures:
    def test_bfs_closure_all_sources(self):
        graph = chain_graph(4, symmetric=False)
        result = bfs_closure(graph)
        assert result.size() == 6  # pairs (i, j) with i < j

    def test_bfs_closure_restricted_sources(self):
        graph = chain_graph(4, symmetric=False)
        result = bfs_closure(graph, sources=[1])
        assert result.pairs() == {(1, 2), (1, 3)}

    def test_bfs_closure_ignores_missing_sources(self):
        graph = chain_graph(3, symmetric=False)
        result = bfs_closure(graph, sources=["ghost"])
        assert result.size() == 0

    def test_dijkstra_closure_matches_warshall(self, weighted_graph):
        dijkstra = dijkstra_closure(weighted_graph)
        warshall = warshall_closure(weighted_graph)
        assert dijkstra.values == pytest.approx(warshall.values)

    def test_dijkstra_closure_target_restriction(self, weighted_graph):
        result = dijkstra_closure(weighted_graph, sources=["a"], targets={"d"})
        assert result.pairs() == {("a", "d")}
        assert result.values[("a", "d")] == 4.0

    def test_grid_closure_is_symmetric(self):
        graph = grid_graph(3, 3)
        result = dijkstra_closure(graph)
        for (source, target), value in result.values.items():
            assert result.values[(target, source)] == value


class TestCompactThreshold:
    """Above COMPACT_NODE_THRESHOLD the dict algorithms delegate to kernels."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        import random

        from repro.closure.warshall import COMPACT_NODE_THRESHOLD

        rng = random.Random(3)
        graph = DiGraph()
        n = COMPACT_NODE_THRESHOLD + 16
        for node in range(n):
            graph.add_node(node)
        for _ in range(4 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                graph.add_edge(a, b, float(rng.randint(1, 9)))
        return graph

    def test_bfs_closure_delegates_with_identical_values(self, big_graph):
        assert bfs_closure(big_graph).values == bfs_closure(big_graph, use_compact=False).values

    def test_dijkstra_closure_delegates_with_identical_values(self, big_graph):
        auto = dijkstra_closure(big_graph, sources=[0, 1, 2], targets={3, 4})
        dict_based = dijkstra_closure(
            big_graph, sources=[0, 1, 2], targets={3, 4}, use_compact=False
        )
        assert auto.values == dict_based.values

    def test_warshall_closure_delegates_with_identical_values(self, big_graph):
        dict_based = warshall_closure(big_graph, use_compact=False)
        assert warshall_closure(big_graph).values == dict_based.values

    def test_tiny_graphs_keep_the_dict_path(self):
        from repro.closure import ClosureResult
        from repro.closure.warshall import COMPACT_NODE_THRESHOLD

        graph = DiGraph([(0, 1, 1.0), (1, 2, 1.0)])
        assert graph.node_count() < COMPACT_NODE_THRESHOLD
        result = warshall_closure(graph)
        assert isinstance(result, ClosureResult)
        # The pivot loop records one round per node; the kernels would not.
        assert result.statistics.iterations == graph.node_count()
