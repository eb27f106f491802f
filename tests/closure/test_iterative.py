"""Unit tests for the iterative closure algorithms (naive, semi-naive, smart)."""

import pytest

from repro.closure import (
    naive_transitive_closure,
    reachability_semiring,
    seminaive_transitive_closure,
    shortest_path_semiring,
    smart_transitive_closure,
)
from repro.generators import chain_graph, cycle_graph, grid_graph
from repro.graph import DiGraph


@pytest.fixture
def weighted_graph() -> DiGraph:
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 1.0)
    graph.add_edge("a", "c", 5.0)
    graph.add_edge("c", "d", 2.0)
    return graph


class TestCorrectness:
    def test_seminaive_shortest_paths(self, weighted_graph):
        result = seminaive_transitive_closure(weighted_graph)
        assert result.values[("a", "c")] == 2.0
        assert result.values[("a", "d")] == 4.0

    def test_all_algorithms_agree(self, weighted_graph):
        semi = seminaive_transitive_closure(weighted_graph)
        naive = naive_transitive_closure(weighted_graph)
        smart = smart_transitive_closure(weighted_graph)
        assert semi.values == naive.values == smart.values

    def test_reachability_on_directed_chain(self):
        graph = chain_graph(4, symmetric=False)
        result = seminaive_transitive_closure(graph, semiring=reachability_semiring())
        assert result.reaches(0, 3)
        assert not result.reaches(3, 0)

    def test_cycle_produces_self_loops(self):
        graph = cycle_graph(4, symmetric=False)
        result = seminaive_transitive_closure(graph, semiring=reachability_semiring())
        assert result.reaches(0, 0)
        assert result.size() == 16

    def test_source_restriction_limits_rows(self, weighted_graph):
        result = seminaive_transitive_closure(weighted_graph, sources=["a"])
        assert all(source == "a" for source, _ in result.values)
        assert result.values[("a", "d")] == 4.0

    def test_empty_graph(self):
        result = seminaive_transitive_closure(DiGraph())
        assert result.size() == 0

    def test_result_helpers(self, weighted_graph):
        result = seminaive_transitive_closure(weighted_graph)
        semiring = shortest_path_semiring()
        assert result.value("a", "zzz", semiring) == semiring.zero
        assert result.value("a", "zzz") is None


class TestIterationCounts:
    def test_seminaive_iterations_scale_with_diameter(self):
        short = seminaive_transitive_closure(chain_graph(4, symmetric=False))
        long = seminaive_transitive_closure(chain_graph(12, symmetric=False))
        assert long.statistics.iterations > short.statistics.iterations

    def test_smart_iterations_are_logarithmic(self):
        graph = chain_graph(20, symmetric=False)
        smart = smart_transitive_closure(graph)
        semi = seminaive_transitive_closure(graph)
        assert smart.statistics.iterations <= 6
        assert semi.statistics.iterations >= 18

    def test_fragmenting_a_chain_reduces_iterations(self):
        # The paper's iteration-reduction claim in miniature: half the chain
        # needs roughly half the iterations.
        whole = seminaive_transitive_closure(chain_graph(16, symmetric=False))
        half = seminaive_transitive_closure(chain_graph(8, symmetric=False))
        assert half.statistics.iterations < whole.statistics.iterations

    def test_grid_closure_statistics_consistent(self):
        result = seminaive_transitive_closure(grid_graph(3, 3), semiring=reachability_semiring())
        assert result.statistics.iterations == len(result.statistics.delta_sizes)
        # Every ordered pair is derivable, including (i, i) via back-and-forth
        # over a symmetric edge.
        assert result.size() == 9 * 9


class TestCompactThreshold:
    def test_seminaive_delegates_above_threshold_with_identical_values(self):
        import random

        from repro.closure import reachability_semiring
        from repro.closure.warshall import COMPACT_NODE_THRESHOLD

        rng = random.Random(9)
        graph = DiGraph()
        n = COMPACT_NODE_THRESHOLD + 8
        for node in range(n):
            graph.add_node(node)
        for _ in range(4 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                graph.add_edge(a, b, float(rng.randint(1, 9)))
        for semiring in (shortest_path_semiring(), reachability_semiring()):
            auto = seminaive_transitive_closure(graph, semiring=semiring)
            dict_based = seminaive_transitive_closure(
                graph, semiring=semiring, use_compact=False
            )
            # Including the cyclic (a, a) facts the fixpoint derives.
            assert auto.values == dict_based.values
        restricted = seminaive_transitive_closure(graph, sources=[0, 5])
        restricted_dict = seminaive_transitive_closure(
            graph, sources=[0, 5], use_compact=False
        )
        assert restricted.values == restricted_dict.values
