"""Unit tests for graph metrics and summary statistics."""

import pytest

from repro.generators import chain_graph, complete_graph, grid_graph
from repro.graph import (
    DiGraph,
    average_degree,
    clustering_ratio,
    mean,
    mean_absolute_deviation,
    summarize,
)


class TestStatistics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_mean_absolute_deviation(self):
        # Values 2, 4, 6: mean 4, deviations 2, 0, 2 -> MAD 4/3.
        assert mean_absolute_deviation([2.0, 4.0, 6.0]) == pytest.approx(4.0 / 3.0)
        assert mean_absolute_deviation([]) == 0.0
        assert mean_absolute_deviation([5.0, 5.0]) == 0.0


class TestSummaries:
    def test_summarize_chain(self):
        summary = summarize(chain_graph(5))
        assert summary.node_count == 5
        assert summary.undirected_edge_count == 4
        assert summary.diameter == 4
        assert summary.weak_component_count == 1

    def test_summarize_empty(self):
        summary = summarize(DiGraph())
        assert summary.node_count == 0
        assert summary.diameter == 0
        assert summary.density == 0.0

    def test_summary_as_dict_keys(self):
        summary = summarize(chain_graph(3)).as_dict()
        assert {"node_count", "edge_count", "diameter", "density"} <= set(summary)

    def test_average_degree(self):
        assert average_degree(complete_graph(4)) == 3.0
        assert average_degree(DiGraph()) == 0.0


class TestClusteringRatio:
    def test_fully_internal(self):
        graph = complete_graph(4)
        assert clustering_ratio(graph, [set(range(4))]) == 1.0

    def test_mixed(self):
        graph = DiGraph()
        graph.add_symmetric_edge(0, 1)
        graph.add_symmetric_edge(2, 3)
        graph.add_symmetric_edge(1, 2)  # cross-cluster
        ratio = clustering_ratio(graph, [{0, 1}, {2, 3}])
        assert ratio == pytest.approx(2.0 / 3.0)

    def test_empty_graph(self):
        assert clustering_ratio(DiGraph(), [set()]) == 0.0
