"""Unit tests for the query workload generators."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.generators import (
    PathQuery,
    cross_cluster_queries,
    grid_graph,
    intra_cluster_queries,
    mixed_workload,
)


@pytest.fixture
def clusters():
    return [set(range(0, 8)), set(range(8, 16)), set(range(16, 24))]


class TestPathQuery:
    def test_valid_kinds(self):
        PathQuery(source=1, target=2, kind="reachability")
        PathQuery(source=1, target=2, kind="shortest_path")

    def test_invalid_kind_raises(self):
        with pytest.raises(FragmenterConfigurationError):
            PathQuery(source=1, target=2, kind="widest")


class TestClusterQueries:
    def test_cross_cluster_endpoints_in_different_clusters(self, clusters):
        queries = cross_cluster_queries(clusters, 20, seed=0)
        for query in queries:
            source_cluster = next(i for i, c in enumerate(clusters) if query.source in c)
            target_cluster = next(i for i, c in enumerate(clusters) if query.target in c)
            assert source_cluster != target_cluster

    def test_cross_cluster_minimum_distance(self, clusters):
        queries = cross_cluster_queries(clusters, 10, seed=0, minimum_cluster_distance=2)
        for query in queries:
            source_cluster = next(i for i, c in enumerate(clusters) if query.source in c)
            target_cluster = next(i for i, c in enumerate(clusters) if query.target in c)
            assert abs(source_cluster - target_cluster) >= 2

    def test_cross_cluster_needs_two_clusters(self):
        with pytest.raises(FragmenterConfigurationError):
            cross_cluster_queries([{1, 2}], 5)

    def test_intra_cluster_endpoints_share_cluster(self, clusters):
        queries = intra_cluster_queries(clusters, 20, seed=0)
        for query in queries:
            source_cluster = next(i for i, c in enumerate(clusters) if query.source in c)
            target_cluster = next(i for i, c in enumerate(clusters) if query.target in c)
            assert source_cluster == target_cluster
            assert query.source != query.target

    def test_intra_cluster_needs_cluster_of_two(self):
        with pytest.raises(FragmenterConfigurationError):
            intra_cluster_queries([{1}], 5)


class TestMixedWorkload:
    def test_total_count(self, clusters):
        graph = grid_graph(4, 6)
        workload = mixed_workload(graph, clusters, 30, cross_fraction=0.5, seed=2)
        assert len(workload) == 30

    def test_cross_fraction_validation(self, clusters):
        graph = grid_graph(2, 2)
        with pytest.raises(FragmenterConfigurationError):
            mixed_workload(graph, clusters, 10, cross_fraction=1.5)

    def test_all_cross(self, clusters):
        graph = grid_graph(4, 6)
        workload = mixed_workload(graph, clusters, 10, cross_fraction=1.0, seed=0)
        for query in workload:
            source_cluster = next(i for i, c in enumerate(clusters) if query.source in c)
            target_cluster = next(i for i, c in enumerate(clusters) if query.target in c)
            assert source_cluster != target_cluster
