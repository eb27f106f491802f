"""Unit tests for the baseline fragmenters."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.fragmentation import (
    GroundTruthFragmenter,
    HashFragmenter,
    characterize,
)
from repro.generators import grid_graph, two_cluster_dumbbell


class TestHashFragmenter:
    def test_covers_all_edges(self):
        graph = grid_graph(4, 5)
        fragmentation = HashFragmenter(3).fragment(graph)
        fragmentation.validate()

    def test_is_deterministic(self):
        graph = grid_graph(4, 4)
        first = HashFragmenter(3).fragment(graph)
        second = HashFragmenter(3).fragment(graph)
        assert [f.edges for f in first.fragments] == [f.edges for f in second.fragments]

    def test_has_large_disconnection_sets(self):
        # Hash partitioning ignores locality, so the two-clique graph ends up
        # with far larger borders than the graph-aware ground truth.
        graph = two_cluster_dumbbell(6, bridge_nodes=1)
        hash_ds = characterize(HashFragmenter(2).fragment(graph), include_diameter=False)
        truth_ds = characterize(
            GroundTruthFragmenter([set(range(6)), set(range(6, 12))]).fragment(graph),
            include_diameter=False,
        )
        assert hash_ds.average_disconnection_set_size > truth_ds.average_disconnection_set_size

    def test_invalid_count(self):
        with pytest.raises(FragmenterConfigurationError):
            HashFragmenter(0)


class TestGroundTruthFragmenter:
    def test_reproduces_known_clusters(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=1)
        clusters = [set(range(5)), set(range(5, 10))]
        fragmentation = GroundTruthFragmenter(clusters).fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() == 2
        characteristics = characterize(fragmentation, include_diameter=False)
        assert characteristics.average_disconnection_set_size == 1.0

    def test_uncovered_nodes_fall_into_first_cluster(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        graph.add_symmetric_edge(0, "extra")
        fragmentation = GroundTruthFragmenter([set(range(3)), set(range(3, 6))]).fragment(graph)
        fragmentation.validate()

    def test_empty_clusters_rejected(self):
        with pytest.raises(FragmenterConfigurationError):
            GroundTruthFragmenter([])
