"""Unit tests for the k-connectivity ("relevant nodes") fragmenter."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.fragmentation import KConnectivityFragmenter, characterize
from repro.generators import complete_graph, two_cluster_dumbbell
from repro.graph import DiGraph


class TestConfiguration:
    def test_rejects_nonpositive_fragment_count(self):
        with pytest.raises(FragmenterConfigurationError):
            KConnectivityFragmenter(0)

    def test_rejects_empty_graph(self):
        with pytest.raises(FragmenterConfigurationError):
            KConnectivityFragmenter(2).fragment(DiGraph(nodes=["a"]))


class TestFragmentation:
    def test_dumbbell_splits_at_the_cut_nodes(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=1)
        fragmentation = KConnectivityFragmenter(2).fragment(graph)
        fragmentation.validate()
        characteristics = characterize(fragmentation, include_diameter=False)
        assert characteristics.fragment_count == 2
        assert characteristics.average_disconnection_set_size <= 2.0

    def test_critical_nodes_include_the_bridge_end(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        critical = KConnectivityFragmenter(2)._critical_nodes(graph)
        assert 0 in critical or 4 in critical

    def test_dense_graph_degrades_to_few_fragments(self):
        # The failure mode the paper predicts: no relevant nodes exist in a
        # clique, so the approach cannot split it.
        graph = complete_graph(8)
        fragmentation = KConnectivityFragmenter(3).fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() <= 2

    def test_three_way_chain_of_cliques(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        # Attach a third clique to node 7 through a single cut edge.
        for a in (20, 21, 22):
            for b in (20, 21, 22):
                if a < b:
                    graph.add_symmetric_edge(a, b)
        graph.add_symmetric_edge(7, 20)
        fragmentation = KConnectivityFragmenter(3).fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() == 3

    def test_covers_all_edges(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = KConnectivityFragmenter(2).fragment(graph)
        assert sum(f.edge_count() for f in fragmentation.fragments) == graph.edge_count()
