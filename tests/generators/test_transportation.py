"""Unit tests for the transportation graph generator (Fig. 3 workload)."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.generators import (
    TransportationGraphConfig,
    generate_transportation_graph,
    paper_table1_config,
    paper_table2_config,
)
from repro.graph import clustering_ratio, is_weakly_connected


def cluster_index(network):
    return {node: index for index, cluster in enumerate(network.clusters) for node in cluster}


@pytest.fixture(scope="module")
def small_network():
    config = TransportationGraphConfig(
        cluster_count=3, nodes_per_cluster=10, cluster_c1=220.0, cluster_c2=0.03, inter_cluster_edges=2
    )
    return generate_transportation_graph(config, seed=4)


class TestConfigValidation:
    def test_rejects_zero_clusters(self):
        with pytest.raises(FragmenterConfigurationError):
            TransportationGraphConfig(cluster_count=0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(FragmenterConfigurationError):
            TransportationGraphConfig(nodes_per_cluster=0)

    def test_rejects_bad_topology(self):
        with pytest.raises(FragmenterConfigurationError):
            TransportationGraphConfig(topology="mesh")

    def test_rejects_zero_inter_cluster_edges(self):
        with pytest.raises(FragmenterConfigurationError):
            TransportationGraphConfig(inter_cluster_edges=0)


class TestStructure:
    def test_node_count(self, small_network):
        assert small_network.graph.node_count() == 30
        assert len(small_network.clusters) == 3
        assert all(len(cluster) == 10 for cluster in small_network.clusters)

    def test_clusters_partition_the_nodes(self, small_network):
        union = set().union(*small_network.clusters)
        assert union == set(small_network.graph.nodes())
        total = sum(len(cluster) for cluster in small_network.clusters)
        assert total == len(union)

    def test_connected(self, small_network):
        assert is_weakly_connected(small_network.graph)

    def test_high_intra_cluster_ratio(self, small_network):
        ratio = clustering_ratio(small_network.graph, small_network.clusters)
        assert ratio > 0.85

    def test_chain_topology_has_expected_border_pairs(self, small_network):
        # 3 clusters in a chain -> 2 connected pairs x 2 edges each.
        assert len(small_network.inter_cluster_pairs) == 4

    def test_border_nodes_are_in_two_adjacent_clusters(self, small_network):
        index = cluster_index(small_network)
        for a, b in small_network.inter_cluster_pairs:
            assert index[a] != index[b]

    def test_deterministic_per_seed(self):
        config = TransportationGraphConfig(cluster_count=2, nodes_per_cluster=8, cluster_c1=150.0)
        left = generate_transportation_graph(config, seed=9)
        right = generate_transportation_graph(config, seed=9)
        assert left.graph == right.graph

    def test_complete_topology_connects_all_pairs(self):
        config = TransportationGraphConfig(
            cluster_count=3, nodes_per_cluster=6, cluster_c1=90.0, topology="complete", inter_cluster_edges=1
        )
        network = generate_transportation_graph(config, seed=0)
        index = cluster_index(network)
        pairs = {tuple(sorted((index[a], index[b]))) for a, b in network.inter_cluster_pairs}
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_cycle_topology_closes_the_loop(self):
        config = TransportationGraphConfig(
            cluster_count=4, nodes_per_cluster=6, cluster_c1=90.0, topology="cycle", inter_cluster_edges=1
        )
        network = generate_transportation_graph(config, seed=0)
        index = cluster_index(network)
        pairs = {tuple(sorted((index[a], index[b]))) for a, b in network.inter_cluster_pairs}
        assert pairs == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_connecting_edges_weigh_their_length(self):
        config = TransportationGraphConfig(cluster_count=2, nodes_per_cluster=6, cluster_c1=90.0)
        network = generate_transportation_graph(config, seed=0)
        graph = network.graph
        for a, b in network.inter_cluster_pairs:
            assert graph.edge_weight(a, b) == graph.coordinate(a).distance_to(graph.coordinate(b))


class TestPaperConfigs:
    def test_table1_workload_shape(self):
        network = generate_transportation_graph(paper_table1_config(), seed=0)
        assert network.graph.node_count() == 100
        # Paper: about 429 undirected edges; allow a generous band.
        assert 340 <= network.graph.undirected_edge_count() <= 520

    def test_table2_config_shape(self):
        config = paper_table2_config()
        assert config.cluster_count == 4
        assert config.nodes_per_cluster == 150
