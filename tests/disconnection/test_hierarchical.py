"""Unit tests for Parallel Hierarchical Evaluation (the high-speed network extension)."""

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import HierarchicalEngine
from repro.exceptions import DisconnectedError, NoChainError
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import (
    TransportationGraphConfig,
    european_railway_example,
    generate_transportation_graph,
)


@pytest.fixture(scope="module")
def chain_network():
    config = TransportationGraphConfig(
        cluster_count=4, nodes_per_cluster=8, cluster_c1=150.0, inter_cluster_edges=2
    )
    return generate_transportation_graph(config, seed=6)


@pytest.fixture(scope="module")
def hierarchical(chain_network):
    fragmentation = GroundTruthFragmenter(chain_network.clusters).fragment(chain_network.graph)
    return HierarchicalEngine(fragmentation)


class TestBackbone:
    def test_backbone_contains_all_border_nodes(self, chain_network, hierarchical):
        stats = hierarchical.backbone_statistics()
        fragmentation = GroundTruthFragmenter(chain_network.clusters).fragment(chain_network.graph)
        border_nodes = set()
        for nodes in fragmentation.disconnection_sets().values():
            border_nodes |= nodes
        assert stats.node_count >= len(border_nodes)
        assert stats.edge_count > 0


class TestQueries:
    def test_non_adjacent_fragments_use_three_element_chain(self, chain_network, hierarchical):
        source = sorted(chain_network.clusters[0])[1]
        target = sorted(chain_network.clusters[3])[1]
        answer = hierarchical.query(source, target)
        assert answer.exists()
        assert answer.chain is not None and len(answer.chain) == 3
        assert answer.chain[1] == -1  # the backbone pseudo-fragment

    def test_answers_match_centralized(self, chain_network, hierarchical):
        graph = chain_network.graph
        pairs = [
            (sorted(chain_network.clusters[0])[0], sorted(chain_network.clusters[3])[2]),
            (sorted(chain_network.clusters[1])[0], sorted(chain_network.clusters[2])[3]),
            (sorted(chain_network.clusters[0])[2], sorted(chain_network.clusters[0])[4]),
        ]
        for source, target in pairs:
            assert hierarchical.shortest_path_cost(source, target) == pytest.approx(
                shortest_path_cost(graph, source, target)
            )

    def test_adjacent_fragments_fall_back_to_plain_engine(self, chain_network, hierarchical):
        source = sorted(chain_network.clusters[0])[0]
        target = sorted(chain_network.clusters[1])[0]
        answer = hierarchical.query(source, target)
        assert answer.exists()
        assert -1 not in (answer.chain or ())

    def test_unknown_node_raises(self, hierarchical):
        with pytest.raises(NoChainError):
            hierarchical.query("ghost", "ghost2")

    def test_railway_backbone_answers_amsterdam_to_milan(self):
        graph, countries = european_railway_example()
        fragmentation = GroundTruthFragmenter([set(v) for v in countries.values()]).fragment(graph)
        engine = HierarchicalEngine(fragmentation)
        # Holland and Italy are non-adjacent fragments -> backbone plan.
        answer = engine.query("amsterdam", "milan")
        assert answer.chain is not None and answer.chain[1] == -1
        assert answer.value == pytest.approx(shortest_path_cost(graph, "amsterdam", "milan"))
