"""Unit tests for the fragmentation graph G' and chain enumeration."""

import pytest

from repro.fragmentation import Fragmentation, FragmentationGraph, GroundTruthFragmenter
from repro.generators import TransportationGraphConfig, chain_graph, generate_transportation_graph
from repro.graph import DiGraph


def _chain_fragmentation(cluster_count: int = 4) -> Fragmentation:
    """A fragmentation whose fragmentation graph is a path of ``cluster_count`` fragments."""
    graph = chain_graph(cluster_count * 3 + 1)
    fragments = []
    for index in range(cluster_count):
        nodes = range(index * 3, index * 3 + 4)
        edges = [
            (a, b)
            for a, b in graph.edges()
            if a in nodes and b in nodes
        ]
        fragments.append(edges)
    return Fragmentation(graph, fragments, algorithm="chain")


def _cyclic_fragmentation() -> Fragmentation:
    """Three fragments pairwise sharing one node -> fragmentation graph is a triangle."""
    graph = DiGraph()
    for x, y in [("a", "ab"), ("ab", "b"), ("b", "bc"), ("bc", "c"), ("c", "ca"), ("ca", "a")]:
        graph.add_symmetric_edge(x, y)
    fragment_a = [e for e in graph.edges() if set(e) & {"a"}]
    fragment_b = [e for e in graph.edges() if set(e) & {"b"} and e not in fragment_a]
    fragment_c = [e for e in graph.edges() if e not in fragment_a and e not in fragment_b]
    return Fragmentation(graph, [fragment_a, fragment_b, fragment_c], algorithm="triangle")


class TestStructure:
    def test_chain_fragmentation_graph_is_a_path(self):
        fg = FragmentationGraph(_chain_fragmentation(4))
        assert fg.edges() == [(0, 1), (1, 2), (2, 3)]
        assert fg.is_loosely_connected()
        assert fg.cycle_count() == 0
        assert fg.is_connected()

    def test_neighbors(self):
        fg = FragmentationGraph(_chain_fragmentation(3))
        assert fg.neighbors(1) == [0, 2]
        assert fg.neighbors(0) == [1]

    def test_cyclic_fragmentation_detected(self):
        fg = FragmentationGraph(_cyclic_fragmentation())
        assert fg.cycle_count() == 1
        assert not fg.is_loosely_connected()

    def test_cycle_count_is_computed_once_per_graph(self, monkeypatch):
        import repro.fragmentation.fragmentation_graph as module

        sweeps = []
        real = module.undirected_cycle_count
        monkeypatch.setattr(
            module, "undirected_cycle_count", lambda graph: sweeps.append(1) or real(graph)
        )
        fg = FragmentationGraph(_cyclic_fragmentation())
        assert [fg.cycle_count(), fg.is_loosely_connected(), fg.cycle_count()] == [1, False, 1]
        assert len(sweeps) == 1  # the planner asks on every query
        assert FragmentationGraph(_chain_fragmentation(3)).cycle_count() == 0  # its own sweep
        assert len(sweeps) == 2


class TestChains:
    def test_single_chain_on_loose_fragmentation(self):
        fg = FragmentationGraph(_chain_fragmentation(4))
        chains = fg.chains(0, 3)
        assert chains == [[0, 1, 2, 3]]

    def test_chain_to_self(self):
        fg = FragmentationGraph(_chain_fragmentation(3))
        assert fg.chains(1, 1) == [[1]]

    def test_multiple_chains_on_cyclic_fragmentation(self):
        fg = FragmentationGraph(_cyclic_fragmentation())
        chains = fg.chains(0, 2)
        assert sorted(chains) == [[0, 1, 2], [0, 2]]

    def test_max_chains_caps_enumeration(self):
        fg = FragmentationGraph(_cyclic_fragmentation())
        chains = fg.chains(0, 2, max_chains=1)
        assert len(chains) == 1

    def test_no_chain_between_disconnected_fragments(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        graph.add_symmetric_edge("x", "y")
        fragmentation = Fragmentation(
            graph,
            [[("a", "b"), ("b", "a")], [("x", "y"), ("y", "x")]],
        )
        fg = FragmentationGraph(fragmentation)
        assert fg.chains(0, 1) == []
        assert not fg.is_connected()


class TestOnGeneratedNetwork:
    def test_ground_truth_fragmentation_of_chain_network_is_loose(self):
        config = TransportationGraphConfig(
            cluster_count=4, nodes_per_cluster=8, cluster_c1=140.0, inter_cluster_edges=1
        )
        network = generate_transportation_graph(config, seed=2)
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        fg = FragmentationGraph(fragmentation)
        assert fg.is_connected()
        assert fg.is_loosely_connected()
