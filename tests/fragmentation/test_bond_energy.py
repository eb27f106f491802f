"""Unit tests for the bond-energy fragmentation algorithm (Sec. 3.2 / Fig. 5)."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.fragmentation import BondEnergyFragmenter, characterize, fragmentation_from_node_blocks
from repro.generators import complete_graph, grid_graph, two_cluster_dumbbell
from repro.graph import DiGraph


def _paper_figure5_graph() -> DiGraph:
    """The 6x6 adjacency matrix of Fig. 5 as a graph.

    Reconstructed from the worked example in the text: grouping nodes 1-3
    leaves 2 connections to the outside, both with node 5; grouping nodes 1-4
    leaves 3 connections, with nodes 5 and 6.  The adjacencies (1,2), (1,5),
    (2,3), (2,5), (4,6), (5,6) reproduce exactly those counts.
    """
    graph = DiGraph()
    for a, b in [(1, 2), (1, 5), (2, 3), (2, 5), (4, 6), (5, 6)]:
        graph.add_symmetric_edge(a, b)
    return graph


class TestConfiguration:
    def test_rejects_nonpositive_fragment_count(self):
        with pytest.raises(FragmenterConfigurationError):
            BondEnergyFragmenter(0)

    def test_rejects_unknown_split_policy(self):
        with pytest.raises(FragmenterConfigurationError):
            BondEnergyFragmenter(2, split_policy="global_optimum")

    def test_rejects_empty_graph(self):
        with pytest.raises(FragmenterConfigurationError):
            BondEnergyFragmenter(2).fragment(DiGraph(nodes=["a"]))


class TestOrdering:
    def test_ordering_is_a_permutation_of_the_nodes(self):
        graph = grid_graph(4, 4)
        ordering = BondEnergyFragmenter(2).order_columns(graph)
        assert sorted(ordering, key=repr) == sorted(graph.nodes(), key=repr)

    def test_ordering_places_cliques_contiguously(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=1)
        ordering = BondEnergyFragmenter(2).order_columns(graph)
        positions = {node: index for index, node in enumerate(ordering)}
        left_positions = sorted(positions[node] for node in range(5))
        right_positions = sorted(positions[node] for node in range(5, 10))
        # Each clique occupies a contiguous run of columns.
        assert left_positions == list(range(left_positions[0], left_positions[0] + 5))
        assert right_positions == list(range(right_positions[0], right_positions[0] + 5))

    def test_two_node_graph_ordering(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        assert sorted(BondEnergyFragmenter(1).order_columns(graph)) == ["a", "b"]

    def test_exhaustive_restarts_allowed(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        fragmenter = BondEnergyFragmenter(2, restarts=None)
        ordering = fragmenter.order_columns(graph)
        assert len(ordering) == graph.node_count()


class TestPaperFigure5:
    def test_splitting_prefers_the_small_cut(self):
        graph = _paper_figure5_graph()
        fragmenter = BondEnergyFragmenter(2)  # derived threshold: half the average degree, 2
        fragmentation = fragmenter.fragment(graph)
        fragmentation.validate()
        characteristics = characterize(fragmentation, include_diameter=False)
        # The preferred split keeps the disconnection set at the 1-2 shared
        # border nodes of the small cut, never the 3-node cut.
        assert characteristics.average_disconnection_set_size <= 2.0


class TestDerivedThreshold:
    @pytest.mark.parametrize(
        "graph, threshold",
        [(_paper_figure5_graph(), 2), (complete_graph(7), 3), (complete_graph(9), 4)],
        ids=["figure5", "complete7", "complete9"],
    )
    def test_half_the_average_degree_and_at_least_two(self, graph, threshold):
        assert BondEnergyFragmenter(2)._derive_threshold(graph) == threshold


class TestFragmentation:
    def test_dumbbell_yields_minimal_disconnection_set(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=1)
        fragmentation = BondEnergyFragmenter(2).fragment(graph)
        fragmentation.validate()
        characteristics = characterize(fragmentation, include_diameter=False)
        assert characteristics.fragment_count == 2
        assert characteristics.average_disconnection_set_size <= 1.0

    def test_grid_fragmentation_covers_all_edges(self):
        graph = grid_graph(5, 5)
        fragmentation = BondEnergyFragmenter(3).fragment(graph)
        fragmentation.validate()

    def test_fragments_are_the_node_blocks_of_the_split_ordering(self):
        graph = two_cluster_dumbbell(3)
        fragmenter = BondEnergyFragmenter(2)
        ordering = fragmenter.order_columns(graph)
        blocks = fragmenter.split_ordering(graph, ordering)
        assert [node for block in blocks for node in block] == ordering
        expected = fragmentation_from_node_blocks(graph, blocks, algorithm=fragmenter.name)
        assert fragmenter.fragment(graph).fragments == expected.fragments

    def test_derived_block_size(self):
        graph = grid_graph(4, 6)  # 24 columns, 3 fragments: blocks of at least 4
        fragmentation = BondEnergyFragmenter(3).fragment(graph)
        fragmentation.validate()
        assert all(fragment.node_count() >= 3 for fragment in fragmentation.fragments)

    def test_local_minimum_policy(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        fragmentation = BondEnergyFragmenter(2, split_policy="local_minimum").fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() <= 2

    def test_requested_fragment_count_is_an_upper_bound(self):
        graph = grid_graph(4, 4)
        fragmentation = BondEnergyFragmenter(3).fragment(graph)
        assert fragmentation.fragment_count() <= 3
