"""Unit tests for the center-based fragmentation algorithm (Sec. 3.1 / Fig. 4)."""

import pytest

from repro.exceptions import FragmenterConfigurationError
from repro.fragmentation import CenterBasedFragmenter, characterize
from repro.generators import chain_graph, grid_graph, two_cluster_dumbbell
from repro.graph import DiGraph


class TestConfiguration:
    def test_rejects_nonpositive_fragment_count(self):
        with pytest.raises(FragmenterConfigurationError):
            CenterBasedFragmenter(0)

    def test_rejects_unknown_center_selection(self):
        with pytest.raises(FragmenterConfigurationError):
            CenterBasedFragmenter(2, center_selection="psychic")

    def test_rejects_the_top_score_selection(self):
        # Only the paper's two variants remain: random and distributed centers.
        with pytest.raises(FragmenterConfigurationError):
            CenterBasedFragmenter(2, center_selection="top_score")

    def test_rejects_empty_graph(self):
        with pytest.raises(FragmenterConfigurationError):
            CenterBasedFragmenter(2).fragment(DiGraph(nodes=["a"]))

    def test_distributed_variant_changes_name(self):
        assert CenterBasedFragmenter(2, center_selection="distributed").name == "center-based-distributed"
        assert CenterBasedFragmenter(2, center_selection="random").name == "center-based"


class TestBasicBehaviour:
    def test_produces_requested_fragment_count_on_grid(self):
        fragmentation = CenterBasedFragmenter(4, center_selection="distributed").fragment(grid_graph(6, 6))
        fragmentation.validate()
        assert fragmentation.fragment_count() == 4

    def test_covers_every_edge_exactly_once(self):
        graph = grid_graph(5, 5)
        fragmentation = CenterBasedFragmenter(3).fragment(graph)
        fragmentation.validate()
        total = sum(fragment.edge_count() for fragment in fragmentation.fragments)
        assert total == graph.edge_count()

    def test_dumbbell_splits_along_the_bridge(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=1)
        fragmentation = CenterBasedFragmenter(2, center_selection="distributed").fragment(graph)
        fragmentation.validate()
        characteristics = characterize(fragmentation)
        assert characteristics.fragment_count == 2
        # The single bridge should produce a small disconnection set.
        assert characteristics.average_disconnection_set_size <= 2.0

    def test_single_fragment_collapses_to_whole_graph(self):
        graph = grid_graph(3, 3)
        fragmentation = CenterBasedFragmenter(1).fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() == 1
        assert fragmentation.fragment(0).edge_count() == graph.edge_count()

    def test_more_fragments_than_nodes_is_clamped(self):
        graph = chain_graph(3)
        fragmentation = CenterBasedFragmenter(10).fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() <= 3

    def test_handles_disconnected_graph(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        graph.add_symmetric_edge("x", "y")
        graph.add_symmetric_edge("y", "z")
        fragmentation = CenterBasedFragmenter(2).fragment(graph)
        fragmentation.validate()

    def test_selects_one_center_per_fragment(self):
        graph = grid_graph(4, 4)
        centers = CenterBasedFragmenter(2, center_selection="distributed").select_centers(graph, 2)
        assert len(centers) == 2
        assert all(graph.has_node(center) for center in centers)


class TestVariants:
    def test_both_selections_cover_graph(self):
        graph = grid_graph(5, 6)
        for selection in ("random", "distributed"):
            fragmentation = CenterBasedFragmenter(3, center_selection=selection).fragment(graph)
            fragmentation.validate()

    def test_random_selection_is_seed_deterministic(self):
        graph = grid_graph(5, 5)
        first = CenterBasedFragmenter(3, center_selection="random", seed=7).fragment(graph)
        second = CenterBasedFragmenter(3, center_selection="random", seed=7).fragment(graph)
        assert first.fragments == second.fragments

    def test_distributed_selection_without_coordinates_falls_back(self):
        graph = DiGraph()
        for x, y in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]:
            graph.add_symmetric_edge(x, y)
        fragmentation = CenterBasedFragmenter(2, center_selection="distributed").fragment(graph)
        fragmentation.validate()
        assert fragmentation.fragment_count() == 2

    def test_distributed_centers_are_far_apart_on_dumbbell(self):
        graph = two_cluster_dumbbell(6, bridge_nodes=1)
        centers = CenterBasedFragmenter(2, center_selection="distributed").select_centers(graph, 2)
        sides = {0 if center < 6 else 1 for center in centers}
        assert sides == {0, 1}
