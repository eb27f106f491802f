"""Unit tests for the linear fragmentation algorithm (Sec. 3.3 / Fig. 7)."""

import pytest

from repro.exceptions import FragmenterConfigurationError, MissingCoordinatesError
from repro.fragmentation import FragmentationGraph, LinearFragmenter, characterize
from repro.generators import grid_graph, two_cluster_dumbbell
from repro.graph import DiGraph


class TestConfiguration:
    def test_rejects_nonpositive_fragment_count(self):
        with pytest.raises(FragmenterConfigurationError):
            LinearFragmenter(0)

    def test_rejects_unknown_sweep(self):
        with pytest.raises(FragmenterConfigurationError):
            LinearFragmenter(2, sweep="diagonal")

    def test_requires_coordinates(self):
        graph = DiGraph()
        graph.add_symmetric_edge("a", "b")
        with pytest.raises(MissingCoordinatesError):
            LinearFragmenter(2).fragment(graph)

    def test_rejects_empty_graph(self):
        with pytest.raises(FragmenterConfigurationError):
            LinearFragmenter(2).fragment(DiGraph(nodes=["a"]))


class TestAcyclicity:
    """The linear fragmentation's defining guarantee: G' has no cycles."""

    @pytest.mark.parametrize("rows,columns,fragments", [(4, 8, 2), (5, 10, 3), (6, 6, 4)])
    def test_grid_fragmentations_are_loosely_connected(self, rows, columns, fragments):
        fragmentation = LinearFragmenter(fragments).fragment(grid_graph(rows, columns))
        fragmentation.validate()
        assert FragmentationGraph(fragmentation).is_loosely_connected()

    def test_dumbbell_fragmentation_is_loosely_connected(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=2)
        fragmentation = LinearFragmenter(2).fragment(graph)
        fragmentation.validate()
        assert FragmentationGraph(fragmentation).is_loosely_connected()

    def test_consecutive_fragments_only(self):
        # Fragments produced by the sweep should only overlap their sweep
        # neighbours (fragmentation graph is a path).
        fragmentation = LinearFragmenter(4).fragment(grid_graph(4, 12))
        fg = FragmentationGraph(fragmentation)
        for i, j in fg.edges():
            assert abs(i - j) == 1


class TestThresholdAndSizes:
    def test_threshold_is_edge_count_over_fragments(self):
        graph = grid_graph(4, 6)
        fragmenter = LinearFragmenter(3)
        assert fragmenter._edge_threshold(graph) == graph.undirected_edge_count() // 3

    def test_fragment_sizes_at_least_threshold_except_last(self):
        graph = grid_graph(5, 12)
        fragmenter = LinearFragmenter(4)
        fragmentation = fragmenter.fragment(graph)
        threshold = fragmenter._edge_threshold(graph)
        sizes = fragmentation.fragment_sizes()
        assert all(size >= threshold for size in sizes[:-1])

    def test_covers_every_edge(self):
        graph = grid_graph(6, 6)
        fragmentation = LinearFragmenter(3).fragment(graph)
        fragmentation.validate()
        assert sum(f.edge_count() for f in fragmentation.fragments) == graph.edge_count()

    def test_single_fragment(self):
        graph = grid_graph(3, 3)
        fragmentation = LinearFragmenter(1).fragment(graph)
        assert fragmentation.fragment_count() == 1

    def test_handles_disconnected_graph(self):
        graph = grid_graph(3, 3)
        graph.add_symmetric_edge("islandA", "islandB")
        graph.set_coordinate("islandA", (50.0, 50.0))
        graph.set_coordinate("islandB", (51.0, 50.0))
        fragmentation = LinearFragmenter(2).fragment(graph)
        fragmentation.validate()


class TestStartNodesAndSweeps:
    def test_one_start_node_with_the_smallest_x(self):
        graph = grid_graph(3, 5)
        start = LinearFragmenter(2)._select_start_nodes(graph)
        assert len(start) == 1
        assert graph.coordinate(start[0]).x == 0.0

    def test_sweep_direction_changes_start_nodes(self):
        graph = grid_graph(3, 5)
        left = LinearFragmenter(2, sweep="left_to_right")._select_start_nodes(graph)
        right = LinearFragmenter(2, sweep="right_to_left")._select_start_nodes(graph)
        assert graph.coordinate(left[0]).x == 0.0
        assert graph.coordinate(right[0]).x == 4.0

    def test_fig8_start_choice_affects_disconnection_sets(self):
        # An elongated grid: sweeping along the long axis crosses a narrow
        # boundary (small DS); sweeping along the short axis cuts across the
        # wide side (large DS) - the intuition of Fig. 8.
        graph = grid_graph(3, 12)
        along = LinearFragmenter(3, sweep="left_to_right").fragment(graph)
        across = LinearFragmenter(3, sweep="bottom_to_top").fragment(graph)
        ds_along = characterize(along, include_diameter=False).average_disconnection_set_size
        ds_across = characterize(across, include_diameter=False).average_disconnection_set_size
        assert ds_along <= ds_across
