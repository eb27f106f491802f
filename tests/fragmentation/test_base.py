"""Unit tests for the Fragment / Fragmentation value objects."""

import pytest

from repro.exceptions import FragmentationError, InvalidFragmentationError
from repro.fragmentation import Fragment, Fragmentation, fragmentation_from_node_blocks
from repro.generators import two_cluster_dumbbell
from repro.graph import DiGraph


@pytest.fixture
def bridge_graph() -> DiGraph:
    """Two symmetric triangles {a,b,c} and {d,e,f} joined by c-d."""
    graph = DiGraph()
    for x, y in [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]:
        graph.add_symmetric_edge(x, y, 1.0)
    return graph


@pytest.fixture
def bridge_fragmentation(bridge_graph) -> Fragmentation:
    left_edges = [e for e in bridge_graph.edges() if set(e) <= {"a", "b", "c", "d"} and "d" not in e or e in (("c", "d"), ("d", "c"))]
    left = [e for e in bridge_graph.edges() if set(e) <= {"a", "b", "c"}] + [("c", "d"), ("d", "c")]
    right = [e for e in bridge_graph.edges() if set(e) <= {"d", "e", "f"}]
    return Fragmentation(bridge_graph, [left, right], algorithm="manual")


class TestFragment:
    def test_nodes_derived_from_edges(self):
        fragment = Fragment(0, frozenset({("a", "b"), ("b", "c")}))
        assert fragment.nodes == {"a", "b", "c"}
        assert fragment.node_count() == 3
        assert fragment.edge_count() == 2

    def test_undirected_edge_count(self):
        fragment = Fragment(0, frozenset({("a", "b"), ("b", "a"), ("b", "c")}))
        assert fragment.undirected_edge_count() == 2

    def test_subgraph_takes_weights_from_base(self, bridge_graph):
        fragment = Fragment(0, frozenset({("a", "b")}))
        sub = fragment.subgraph(bridge_graph)
        assert sub.edge_weight("a", "b") == 1.0


class TestFragmentation:
    def test_requires_at_least_one_fragment(self, bridge_graph):
        with pytest.raises(FragmentationError):
            Fragmentation(bridge_graph, [])

    def test_disconnection_set_is_node_intersection(self, bridge_fragmentation):
        assert bridge_fragmentation.disconnection_set(0, 1) == frozenset({"d"})
        assert bridge_fragmentation.disconnection_set(1, 0) == frozenset({"d"})

    def test_adjacent_fragments(self, bridge_fragmentation):
        assert bridge_fragmentation.adjacent_fragments(0) == [1]
        assert bridge_fragmentation.adjacent_fragments(1) == [0]

    def test_border_nodes(self, bridge_fragmentation):
        assert bridge_fragmentation.border_nodes(0) == frozenset({"d"})

    def test_fragments_of_node(self, bridge_fragmentation):
        assert bridge_fragmentation.fragments_of_node("d") == [0, 1]
        assert bridge_fragmentation.fragments_of_node("a") == [0]

    def test_edge_fragment(self, bridge_fragmentation):
        assert bridge_fragmentation.edge_fragment("a", "b") == 0
        assert bridge_fragmentation.edge_fragment("e", "f") == 1
        with pytest.raises(FragmentationError):
            bridge_fragmentation.edge_fragment("a", "f")

    def test_fragment_id_out_of_range(self, bridge_fragmentation):
        with pytest.raises(FragmentationError):
            bridge_fragmentation.fragment(7)

    def test_sizes(self, bridge_fragmentation):
        assert bridge_fragmentation.fragment_sizes() == [4, 3]
        assert bridge_fragmentation.disconnection_set_sizes() == [1]

    def test_validate_accepts_well_formed(self, bridge_fragmentation):
        bridge_fragmentation.validate()

    def test_validate_rejects_missing_edges(self, bridge_graph):
        partial = Fragmentation(bridge_graph, [[("a", "b"), ("b", "a")]])
        with pytest.raises(InvalidFragmentationError):
            partial.validate()

    def test_validate_rejects_duplicate_assignment(self, bridge_graph):
        all_edges = bridge_graph.edges()
        duplicated = Fragmentation(bridge_graph, [all_edges, [all_edges[0]]])
        with pytest.raises(InvalidFragmentationError):
            duplicated.validate()

    def test_validate_rejects_foreign_edges(self, bridge_graph):
        foreign = Fragmentation(bridge_graph, [bridge_graph.edges() + [("x", "y")]])
        with pytest.raises(InvalidFragmentationError):
            foreign.validate()


class TestOwnerIndexes:
    """The cached node set and the owner indexes answer exactly what a scan would."""

    def test_node_set_is_built_once_and_leaves_value_semantics_alone(self):
        fragment = Fragment(0, frozenset({("a", "b"), ("b", "c")}))
        twin = Fragment(0, frozenset({("a", "b"), ("b", "c")}))
        assert fragment.nodes is fragment.nodes
        assert fragment == twin and hash(fragment) == hash(twin)

    def test_returned_owner_list_is_a_copy(self, bridge_fragmentation):
        bridge_fragmentation.fragments_of_node("d").append(99)
        assert bridge_fragmentation.fragments_of_node("d") == [0, 1]
        assert bridge_fragmentation.fragments_of_node("ghost") == []

    def test_doubly_assigned_edge_resolves_to_the_lowest_fragment(self, bridge_graph):
        all_edges = bridge_graph.edges()
        duplicated = Fragmentation(bridge_graph, [[all_edges[3]], all_edges, [all_edges[3]]])
        assert duplicated.edge_fragment(*all_edges[3]) == 0
        assert duplicated.edge_fragment(*all_edges[0]) == 1

    def test_indexes_match_a_scan_over_the_fragments(self):
        graph = two_cluster_dumbbell(5, bridge_nodes=2)
        edges = graph.edges()
        fragmentation = Fragmentation(graph, [edges[0::3], edges[1::3], edges[2::3]])
        for node in graph.nodes() + ["ghost"]:
            scanned = [f.fragment_id for f in fragmentation.fragments if node in f.nodes]
            assert fragmentation.fragments_of_node(node) == scanned
        for source, target in edges:
            (owner,) = [f.fragment_id for f in fragmentation.fragments if (source, target) in f.edges]
            assert fragmentation.edge_fragment(source, target) == owner


class TestNodeBlockFragmentation:
    def test_blocks_become_fragments_with_shared_border(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        blocks = [set(range(4)), set(range(4, 8))]
        fragmentation = fragmentation_from_node_blocks(graph, blocks, algorithm="blocks")
        fragmentation.validate()
        assert fragmentation.fragment_count() == 2
        # The bridge edge (0, 4) went to fragment 0, so node 4 is shared.
        assert fragmentation.disconnection_set(0, 1)

    def test_duplicate_block_membership_raises(self):
        graph = two_cluster_dumbbell(3)
        with pytest.raises(FragmentationError):
            fragmentation_from_node_blocks(graph, [{0, 1, 2}, {2, 3, 4, 5}])

    def test_uncovered_node_raises(self):
        graph = two_cluster_dumbbell(3)
        with pytest.raises(FragmentationError):
            fragmentation_from_node_blocks(graph, [{0, 1, 2}])
