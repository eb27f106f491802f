"""The near-linear preparation path against the quadratic loops it replaced.

Radius-bounded scoring, frontier growth, running-minimum center spreading and
the bit-parallel diameter may only change how fast the preparation runs: the
scores (``==`` on floats), the ranking, the chosen centers, the fragment edge
sets and every diameter must be the ones the reference loops in
``tests/preparation_oracles.py`` produce.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure import bitset_diameter
from repro.disconnection import FragmentedDatabase
from repro.fragmentation import CenterBasedFragmenter, GroundTruthFragmenter
from repro.generators import chain_graph, grid_graph, two_cluster_dumbbell
from repro.graph import (
    DiGraph,
    hop_diameter,
    rank_by_status,
    spread_out_selection,
    status_scores,
)
from tests.preparation_oracles import (
    center_based_layout_by_rescan,
    hop_diameter_by_bfs,
    random_digraph,
    rank_by_full_bfs,
    spread_out_by_rescan,
    status_scores_by_full_bfs,
)

SETTINGS = settings(max_examples=120, deadline=None)

graph_shapes = st.tuples(
    st.integers(0, 10_000),  # seed
    st.integers(0, 24),  # nodes
    st.integers(0, 60),  # edge draws
    st.sampled_from([0.0, 0.5, 1.0]),  # share of symmetric edges
)


# ------------------------------------------------------------------ diameter


class TestBitParallelDiameter:
    @SETTINGS
    @given(shape=graph_shapes)
    def test_matches_per_node_bfs(self, shape):
        seed, nodes, edges, symmetric_share = shape
        graph = random_digraph(seed, nodes, edges, symmetric_share=symmetric_share)
        assert hop_diameter(graph) == hop_diameter_by_bfs(graph)

    def test_empty_single_node_and_edgeless(self):
        assert hop_diameter(DiGraph()) == 0
        assert hop_diameter(DiGraph(nodes=["only"])) == 0
        assert hop_diameter(DiGraph(nodes=range(5))) == 0
        assert bitset_diameter([]) == 0

    def test_edges_count_in_both_directions(self):
        one_way = chain_graph(6, symmetric=False)
        assert hop_diameter(one_way) == 5
        fan_in = DiGraph([(1, 0), (2, 0), (3, 0)])
        assert hop_diameter(fan_in) == 2  # leaf to leaf through the hub

    def test_disconnected_components_report_the_longest(self):
        graph = chain_graph(4)  # diameter 3
        for a, b in [(10, 11), (11, 12), (12, 13), (13, 14), (14, 15)]:  # diameter 5
            graph.add_symmetric_edge(a, b)
        graph.add_node("isolated")
        assert hop_diameter(graph) == 5

    def test_kernel_takes_plain_id_rows(self):
        # 0 -> 1 -> 2 -> 3 and a self loop, which must not count as a hop.
        assert bitset_diameter([[1], [2], [3], [3]]) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_site_estimate_survives_incremental_updates(self, seed):
        """``local_iterations()`` stays ``hop_diameter(plain subgraph) + 1`` after ``apply_update``."""
        rng = random.Random(seed)
        graph = two_cluster_dumbbell(6, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(6)), set(range(6, 12))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        database.engine()
        for _ in range(12):
            if rng.random() < 0.5:
                source, target = rng.choice(database.graph.edges())
                if database.graph.edge_count() > 20:
                    database.delete_edge(source, target)
            else:
                a, b = rng.sample(range(14), 2)
                database.insert_edge(a, b, float(rng.randint(1, 9)))
            for site in database.engine().catalog.sites():
                assert site.local_iterations() == hop_diameter_by_bfs(site.subgraph) + 1
        assert database.statistics.incremental_updates > 0


# ------------------------------------------------------------------- scoring


class TestRadiusBoundedScoring:
    @SETTINGS
    @given(shape=graph_shapes)
    def test_scores_and_ranking_are_bit_identical(self, shape):
        seed, nodes, edges, symmetric_share = shape
        graph = random_digraph(seed, nodes, edges, symmetric_share=symmetric_share)
        expected = status_scores_by_full_bfs(graph)
        scores = status_scores(graph)
        assert scores == expected
        assert list(scores) == list(expected)
        assert rank_by_status(graph) == rank_by_full_bfs(graph)

    def test_grid_scores_match_on_a_graph_wider_than_the_radius(self):
        graph = grid_graph(9, 11)
        assert status_scores(graph) == status_scores_by_full_bfs(graph)


# ------------------------------------------------------- selection and growth


class TestSpreadOutSelection:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), pool=st.integers(1, 30), count=st.integers(1, 12))
    def test_running_minimum_picks_the_same_centers(self, seed, pool, count):
        graph = random_digraph(seed, pool, 0, coordinates=True)
        candidates = graph.nodes()
        random.Random(seed).shuffle(candidates)
        assert spread_out_selection(graph.coordinates(), candidates, count) == spread_out_by_rescan(
            graph.coordinates(), candidates, count
        )


def _graph_with_unreachable_component() -> DiGraph:
    """A grid the centers sit in, plus two components no center reaches."""
    graph = grid_graph(6, 7)
    for a, b in [(100, 101), (101, 102), (102, 100), (102, 103)]:
        graph.add_symmetric_edge(a, b)
    graph.add_edge(200, 201)
    graph.add_edge(202, 201)
    return graph


LAYOUT_GRAPHS = {
    "grid": lambda: grid_graph(7, 9),
    "unreachable-component": _graph_with_unreachable_component,
    "random-with-coordinates": lambda: random_digraph(3, 40, 90, coordinates=True),
    "random-no-coordinates": lambda: random_digraph(4, 40, 90),
    "directed-sparse": lambda: random_digraph(5, 30, 35, symmetric_share=0.0),
}


class TestCenterBasedLayout:
    @pytest.mark.parametrize("graph_name", sorted(LAYOUT_GRAPHS))
    @pytest.mark.parametrize("center_selection", ["random", "distributed"])
    def test_same_centers_and_fragments(self, graph_name, center_selection):
        graph = LAYOUT_GRAPHS[graph_name]()
        if graph_name == "unreachable-component":
            # Coordinates only on the grid: "distributed" takes the hop-distance spread.
            assert not graph.has_coordinates()
        fragmenter = CenterBasedFragmenter(4, center_selection=center_selection, seed=7)
        fragmentation = fragmenter.fragment(graph)
        centers, layout = center_based_layout_by_rescan(fragmenter, graph)
        center_count = min(fragmenter.fragment_count, graph.node_count())
        assert fragmenter.select_centers(graph, center_count) == centers
        assert [set(fragment.edges) for fragment in fragmentation.fragments] == layout
        fragmentation.validate()

    @SETTINGS
    @given(
        shape=graph_shapes,
        count=st.integers(1, 6),
        center_selection=st.sampled_from(["random", "distributed"]),
        coordinates=st.booleans(),
    )
    def test_same_layout_on_random_graphs(self, shape, count, center_selection, coordinates):
        seed, nodes, edges, symmetric_share = shape
        graph = random_digraph(
            seed, nodes, edges, symmetric_share=symmetric_share, coordinates=coordinates
        )
        if graph.edge_count() == 0:
            return
        fragmenter = CenterBasedFragmenter(count, center_selection=center_selection, seed=seed)
        fragmentation = fragmenter.fragment(graph)
        centers, layout = center_based_layout_by_rescan(fragmenter, graph)
        center_count = min(fragmenter.fragment_count, graph.node_count())
        assert fragmenter.select_centers(graph, center_count) == centers
        assert [set(fragment.edges) for fragment in fragmentation.fragments] == layout
