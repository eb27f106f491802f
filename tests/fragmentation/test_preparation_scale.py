"""Guards that keep the preparation path near-linear.

The work counts are the strict guard: they bound how often the scoring reads
a neighbour list and how many incident edges the growth looks at, so a loop
that is quadratic in the graph size fails here however fast the machine is.
The wall-clock budgets at ~10^4 nodes are generous on purpose.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import pytest

from repro.disconnection import FragmentSite
from repro.fragmentation import CenterBasedFragmenter
from repro.generators import grid_graph
from repro.graph import DiGraph, Point, status_scores

GRID_SIDE = 64  # 4 096 nodes
BALL_3 = 25  # nodes within 3 hops of an inner grid node


@pytest.fixture(scope="module")
def grid() -> DiGraph:
    return grid_graph(GRID_SIDE, GRID_SIDE)


def _counting(original):
    """Wrap ``original`` to tally its calls and the items its results hold."""
    tally = {"calls": 0, "items": 0}

    def counted(*args):
        result = original(*args)
        tally["calls"] += 1
        tally["items"] += len(result)
        return result

    return tally, counted


class TestWorkCounts:
    def test_scoring_reads_balls_not_the_whole_graph(self, grid, monkeypatch):
        tally, counted = _counting(DiGraph.neighbors)
        monkeypatch.setattr(DiGraph, "neighbors", counted)
        status_scores(grid)
        assert tally["calls"] <= 2 * grid.node_count() * BALL_3

    def test_growth_looks_at_each_edge_a_bounded_number_of_times(self, grid, monkeypatch):
        fragmenter = CenterBasedFragmenter(8, center_selection="distributed")
        centers = fragmenter.select_centers(grid, 8)
        tally, counted = _counting(CenterBasedFragmenter._incident_edges)
        monkeypatch.setattr(CenterBasedFragmenter, "_incident_edges", staticmethod(counted))
        layout = fragmenter._grow_fragments(grid, centers)
        assert sum(len(edges) for edges in layout) == grid.edge_count()
        assert tally["items"] <= 4 * grid.edge_count()
        assert tally["calls"] <= 2 * grid.node_count()


def _ring_of_clusters(clusters: int, rows: int, columns: int, seed: int = 5) -> DiGraph:
    """``clusters`` symmetric grids on a circle, neighbours joined by two edges.

    A third of the cells get a diagonal, so center scores differ from node to
    node and the candidate pool spreads over every cluster (on a plain grid
    all inner nodes tie and the pool collapses into the lowest ``repr``s).
    """
    rng = random.Random(seed)
    graph = DiGraph()
    size = rows * columns
    for cluster in range(clusters):
        angle = 2 * math.pi * cluster / clusters
        origin_x = 4 * columns * math.cos(angle)
        origin_y = 4 * rows * math.sin(angle)
        base = cluster * size
        for row in range(rows):
            for column in range(columns):
                node = base + row * columns + column
                graph.set_coordinate(node, Point(origin_x + column, origin_y + row))
                if column:
                    graph.add_symmetric_edge(node - 1, node, 1.0)
                if row:
                    graph.add_symmetric_edge(node - columns, node, 1.0)
                if row and column and rng.random() < 1 / 3:
                    graph.add_symmetric_edge(node - columns - 1, node, 1.4)
    for cluster in range(clusters):
        base, following = cluster * size, ((cluster + 1) % clusters) * size
        graph.add_symmetric_edge(base + size - 1, following, 3.0)
        graph.add_symmetric_edge(base + size - columns, following + columns - 1, 3.0)
    return graph


class TestServingScaleBudget:
    def test_fragmenter_and_site_warm_finish_at_ten_thousand_nodes(self):
        graph = _ring_of_clusters(16, 24, 25)
        assert graph.node_count() == 9_600
        started = perf_counter()
        fragmentation = CenterBasedFragmenter(16, center_selection="distributed").fragment(graph)
        fragment_seconds = perf_counter() - started
        sites = [
            FragmentSite(
                fragment_id=fragment.fragment_id,
                subgraph=fragmentation.fragment_subgraph(fragment.fragment_id),
                border_nodes=fragmentation.border_nodes(fragment.fragment_id),
            )
            for fragment in fragmentation.fragments
        ]
        started = perf_counter()
        iterations = [site.local_iterations() for site in sites]
        warm_seconds = perf_counter() - started
        assert fragmentation.fragment_count() == 16
        assert min(iterations) > 10
        assert fragment_seconds < 2.0, f"fragmenter took {fragment_seconds:.2f} s at 9 600 nodes"
        assert warm_seconds < 1.0, f"local_iterations() took {warm_seconds:.2f} s over 16 sites"
