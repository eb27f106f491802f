"""Linear fragmentation (Sec. 3.3 and Fig. 7 of the paper).

This algorithm guarantees an *acyclic* (loosely connected) fragmentation
graph.  It assumes every node carries a coordinate pair and sweeps the graph
from one extreme end to the other:

1. The start node is the node with the smallest x-coordinate (or, in
   general, the extreme node along a configurable sweep direction; Fig. 8
   illustrates that the choice of the sweep direction matters).  The paper's
   ``s`` is the constant :data:`START_NODE_COUNT` (1).
2. The current fragment repeatedly absorbs every edge incident to its frontier
   nodes until the fragment holds at least ``|E| / f`` edges.
3. The frontier nodes at that point become the disconnection set to the next
   fragment and the sweep continues from them.

Because every edge reachable from the frontier is absorbed before a cut is
made, each fragment is only adjacent to its predecessor and successor in the
sweep, so the fragmentation graph is a simple path (acyclic).  The price is
that the disconnection sets may become large and the fragment sizes
unbalanced, exactly the trade-off Tables 1 and 3 show.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Set, Tuple

from ..exceptions import FragmenterConfigurationError, MissingCoordinatesError
from ..graph import DiGraph
from .base import Edge, Fragmentation
from .protocols import Fragmenter

Node = Hashable

SWEEP_LEFT_TO_RIGHT = "left_to_right"
SWEEP_RIGHT_TO_LEFT = "right_to_left"
SWEEP_BOTTOM_TO_TOP = "bottom_to_top"
SWEEP_TOP_TO_BOTTOM = "top_to_bottom"

# How many extreme nodes seed the first fragment (the paper's ``s``).
START_NODE_COUNT = 1

_SWEEP_KEYS = {
    SWEEP_LEFT_TO_RIGHT: lambda point: point.x,
    SWEEP_RIGHT_TO_LEFT: lambda point: -point.x,
    SWEEP_BOTTOM_TO_TOP: lambda point: point.y,
    SWEEP_TOP_TO_BOTTOM: lambda point: -point.y,
}


class LinearFragmenter(Fragmenter):
    """The linear fragmentation algorithm.

    Args:
        fragment_count: the number of fragments ``f``; the edge threshold per
            fragment is ``|E| / f``.
        sweep: sweep direction (default left to right, the paper's choice of
            "starting at the leftmost side").
    """

    name = "linear"

    def __init__(
        self,
        fragment_count: int,
        *,
        sweep: str = SWEEP_LEFT_TO_RIGHT,
    ) -> None:
        if fragment_count <= 0:
            raise FragmenterConfigurationError("fragment_count must be positive")
        if sweep not in _SWEEP_KEYS:
            raise FragmenterConfigurationError(f"unknown sweep direction {sweep!r}")
        self.fragment_count = fragment_count
        self.sweep = sweep

    # ------------------------------------------------------------------ API

    def fragment(self, graph: DiGraph) -> Fragmentation:
        """Fragment ``graph`` with a coordinate sweep (Fig. 7)."""
        if graph.edge_count() == 0:
            raise FragmenterConfigurationError("cannot fragment a graph with no edges")
        start_nodes = self._select_start_nodes(graph)
        threshold = self._edge_threshold(graph)
        fragment_edges = self._sweep(graph, start_nodes, threshold)
        populated = [edges for edges in fragment_edges if edges]
        return Fragmentation(graph, populated, algorithm=self.name)

    def _edge_threshold(self, graph: DiGraph) -> int:
        """Return the per-fragment edge threshold ``|E| / f`` (undirected count)."""
        return max(1, graph.undirected_edge_count() // self.fragment_count)

    def _select_start_nodes(self, graph: DiGraph) -> List[Node]:
        if not graph.has_coordinates():
            raise MissingCoordinatesError("linear fragmentation needs node coordinates")
        key = _SWEEP_KEYS[self.sweep]
        coordinates = graph.coordinates()
        ordered = sorted(coordinates, key=lambda node: (key(coordinates[node]), repr(node)))
        return ordered[:START_NODE_COUNT]

    # ---------------------------------------------------------------- sweep

    def _sweep(
        self,
        graph: DiGraph,
        start_nodes: Sequence[Node],
        threshold: int,
    ) -> List[Set[Edge]]:
        """Run the sweep of Fig. 7; return the per-fragment edge sets."""
        unassigned: Set[Edge] = set(graph.edges())
        frontier: Set[Node] = set(start_nodes)
        fragment_edges: List[Set[Edge]] = []

        while unassigned:
            current_edges: Set[Edge] = set()
            current_undirected: Set[Tuple[Node, Node]] = set()
            current_nodes: Set[Node] = set(frontier)
            # The last of the f requested fragments absorbs the whole
            # remainder: integer rounding of the |E|/f threshold must not
            # spill leftover edges into fragments beyond the requested count.
            unbounded = len(fragment_edges) >= self.fragment_count - 1
            while (unbounded or len(current_undirected) < threshold) and unassigned:
                new_edges = {
                    edge
                    for edge in unassigned
                    if edge[0] in frontier or edge[1] in frontier
                }
                if not new_edges:
                    break
                next_frontier: Set[Node] = set()
                for source, target in new_edges:
                    for endpoint in (source, target):
                        if endpoint not in current_nodes:
                            next_frontier.add(endpoint)
                    current_undirected.add(
                        (source, target) if repr(source) <= repr(target) else (target, source)
                    )
                current_edges |= new_edges
                unassigned -= new_edges
                current_nodes |= next_frontier
                frontier = next_frontier
            if not current_edges:
                # The sweep is stuck (remaining edges unreachable from the
                # frontier, e.g. another weak component): restart from the
                # extreme unvisited node so every edge still gets assigned.
                frontier = self._restart_frontier(graph, unassigned)
                if not frontier:
                    break
                continue
            fragment_edges.append(current_edges)
            # The nodes on the boundary (current frontier) seed the next
            # fragment and form the disconnection set to it.
            if not frontier:
                frontier = self._restart_frontier(graph, unassigned)
        return fragment_edges

    def _restart_frontier(self, graph: DiGraph, unassigned: Set[Edge]) -> Set[Node]:
        """Pick a new frontier from the unassigned edges (disconnected remainder)."""
        if not unassigned:
            return set()
        nodes = {node for edge in unassigned for node in edge}
        if graph.has_coordinates():
            key = _SWEEP_KEYS[self.sweep]
            coordinates = graph.coordinates()
            best = min(nodes, key=lambda node: (key(coordinates[node]), repr(node)))
        else:
            best = min(nodes, key=repr)
        return {best}
