"""A weighted directed graph with optional node coordinates.

The paper models the base relation ``R`` as a directed graph where each tuple
is an edge, possibly with an associated weight (Sec. 2.1, footnote 1).  This
module provides that graph as a first-class object: adjacency is kept in both
directions so that fragmentation algorithms (which grow fragments by following
edges in either direction) and query evaluation (which follows edges forward)
are both efficient.

Transportation networks are usually traversable in both directions, so the
generators in :mod:`repro.generators` produce symmetric edge sets; the data
structure itself is strictly directed and never assumes symmetry.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import EdgeNotFoundError, NodeNotFoundError
from .coordinates import Point

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, float]

DEFAULT_WEIGHT = 1.0


class DiGraph:
    """A directed graph with float edge weights and optional node coordinates.

    The graph is a mutable container.  Nodes may be any hashable value; edges
    are ordered pairs with a weight (defaulting to ``1.0``).  Re-adding an
    existing edge overwrites its weight.

    Adjacency is two dict-of-dict row tables, ``_successors`` and
    ``_predecessors``.  ``add_node`` / ``add_edge`` / ``remove_*`` mutate them
    one entry at a time; the constructor and the derivations (:meth:`copy`,
    :meth:`subgraph`, :meth:`edge_subgraph`) fill whole rows and produce
    exactly the node order, row order and weights the per-edge calls would.
    """

    def __init__(
        self,
        edges: Optional[Iterable[Edge | WeightedEdge]] = None,
        *,
        nodes: Optional[Iterable[Node]] = None,
        coordinates: Optional[Mapping[Node, Point | Tuple[float, float]]] = None,
    ) -> None:
        self._successors: Dict[Node, Dict[Node, float]] = {}
        self._predecessors: Dict[Node, Dict[Node, float]] = {}
        self._coordinates: Dict[Node, Point] = {}
        successors, predecessors = self._successors, self._predecessors
        if nodes is not None:
            for node in nodes:
                if node not in successors:
                    successors[node] = {}
                    predecessors[node] = {}
        if edges is not None:
            for edge in edges:
                if len(edge) == 3:
                    source, target, weight = edge  # type: ignore[misc]
                    weight = float(weight)
                else:
                    source, target = edge  # type: ignore[misc]
                    weight = DEFAULT_WEIGHT
                row = successors.get(source)
                if row is None:
                    row = successors[source] = {}
                    predecessors[source] = {}
                back = predecessors.get(target)
                if back is None:
                    successors[target] = {}
                    back = predecessors[target] = {}
                row[target] = weight
                back[source] = weight
        if coordinates is not None:
            for node, point in coordinates.items():
                if node not in successors:
                    successors[node] = {}
                    predecessors[node] = {}
                self._coordinates[node] = _as_point(point)

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph; a no-op if it is already present."""
        self._successors.setdefault(node, {})
        self._predecessors.setdefault(node, {})

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge.

        Raises:
            NodeNotFoundError: if the node is not in the graph.
        """
        if node not in self._successors:
            raise NodeNotFoundError(node)
        for target in list(self._successors[node]):
            del self._predecessors[target][node]
        for source in list(self._predecessors[node]):
            del self._successors[source][node]
        del self._successors[node]
        del self._predecessors[node]
        self._coordinates.pop(node, None)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._successors

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def nodes(self) -> List[Node]:
        """Return the nodes in insertion order."""
        return list(self._successors)

    def node_count(self) -> int:
        """Return the number of nodes."""
        return len(self._successors)

    def __len__(self) -> int:
        return self.node_count()

    def __iter__(self) -> Iterator[Node]:
        return iter(self._successors)

    # ------------------------------------------------------------------ edges

    def add_edge(self, source: Node, target: Node, weight: float = DEFAULT_WEIGHT) -> None:
        """Add the directed edge ``source -> target`` with ``weight``.

        Both endpoints are added to the graph if missing.  Adding an edge that
        already exists replaces its weight.
        """
        self.add_node(source)
        self.add_node(target)
        self._successors[source][target] = float(weight)
        self._predecessors[target][source] = float(weight)

    def add_symmetric_edge(self, a: Node, b: Node, weight: float = DEFAULT_WEIGHT) -> None:
        """Add both ``a -> b`` and ``b -> a`` with the same weight.

        Transportation networks (railways, roads) are traversable in both
        directions; the paper's example graphs are of this kind.
        """
        self.add_edge(a, b, weight)
        self.add_edge(b, a, weight)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the edge ``source -> target``.

        Raises:
            EdgeNotFoundError: if the edge is not in the graph.
        """
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        del self._successors[source][target]
        del self._predecessors[target][source]

    def has_edge(self, source: Node, target: Node) -> bool:
        """Return ``True`` if the directed edge ``source -> target`` exists."""
        return source in self._successors and target in self._successors[source]

    def edge_weight(self, source: Node, target: Node) -> float:
        """Return the weight of the edge ``source -> target``.

        Raises:
            EdgeNotFoundError: if the edge is not in the graph.
        """
        try:
            return self._successors[source][target]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def edges(self) -> List[Edge]:
        """Return every directed edge as a ``(source, target)`` pair."""
        return [(source, target) for source, targets in self._successors.items() for target in targets]

    def weighted_edges(self) -> List[WeightedEdge]:
        """Return every directed edge as a ``(source, target, weight)`` triple."""
        return [
            (source, target, weight)
            for source, targets in self._successors.items()
            for target, weight in targets.items()
        ]

    def edge_count(self) -> int:
        """Return the number of directed edges."""
        return sum(len(targets) for targets in self._successors.values())

    def undirected_edge_count(self) -> int:
        """Return the number of edges when each symmetric pair counts once.

        A pair ``{a, b}`` connected in both directions contributes 1; an edge
        present in only one direction also contributes 1.  This matches the
        paper's edge counts for (undirected) transportation graphs.
        """
        seen: Set[Tuple[Node, Node]] = set()
        count = 0
        for source, target in self.edges():
            key = (source, target) if repr(source) <= repr(target) else (target, source)
            if key not in seen:
                seen.add(key)
                count += 1
        return count

    # ------------------------------------------------------------- adjacency

    def successors(self, node: Node) -> List[Node]:
        """Return the direct successors of ``node``.

        Raises:
            NodeNotFoundError: if the node is not in the graph.
        """
        if node not in self._successors:
            raise NodeNotFoundError(node)
        return list(self._successors[node])

    def predecessors(self, node: Node) -> List[Node]:
        """Return the direct predecessors of ``node``.

        Raises:
            NodeNotFoundError: if the node is not in the graph.
        """
        if node not in self._predecessors:
            raise NodeNotFoundError(node)
        return list(self._predecessors[node])

    def neighbors(self, node: Node) -> List[Node]:
        """Return successors and predecessors of ``node`` (each node once)."""
        if node not in self._successors:
            raise NodeNotFoundError(node)
        merged: Dict[Node, None] = {}
        for target in self._successors[node]:
            merged[target] = None
        for source in self._predecessors[node]:
            merged[source] = None
        return list(merged)

    def out_degree(self, node: Node) -> int:
        """Return the number of outgoing edges of ``node``."""
        if node not in self._successors:
            raise NodeNotFoundError(node)
        return len(self._successors[node])

    def in_degree(self, node: Node) -> int:
        """Return the number of incoming edges of ``node``."""
        if node not in self._predecessors:
            raise NodeNotFoundError(node)
        return len(self._predecessors[node])

    def degree(self, node: Node) -> int:
        """Return the total degree (in + out) of ``node``.

        For a symmetric (bidirectional) graph this is twice the number of
        distinct neighbours; the paper's ``grade(i)`` (number of adjacent
        edges of an undirected node) corresponds to
        :meth:`undirected_degree`.
        """
        return self.out_degree(node) + self.in_degree(node)

    def undirected_degree(self, node: Node) -> int:
        """Return the number of distinct neighbours of ``node``."""
        return len(self.neighbors(node))

    def successor_items(self, node: Node) -> List[Tuple[Node, float]]:
        """Return ``(successor, weight)`` pairs for ``node``."""
        if node not in self._successors:
            raise NodeNotFoundError(node)
        return list(self._successors[node].items())

    def predecessor_items(self, node: Node) -> List[Tuple[Node, float]]:
        """Return ``(predecessor, weight)`` pairs for ``node``."""
        if node not in self._predecessors:
            raise NodeNotFoundError(node)
        return list(self._predecessors[node].items())

    # ----------------------------------------------------------- coordinates

    def set_coordinate(self, node: Node, point: Point | Tuple[float, float]) -> None:
        """Attach a planar coordinate to ``node`` (adding the node if needed)."""
        self.add_node(node)
        self._coordinates[node] = _as_point(point)

    def coordinate(self, node: Node) -> Optional[Point]:
        """Return the coordinate of ``node`` or ``None`` if it has none."""
        if node not in self._successors:
            raise NodeNotFoundError(node)
        return self._coordinates.get(node)

    def coordinates(self) -> Dict[Node, Point]:
        """Return a copy of the node-to-coordinate mapping."""
        return dict(self._coordinates)

    def has_coordinates(self) -> bool:
        """Return ``True`` if every node has a coordinate."""
        return bool(self._successors) and len(self._coordinates) == len(self._successors)

    # ----------------------------------------------------------- derivations

    def copy(self) -> "DiGraph":
        """Return an independent copy of the graph.

        Every adjacency row and the coordinate table are new dicts, so
        mutating either graph never shows in the other; the ``Point`` values
        are shared, being immutable.
        """
        clone = DiGraph()
        clone._successors = {node: dict(row) for node, row in self._successors.items()}
        clone._predecessors = _transposed(clone._successors)
        clone._coordinates = dict(self._coordinates)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the subgraph induced by ``nodes`` (coordinates preserved)."""
        keep = set(nodes)
        sub = DiGraph()
        sub._successors = {
            node: {target: weight for target, weight in row.items() if target in keep}
            for node, row in self._successors.items()
            if node in keep
        }
        sub._predecessors = _transposed(sub._successors)
        sub._coordinates = self._coordinates_of(sub._successors)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "DiGraph":
        """Return the subgraph containing exactly ``edges`` and their endpoints.

        Weights and coordinates are carried over from this graph.  Nodes are
        ordered by first appearance in ``edges`` (source before target), and
        every successor and predecessor row by the order ``edges`` lists its
        entries.

        Raises:
            EdgeNotFoundError: if one of ``edges`` is not in the graph.
        """
        rows = self._successors
        successors: Dict[Node, Dict[Node, float]] = {}
        predecessors: Dict[Node, Dict[Node, float]] = {}
        # The constructor's linking steps, spelled out again rather than
        # shared: every fragment subgraph pays this loop per edge, and a
        # helper call costs 20 % and a generator feeding the constructor 120 %.
        for source, target in edges:
            try:
                weight = rows[source][target]
            except KeyError:
                raise EdgeNotFoundError(source, target) from None
            row = successors.get(source)
            if row is None:
                row = successors[source] = {}
                predecessors[source] = {}
            back = predecessors.get(target)
            if back is None:
                successors[target] = {}
                back = predecessors[target] = {}
            row[target] = weight
            back[source] = weight
        sub = DiGraph()
        sub._successors = successors
        sub._predecessors = predecessors
        sub._coordinates = self._coordinates_of(successors)
        return sub

    def _coordinates_of(self, nodes: Iterable[Node]) -> Dict[Node, Point]:
        """Return this graph's coordinates of ``nodes``, in the order of ``nodes``."""
        coordinates = self._coordinates
        return {node: coordinates[node] for node in nodes if node in coordinates}

    def to_undirected_pairs(self) -> Set[Tuple[Node, Node]]:
        """Return the set of unordered adjacency pairs, canonicalised by ``repr``."""
        pairs: Set[Tuple[Node, Node]] = set()
        for source, target in self.edges():
            pairs.add((source, target) if repr(source) <= repr(target) else (target, source))
        return pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            set(self._successors) == set(other._successors)
            and {
                (s, t): w for s, t, w in self.weighted_edges()
            } == {(s, t): w for s, t, w in other.weighted_edges()}
        )

    def __repr__(self) -> str:
        return f"DiGraph(nodes={self.node_count()}, edges={self.edge_count()})"


def _as_point(point: Point | Tuple[float, float]) -> Point:
    return point if isinstance(point, Point) else Point(float(point[0]), float(point[1]))


def _transposed(rows: Dict[Node, Dict[Node, float]]) -> Dict[Node, Dict[Node, float]]:
    """Return the other direction of ``rows``: same nodes, one entry per edge.

    Each returned row lists its neighbours in the node order of ``rows`` —
    what adding the edges source by source, row by row produces.
    """
    transposed: Dict[Node, Dict[Node, float]] = {node: {} for node in rows}
    for source, row in rows.items():
        for target, weight in row.items():
            transposed[target][source] = weight
    return transposed
