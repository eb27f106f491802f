"""Core fragmentation data model.

A *fragmentation* of the base relation (graph) partitions the **edges** into
fragments ``G_1 .. G_n``; each fragment induces a node set ``V_i`` consisting
of the endpoints of its edges.  The *disconnection set* ``DS_ij`` is the node
intersection ``V_i ∩ V_j`` (Sec. 2.1 of the paper): the border nodes every
path from fragment ``i`` to fragment ``j`` must pass through.

This module provides the value objects (:class:`Fragment`,
:class:`Fragmentation`) that every fragmentation algorithm produces and every
downstream consumer (metrics, the disconnection-set engine, the parallel
simulator) reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from ..exceptions import FragmentationError, InvalidFragmentationError
from ..graph import DiGraph

Node = Hashable
Edge = Tuple[Node, Node]
FragmentId = int


def _canonical_pair(i: FragmentId, j: FragmentId) -> Tuple[FragmentId, FragmentId]:
    """Return the fragment-id pair with the smaller id first."""
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class Fragment:
    """One fragment: an identifier plus the set of edges assigned to it.

    Attributes:
        fragment_id: dense integer identifier, also the index of the site that
            stores the fragment.
        edges: the directed edges assigned to this fragment.
    """

    fragment_id: FragmentId
    edges: FrozenSet[Edge]

    @cached_property
    def nodes(self) -> FrozenSet[Node]:
        """The nodes incident to at least one edge of the fragment (built once)."""
        return frozenset(chain.from_iterable(self.edges))

    def edge_count(self) -> int:
        """Return the number of directed edges in the fragment."""
        return len(self.edges)

    def node_count(self) -> int:
        """Return the number of nodes incident to the fragment."""
        return len(self.nodes)

    def undirected_edge_count(self) -> int:
        """Return the number of edges counting a symmetric pair once.

        The paper reports fragment sizes of undirected transportation graphs;
        this count matches that convention.
        """
        seen: Set[Tuple[Node, Node]] = set()
        for source, target in self.edges:
            key = (source, target) if repr(source) <= repr(target) else (target, source)
            seen.add(key)
        return len(seen)

    def subgraph(self, graph: DiGraph) -> DiGraph:
        """Materialise this fragment as a graph, taking weights from ``graph``."""
        return graph.edge_subgraph(self.edges)


class Fragmentation:
    """A complete fragmentation of a graph into edge-disjoint fragments.

    The object is immutable after construction.  Disconnection sets are
    derived from the node overlaps of the fragments and cached.
    """

    def __init__(
        self,
        graph: DiGraph,
        fragment_edges: Iterable[Iterable[Edge]],
        *,
        algorithm: str = "unknown",
    ) -> None:
        self._graph = graph
        fragments: List[Fragment] = []
        for index, edges in enumerate(fragment_edges):
            fragments.append(Fragment(fragment_id=index, edges=frozenset(edges)))
        if not fragments:
            raise FragmentationError("a fragmentation needs at least one fragment")
        self._fragments: Tuple[Fragment, ...] = tuple(fragments)
        self._algorithm = algorithm
        self._disconnection_sets = self._compute_disconnection_sets()

    def replacing(self, fragment_edges: Mapping[FragmentId, Iterable[Edge]]) -> "Fragmentation":
        """Return this fragmentation with the given fragments' edge sets replaced.

        The write path's constructor: one edge change moves one fragment, so
        everything else is shared with ``self`` rather than rebuilt — the
        other :class:`Fragment` objects (and their cached node sets) are the
        same objects, and a disconnection set is recomputed only when one of
        its two fragments' *node set* moved.  The result equals
        ``Fragmentation(graph, <all edge sets>)`` in every observable,
        including the key order of :meth:`disconnection_sets`.  Fragment ids
        do not shift, so a replacement must not be empty.

        Raises:
            FragmentationError: for an unknown fragment id or an empty
                replacement.
        """
        fragments = list(self._fragments)
        moved: Set[FragmentId] = set()
        for fragment_id, edges in fragment_edges.items():
            previous = self.fragment(fragment_id)
            fragment = Fragment(fragment_id=fragment_id, edges=frozenset(edges))
            if not fragment.edges:
                raise FragmentationError(f"fragment {fragment_id} cannot be replaced by nothing")
            fragments[fragment_id] = fragment
            if fragment.nodes != previous.nodes:
                moved.add(fragment_id)
        derived = Fragmentation.__new__(Fragmentation)
        derived._graph = self._graph
        derived._fragments = tuple(fragments)
        derived._algorithm = self._algorithm
        derived._disconnection_sets = (
            derived._disconnection_sets_after(moved, self._disconnection_sets)
            if moved
            else self._disconnection_sets
        )
        owners = self.__dict__.get("_node_owners")
        if owners is not None and not moved:
            # No node set moved: a built owner index still holds.
            derived.__dict__["_node_owners"] = owners
        return derived

    # ------------------------------------------------------------ properties

    @property
    def graph(self) -> DiGraph:
        """The fragmented graph."""
        return self._graph

    @property
    def fragments(self) -> Tuple[Fragment, ...]:
        """The fragments, indexed by fragment id."""
        return self._fragments

    @property
    def algorithm(self) -> str:
        """Name of the algorithm that produced this fragmentation."""
        return self._algorithm

    def fragment_count(self) -> int:
        """Return the number of fragments."""
        return len(self._fragments)

    def fragment(self, fragment_id: FragmentId) -> Fragment:
        """Return the fragment with the given id.

        Raises:
            FragmentationError: if the id is out of range.
        """
        if not 0 <= fragment_id < len(self._fragments):
            raise FragmentationError(f"fragment id {fragment_id} out of range")
        return self._fragments[fragment_id]

    # ---------------------------------------------------- disconnection sets

    def _compute_disconnection_sets(self) -> Dict[Tuple[FragmentId, FragmentId], FrozenSet[Node]]:
        node_sets = [fragment.nodes for fragment in self._fragments]
        sets: Dict[Tuple[FragmentId, FragmentId], FrozenSet[Node]] = {}
        for i in range(len(node_sets)):
            for j in range(i + 1, len(node_sets)):
                overlap = node_sets[i] & node_sets[j]
                if overlap:
                    sets[(i, j)] = frozenset(overlap)
        return sets

    def _disconnection_sets_after(
        self,
        moved: Set[FragmentId],
        previous: Mapping[Tuple[FragmentId, FragmentId], FrozenSet[Node]],
    ) -> Dict[Tuple[FragmentId, FragmentId], FrozenSet[Node]]:
        """Carry ``previous`` over, recomputing the pairs a ``moved`` fragment is in."""
        sets = {
            pair: nodes
            for pair, nodes in previous.items()
            if pair[0] not in moved and pair[1] not in moved
        }
        for fragment_id in moved:
            nodes = self._fragments[fragment_id].nodes
            for other in self._fragments:
                if other.fragment_id == fragment_id:
                    continue
                overlap = nodes & other.nodes
                if overlap:
                    sets[_canonical_pair(fragment_id, other.fragment_id)] = overlap
        # The constructor's nested loops emit keys in ascending (i, j) order.
        return dict(sorted(sets.items()))

    def disconnection_sets(self) -> Dict[Tuple[FragmentId, FragmentId], FrozenSet[Node]]:
        """Return all nonempty disconnection sets, keyed by the fragment-id pair."""
        return dict(self._disconnection_sets)

    def disconnection_set(self, i: FragmentId, j: FragmentId) -> FrozenSet[Node]:
        """Return ``DS_ij`` (possibly empty) for an unordered fragment pair."""
        return self._disconnection_sets.get(_canonical_pair(i, j), frozenset())

    def adjacent_fragments(self, fragment_id: FragmentId) -> List[FragmentId]:
        """Return the fragments sharing a nonempty disconnection set with ``fragment_id``."""
        adjacent: List[FragmentId] = []
        for (i, j) in self._disconnection_sets:
            if i == fragment_id:
                adjacent.append(j)
            elif j == fragment_id:
                adjacent.append(i)
        return sorted(adjacent)

    def border_nodes(self, fragment_id: FragmentId) -> FrozenSet[Node]:
        """Return every node of ``fragment_id`` shared with some other fragment."""
        border: Set[Node] = set()
        for (i, j), nodes in self._disconnection_sets.items():
            if fragment_id in (i, j):
                border |= nodes
        return frozenset(border)

    # -------------------------------------------------------------- mappings

    # The owner indexes are built on first use: every write derives a fresh
    # Fragmentation, and most of those are never asked who owns what.

    @cached_property
    def _node_owners(self) -> Dict[Node, List[FragmentId]]:
        """node -> ids of the fragments containing it, ascending."""
        owners: Dict[Node, List[FragmentId]] = {}
        for fragment in self._fragments:
            for node in fragment.nodes:
                owners.setdefault(node, []).append(fragment.fragment_id)
        return owners

    @cached_property
    def _edge_owner(self) -> Dict[Edge, FragmentId]:
        """edge -> id of the (lowest) fragment holding it."""
        owner: Dict[Edge, FragmentId] = {}
        for fragment in reversed(self._fragments):
            owner.update(dict.fromkeys(fragment.edges, fragment.fragment_id))
        return owner

    def fragments_of_node(self, node: Node) -> List[FragmentId]:
        """Return the ids of every fragment containing ``node``."""
        return list(self._node_owners.get(node, ()))

    def edge_fragment(self, source: Node, target: Node) -> FragmentId:
        """Return the id of the fragment owning the edge ``source -> target``.

        Raises:
            FragmentationError: if no fragment owns the edge.
        """
        owner = self._edge_owner.get((source, target))
        if owner is None:
            raise FragmentationError(f"edge ({source!r}, {target!r}) is not covered by any fragment")
        return owner

    def fragment_subgraph(self, fragment_id: FragmentId) -> DiGraph:
        """Materialise the subgraph of one fragment (weights from the base graph)."""
        return self.fragment(fragment_id).subgraph(self._graph)

    def fragment_sizes(self) -> List[int]:
        """Return the undirected edge counts of the fragments (the paper's ``F``)."""
        return [fragment.undirected_edge_count() for fragment in self._fragments]

    def disconnection_set_sizes(self) -> List[int]:
        """Return the sizes (node counts) of all nonempty disconnection sets."""
        return [len(nodes) for nodes in self._disconnection_sets.values()]

    # ------------------------------------------------------------ invariants

    def validate(self) -> None:
        """Check the structural invariants of an edge fragmentation.

        * every base-relation edge is assigned to exactly one fragment,
        * no fragment contains an edge that is not in the base relation,
        * no fragment is empty.

        Raises:
            InvalidFragmentationError: if an invariant is violated.
        """
        base_edges = set(self._graph.edges())
        seen: Dict[Edge, FragmentId] = {}
        for fragment in self._fragments:
            if not fragment.edges:
                raise InvalidFragmentationError(
                    f"fragment {fragment.fragment_id} is empty"
                )
            for edge in fragment.edges:
                if edge not in base_edges:
                    raise InvalidFragmentationError(
                        f"fragment {fragment.fragment_id} contains edge {edge!r} "
                        "that is not in the base relation"
                    )
                if edge in seen:
                    raise InvalidFragmentationError(
                        f"edge {edge!r} is assigned to fragments {seen[edge]} "
                        f"and {fragment.fragment_id}"
                    )
                seen[edge] = fragment.fragment_id
        missing = base_edges - set(seen)
        if missing:
            example = next(iter(missing))
            raise InvalidFragmentationError(
                f"{len(missing)} edge(s) are not assigned to any fragment, e.g. {example!r}"
            )

    def __repr__(self) -> str:
        return (
            f"Fragmentation(algorithm={self._algorithm!r}, fragments={self.fragment_count()}, "
            f"disconnection_sets={len(self._disconnection_sets)})"
        )


def fragmentation_from_node_blocks(
    graph: DiGraph,
    blocks: Iterable[Iterable[Node]],
    *,
    algorithm: str = "node-blocks",
) -> Fragmentation:
    """Build an edge fragmentation from a partition of the **nodes**.

    Each edge is assigned to the block of its source node when both endpoints
    are in different blocks have the edge assigned to the block containing its
    lexicographically smaller endpoint's block id; edges inside a block stay
    in that block.  Cross-block edges are assigned to the lower-indexed block,
    which makes the two blocks overlap on the edge's other endpoint — exactly
    how disconnection sets arise from a node-clustering view of the graph
    (this is how the bond-energy algorithm's column blocks become fragments).
    """
    block_of: Dict[Node, int] = {}
    block_list: List[List[Node]] = []
    for index, block in enumerate(blocks):
        members = list(block)
        block_list.append(members)
        for node in members:
            if node in block_of:
                raise FragmentationError(f"node {node!r} appears in more than one block")
            block_of[node] = index
    uncovered = [node for node in graph.nodes() if node not in block_of]
    if uncovered:
        raise FragmentationError(
            f"{len(uncovered)} node(s) are not assigned to a block, e.g. {uncovered[0]!r}"
        )
    fragment_edges: List[List[Edge]] = [[] for _ in block_list]
    for source, target in graph.edges():
        source_block = block_of[source]
        target_block = block_of[target]
        owner = source_block if source_block == target_block else min(source_block, target_block)
        fragment_edges[owner].append((source, target))
    populated = [edges for edges in fragment_edges if edges]
    return Fragmentation(graph, populated, algorithm=algorithm)
