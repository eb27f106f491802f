"""Center-based fragmentation (Sec. 3.1 and Fig. 4 of the paper).

The algorithm aims at a *balanced workload*: fragments that require roughly
the same amount of per-processor computation.  It works in two phases:

1. **Center selection.**  Nodes are scored with a weighted neighbourhood
   formula (a variant of Hoede's status score, :mod:`repro.graph.status`);
   the actual centers are then picked from the high-scoring candidate pool —
   either at random (the paper's first variant) or spread out geometrically
   using the node coordinates (the "distributed centers" refinement of
   Sec. 4.2.1, which Table 2 shows to be a large improvement).

2. **Fragment growth.**  Starting from the centers, the algorithm iterates
   over the fragments and repeatedly adds all edges adjacent to the fragment's
   current node set (Fig. 4), one layer per fragment per round: the
   diameter-balancing variant of Fig. 4.

The status score reads :data:`repro.graph.status.DEFAULT_ATTENUATION` (0.5)
and :data:`repro.graph.status.DEFAULT_RADIUS` (3 rings, the paper's choice);
the candidate pool is :data:`CANDIDATE_POOL_FACTOR` times the fragment count
(at least :data:`DISTRIBUTED_POOL_FACTOR` times for distributed centers).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence, Set

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph, spread_out_selection, top_candidates
from .base import Edge, Fragmentation
from .protocols import Fragmenter

Node = Hashable

CENTER_SELECTION_RANDOM = "random"
CENTER_SELECTION_DISTRIBUTED = "distributed"

# Size of the candidate pool relative to the fragment count.
CANDIDATE_POOL_FACTOR = 3.0
# The distributed policy needs a wide pool to have geometrically spread
# candidates to pick from: with a narrow pool all high-score nodes may sit in
# the same dense cluster and the spreading step has nothing to work with (the
# failure mode Table 2 documents for the plain variant).
DISTRIBUTED_POOL_FACTOR = 32.0


class CenterBasedFragmenter(Fragmenter):
    """The center-based fragmentation algorithm.

    Args:
        fragment_count: the number of fragments (= number of centers); the
            paper notes this "may depend on factors such as the number of
            processors available".
        center_selection: how centers are picked from the high-score candidate
            pool: ``"random"`` (the paper's first variant) or
            ``"distributed"`` (coordinate-spread selection, the Table 2
            refinement).
        seed: RNG seed for the random center selection.
    """

    name = "center-based"

    def __init__(
        self,
        fragment_count: int,
        *,
        center_selection: str = CENTER_SELECTION_RANDOM,
        seed: int = 0,
    ) -> None:
        if fragment_count <= 0:
            raise FragmenterConfigurationError("fragment_count must be positive")
        if center_selection not in (CENTER_SELECTION_RANDOM, CENTER_SELECTION_DISTRIBUTED):
            raise FragmenterConfigurationError(
                f"unknown center_selection {center_selection!r}"
            )
        self.fragment_count = fragment_count
        self.center_selection = center_selection
        self.seed = seed
        if center_selection == CENTER_SELECTION_DISTRIBUTED:
            self.name = "center-based-distributed"

    # ------------------------------------------------------------------ API

    def fragment(self, graph: DiGraph) -> Fragmentation:
        """Fragment ``graph`` by growing fragments around selected centers."""
        if graph.edge_count() == 0:
            raise FragmenterConfigurationError("cannot fragment a graph with no edges")
        count = min(self.fragment_count, max(1, graph.node_count()))
        centers = self.select_centers(graph, count)
        fragment_edges = self._grow_fragments(graph, centers)
        populated = [edges for edges in fragment_edges if edges]
        return Fragmentation(graph, populated, algorithm=self.name)

    # --------------------------------------------------------------- centers

    def select_centers(self, graph: DiGraph, count: int) -> List[Node]:
        """Select ``count`` centers using the configured policy."""
        distributed = self.center_selection == CENTER_SELECTION_DISTRIBUTED
        pool_factor = DISTRIBUTED_POOL_FACTOR if distributed else CANDIDATE_POOL_FACTOR
        candidates = list(top_candidates(graph, count, pool_factor=pool_factor))
        if len(candidates) <= count:
            return candidates
        if self.center_selection == CENTER_SELECTION_DISTRIBUTED:
            if graph.has_coordinates():
                return spread_out_selection(graph.coordinates(), candidates, count)
            # Fall back to a graph-distance spread when there are no coordinates.
            return self._spread_by_graph_distance(graph, candidates, count)
        rng = random.Random(self.seed)
        return rng.sample(candidates, count)

    def _spread_by_graph_distance(
        self, graph: DiGraph, candidates: Sequence[Node], count: int
    ) -> List[Node]:
        """Greedy farthest-first selection using hop distances instead of coordinates."""
        from ..graph import bfs_levels

        unreachable = graph.node_count() + 1
        newest = candidates[0]
        selected: List[Node] = [newest]
        chosen: Set[Node] = {newest}
        # Hops from every candidate to its nearest selected center, refreshed
        # with one BFS from the newest center per pick.
        nearest: Dict[Node, int] = {node: unreachable for node in candidates}
        while len(selected) < count:
            levels = bfs_levels(graph, newest, undirected=True)
            for node in candidates:
                hops = levels.get(node, unreachable)
                if hops < nearest[node]:
                    nearest[node] = hops
            remaining = [node for node in candidates if node not in chosen]
            if not remaining:
                break
            newest = max(remaining, key=lambda node: (nearest[node], repr(node)))
            selected.append(newest)
            chosen.add(newest)
        return selected

    # ---------------------------------------------------------------- growth

    def _grow_fragments(self, graph: DiGraph, centers: List[Node]) -> List[Set[Edge]]:
        """Grow fragments from the centers until every edge is assigned (Fig. 4).

        An expansion takes *every* unassigned edge at the nodes it looks at,
        so a node that has been looked at once never has an unassigned edge
        again.  Each fragment therefore keeps only a frontier — the nodes its
        previous expansion added — and every (fragment, node) pair is scanned
        once: the growth is linear in the edges, not nodes x rounds.
        """
        count = len(centers)
        fragment_nodes: List[Set[Node]] = [set() for _ in range(count)]
        fragment_edges: List[Set[Edge]] = [set() for _ in range(count)]
        frontiers: List[List[Node]] = [[] for _ in range(count)]
        unassigned: Set[Edge] = set(graph.edges())

        # Initialisation: each fragment takes its center and the edges adjacent to it.
        for index, center in enumerate(centers):
            fragment_nodes[index].add(center)
            frontiers[index] = self._expand_once(
                graph, [center], fragment_nodes[index], fragment_edges[index], unassigned
            )

        stalled_rounds = 0
        while unassigned:
            progress = False
            for index in range(count):
                before = len(fragment_edges[index])
                frontiers[index] = self._expand_once(
                    graph, frontiers[index], fragment_nodes[index], fragment_edges[index], unassigned
                )
                if len(fragment_edges[index]) > before:
                    progress = True
            if not progress:
                stalled_rounds += 1
                # Remaining edges are unreachable from every center (other weak
                # component): seed them into the currently smallest fragment so
                # the partition still covers the whole relation.
                if stalled_rounds > 1 or not self._seed_disconnected_edge(
                    fragment_nodes, fragment_edges, frontiers, unassigned
                ):
                    break
            else:
                stalled_rounds = 0
        return fragment_edges

    def _expand_once(
        self,
        graph: DiGraph,
        frontier: List[Node],
        nodes: Set[Node],
        edges: Set[Edge],
        unassigned: Set[Edge],
    ) -> List[Node]:
        """Add every still-unassigned edge touching ``frontier``; return the nodes that joined."""
        joined: List[Node] = []
        for node in frontier:
            for edge in self._incident_edges(graph, node):
                if edge in unassigned:
                    unassigned.discard(edge)
                    edges.add(edge)
                    for endpoint in edge:
                        if endpoint not in nodes:
                            nodes.add(endpoint)
                            joined.append(endpoint)
        return joined

    @staticmethod
    def _seed_disconnected_edge(
        fragment_nodes: List[Set[Node]],
        fragment_edges: List[Set[Edge]],
        frontiers: List[List[Node]],
        unassigned: Set[Edge],
    ) -> bool:
        """Assign one unreachable edge to the smallest fragment to restart growth."""
        if not unassigned:
            return False
        smallest = min(range(len(fragment_edges)), key=lambda index: (len(fragment_edges[index]), index))
        edge = min(unassigned, key=repr)
        unassigned.discard(edge)
        fragment_edges[smallest].add(edge)
        for endpoint in edge:
            if endpoint not in fragment_nodes[smallest]:
                fragment_nodes[smallest].add(endpoint)
                frontiers[smallest].append(endpoint)
        return True

    @staticmethod
    def _incident_edges(graph: DiGraph, node: Node) -> List[Edge]:
        incident: List[Edge] = [(node, target) for target in graph.successors(node)]
        incident.extend((source, node) for source in graph.predecessors(node))
        return incident
