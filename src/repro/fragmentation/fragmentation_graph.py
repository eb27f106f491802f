"""The fragmentation graph G' and its structural analysis.

Section 2.1 of the paper defines the fragmentation graph ``G' = <N, E>``: one
node per fragment, one edge per nonempty disconnection set.  A fragmentation
is *loosely connected* when this graph is acyclic; in that case there is a
single chain of fragments between any two fragments, which keeps query
planning trivial and avoids redundant work.

This module builds the fragmentation graph from a
:class:`~repro.fragmentation.base.Fragmentation` and answers the planning
questions the disconnection-set engine asks: is it loosely connected, what are
the chains between two fragments, how many cycles does it have, which
fragments can reach each other at all.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..exceptions import PlanTruncatedError
from ..graph import DiGraph, undirected_cycle_count, weakly_connected_components
from .base import Fragmentation, FragmentId

Node = Hashable

# Partial chains one :meth:`FragmentationGraph.chains` call may expand.  The
# DFS walks simple paths and counts only those that reach ``end``: on a
# grid-like layout of 64 fragments it can wander through exponentially many
# dead ends first.  The 4 x 4 grid layout of the tests needs at most 551
# expansions a pair to enumerate 33 chains, a 3 x 3 one 39, the paper
# scripts' layouts 9.
CHAIN_EXPANSION_BUDGET = 1_000


class FragmentationGraph:
    """The graph of fragments induced by a fragmentation."""

    def __init__(self, fragmentation: Fragmentation) -> None:
        self._fragmentation = fragmentation
        self._graph = DiGraph()
        for fragment in fragmentation.fragments:
            self._graph.add_node(fragment.fragment_id)
        for (i, j) in fragmentation.disconnection_sets():
            self._graph.add_symmetric_edge(i, j, 1.0)
        self._cycle_count: Optional[int] = None
        self._component_of: Optional[Dict[FragmentId, int]] = None

    @property
    def graph(self) -> DiGraph:
        """The underlying fragment-level graph (symmetric edges)."""
        return self._graph

    @property
    def fragmentation(self) -> Fragmentation:
        """The fragmentation this graph was derived from."""
        return self._fragmentation

    def fragment_ids(self) -> List[FragmentId]:
        """Return the fragment ids (nodes of the fragmentation graph)."""
        return list(self._graph.nodes())

    def edges(self) -> List[Tuple[FragmentId, FragmentId]]:
        """Return the adjacent fragment pairs (each unordered pair once, i < j)."""
        return sorted(
            {(min(i, j), max(i, j)) for i, j in self._graph.edges()}
        )

    def neighbors(self, fragment_id: FragmentId) -> List[FragmentId]:
        """Return the fragments adjacent to ``fragment_id``."""
        return sorted(self._graph.neighbors(fragment_id))

    # --------------------------------------------------------------- shape

    def cycle_count(self) -> int:
        """Return the circuit rank of the fragmentation graph (0 when acyclic).

        Computed once: the graph is fixed at construction, and the planner
        asks on every query.
        """
        if self._cycle_count is None:
            self._cycle_count = undirected_cycle_count(self._graph)
        return self._cycle_count

    def is_loosely_connected(self) -> bool:
        """Return ``True`` when the fragmentation graph is acyclic.

        This is the paper's loose-connectivity property: between any two
        fragments there is at most one chain of fragments.
        """
        return self.cycle_count() == 0

    def is_connected(self) -> bool:
        """Return ``True`` when every fragment can reach every other fragment."""
        return len(weakly_connected_components(self._graph)) <= 1

    def joined(self, start: FragmentId, end: FragmentId) -> bool:
        """Return ``True`` when some chain of fragments joins ``start`` and ``end``.

        The components are computed once: the graph is fixed at construction.
        """
        if self._component_of is None:
            self._component_of = {
                fragment_id: index
                for index, component in enumerate(weakly_connected_components(self._graph))
                for fragment_id in component
            }
        return self._component_of.get(start, -1) == self._component_of.get(end, -2)

    # -------------------------------------------------------------- chains

    def chains(
        self,
        start: FragmentId,
        end: FragmentId,
        *,
        max_chains: Optional[int] = None,
    ) -> List[List[FragmentId]]:
        """Return all simple chains of fragments from ``start`` to ``end``.

        For a loosely connected fragmentation this list has at most one
        element; otherwise every simple path must be considered independently
        (Sec. 2.1).  ``max_chains`` caps the enumeration for very cyclic
        fragmentation graphs (the situation Parallel Hierarchical Evaluation
        is designed to avoid).

        Raises:
            PlanTruncatedError: past :data:`CHAIN_EXPANSION_BUDGET` expanded
                partial chains (naming the two fragments): the list so far
                might miss the chain the best path runs through.
        """
        if start == end:
            return [[start]]
        chains: List[List[FragmentId]] = []
        stack: List[Tuple[FragmentId, List[FragmentId]]] = [(start, [start])]
        expansions = 0
        while stack:
            expansions += 1
            if expansions > CHAIN_EXPANSION_BUDGET:
                raise PlanTruncatedError(start, end, max_chains, CHAIN_EXPANSION_BUDGET)
            node, path = stack.pop()
            for neighbour in sorted(self._graph.neighbors(node), reverse=True):
                if neighbour in path:
                    continue
                extended = path + [neighbour]
                if neighbour == end:
                    chains.append(extended)
                    if max_chains is not None and len(chains) >= max_chains:
                        return chains
                else:
                    stack.append((neighbour, extended))
        return chains

    def __repr__(self) -> str:
        return (
            f"FragmentationGraph(fragments={len(self.fragment_ids())}, "
            f"edges={len(self.edges())}, cycles={self.cycle_count()})"
        )
