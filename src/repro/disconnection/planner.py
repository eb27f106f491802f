"""Query planning: from a source/destination pair to per-fragment subqueries.

Given a query "find the best path from ``x`` to ``y``", the planner:

1. locates the fragments storing ``x`` and ``y`` (border nodes may live in
   several fragments — every combination is considered),
2. enumerates the chains of fragments connecting them in the fragmentation
   graph (exactly one chain when the fragmentation is loosely connected; all
   simple chains otherwise, as Sec. 2.1 prescribes),
3. expands every chain into a list of per-fragment :class:`LocalQuerySpec`
   objects: the first fragment searches from the source to the first
   disconnection set, intermediate fragments search border-to-border, and the
   last fragment searches from the last disconnection set to the destination.

The single-fragment case (both endpoints in the same fragment) produces a
one-element plan that can be answered by that site alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, List, Optional, Tuple

from ..exceptions import NoChainError, PlanTruncatedError
from .catalog import DistributedCatalog

Node = Hashable


@dataclass(frozen=True)
class LocalQuerySpec:
    """One per-fragment subquery of a chain plan.

    Attributes:
        fragment_id: the site that evaluates this subquery.
        entry_nodes: the nodes the search starts from (the source node for the
            first fragment of a chain, otherwise the incoming disconnection
            set).
        exit_nodes: the nodes the search must reach (the destination for the
            last fragment, otherwise the outgoing disconnection set).
    """

    fragment_id: int
    entry_nodes: FrozenSet[Node]
    exit_nodes: FrozenSet[Node]

    def key(self) -> Tuple[int, FrozenSet[Node], FrozenSet[Node]]:
        """The hashable identity used to deduplicate and route this subquery."""
        return (self.fragment_id, self.entry_nodes, self.exit_nodes)


@dataclass(frozen=True)
class ChainPlan:
    """A fully expanded plan for one chain of fragments.

    Attributes:
        chain: the fragment ids, in order from the source fragment to the
            destination fragment.
        local_queries: one :class:`LocalQuerySpec` per chain element.
        source: the query's source node.
        target: the query's destination node.
    """

    chain: Tuple[int, ...]
    local_queries: Tuple[LocalQuerySpec, ...]
    source: Node
    target: Node

    def length(self) -> int:
        """Return the number of fragments involved."""
        return len(self.chain)


@dataclass
class QueryPlan:
    """The complete plan for a query: one :class:`ChainPlan` per fragment chain.

    Attributes:
        source: the query source node.
        target: the query destination node.
        chains: the chain plans, shortest chain first.
    """

    source: Node
    target: Node
    chains: List[ChainPlan] = field(default_factory=list)

    def fragments_involved(self) -> List[int]:
        """Return the sorted set of fragments touched by any chain."""
        involved = {fragment_id for plan in self.chains for fragment_id in plan.chain}
        return sorted(involved)


class QueryPlanner:
    """Plans disconnection-set queries over a :class:`DistributedCatalog`.

    ``max_chains`` caps the chains enumerated between one source fragment and
    one target fragment.  A pair with more chains than that raises
    :class:`~repro.exceptions.PlanTruncatedError` rather than planning a
    subset: the chain left out might carry the best path.  So does a pair
    whose enumeration runs past its work budget, so planning always ends.

    This is the paper's chain algorithm (Sec. 2.1), kept as its model behind
    the chain pipeline (:func:`~repro.disconnection.core.answer_chains`) of
    the parallel simulator, the hierarchical engine and the paper scripts.
    ``QueryService``, the engine and ``repro query`` plan no chains: they
    answer through the border graph, so only this planner flags a pair.
    """

    def __init__(self, catalog: DistributedCatalog, *, max_chains: Optional[int] = 32) -> None:
        self._catalog = catalog
        self._max_chains = max_chains

    def plan(self, source: Node, target: Node) -> QueryPlan:
        """Return the :class:`QueryPlan` for a path query from ``source`` to ``target``.

        Raises:
            NoChainError: if no chain of fragments connects a fragment storing
                ``source`` with a fragment storing ``target`` (or one of the
                endpoints is stored nowhere).
            PlanTruncatedError: if more than ``max_chains`` chains connect one
                of those fragment pairs, or enumerating them runs past
                :data:`~repro.fragmentation.fragmentation_graph.CHAIN_EXPANSION_BUDGET`.
        """
        source_fragments = self._catalog.sites_storing_node(source)
        target_fragments = self._catalog.sites_storing_node(target)
        if not source_fragments:
            raise NoChainError(f"node {source!r} is not stored in any fragment")
        if not target_fragments:
            raise NoChainError(f"node {target!r} is not stored in any fragment")

        fragmentation_graph = self._catalog.fragmentation_graph
        plan = QueryPlan(source=source, target=target)
        cap = self._max_chains
        seen_chains = set()
        for start in source_fragments:
            for end in target_fragments:
                # One chain past the cap tells a complete list from a cut one.
                try:
                    chains = fragmentation_graph.chains(
                        start, end, max_chains=None if cap is None else cap + 1
                    )
                except PlanTruncatedError as cut:  # names fragments, not the endpoints
                    raise PlanTruncatedError(source, target, cap, cut.budget) from None
                if cap is not None and len(chains) > cap:
                    raise PlanTruncatedError(source, target, cap)
                for chain in chains:
                    key = tuple(chain)
                    if key in seen_chains:
                        continue
                    seen_chains.add(key)
                    plan.chains.append(self._expand_chain(chain, source, target))
        if not plan.chains:
            raise NoChainError(
                f"no chain of fragments connects {source!r} (fragments {source_fragments}) "
                f"with {target!r} (fragments {target_fragments})"
            )
        plan.chains.sort(key=lambda chain_plan: (chain_plan.length(), chain_plan.chain))
        return plan

    def _expand_chain(self, chain: List[int], source: Node, target: Node) -> ChainPlan:
        """Expand a fragment chain into per-fragment local query specs."""
        fragmentation = self._catalog.fragmentation
        specs: List[LocalQuerySpec] = []
        for position, fragment_id in enumerate(chain):
            if position == 0:
                entry: FrozenSet[Node] = frozenset([source])
            else:
                entry = fragmentation.disconnection_set(chain[position - 1], fragment_id)
            if position == len(chain) - 1:
                exit_nodes: FrozenSet[Node] = frozenset([target])
            else:
                exit_nodes = fragmentation.disconnection_set(fragment_id, chain[position + 1])
            specs.append(
                LocalQuerySpec(
                    fragment_id=fragment_id,
                    entry_nodes=entry,
                    exit_nodes=exit_nodes,
                )
            )
        return ChainPlan(chain=tuple(chain), local_queries=tuple(specs), source=source, target=target)
