"""Final assembly: combining the per-fragment results of a chain.

The final processing of the disconnection set approach "is effectively a
sequence of binary joins between a number of very small relations"
(Sec. 2.1): the path relation produced by fragment ``i`` of the chain is
joined with the path relation of fragment ``i+1`` on the shared disconnection
set nodes, costs are added, and at the end the best value for the
(source, destination) pair is selected.  :func:`assemble_chain` performs that
join sequence as a small dynamic program over the chain, valid for any
semiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..closure import Semiring, shortest_path_semiring
from .local_query import LocalQueryResult
from .planner import ChainPlan, QueryPlan

Node = Hashable
TaskKey = Tuple[int, "frozenset", "frozenset"]


@dataclass
class AssemblyResult:
    """The combined answer for one chain.

    Attributes:
        chain: the fragment chain this result belongs to.
        value: the best path value from the chain's source to its target, or
            ``None`` when the chain yields no path.
        join_operations: number of binary joins performed (cost accounting).
        intermediate_tuples: total number of tuples flowing through the joins.
    """

    chain: Tuple[int, ...]
    value: Optional[object] = None
    join_operations: int = 0
    intermediate_tuples: int = 0


def assemble_chain(
    plan: ChainPlan,
    results: Sequence[LocalQueryResult],
    *,
    semiring: Optional[Semiring] = None,
) -> AssemblyResult:
    """Combine the local results of one chain into the final path value.

    Args:
        plan: the chain plan the results belong to (in the same order).
        results: one :class:`LocalQueryResult` per chain fragment.
        semiring: the path problem (defaults to shortest paths).
    """
    semiring = semiring or shortest_path_semiring()
    assembly = AssemblyResult(chain=plan.chain)
    if len(results) != len(plan.chain):
        raise ValueError(
            f"expected {len(plan.chain)} local results for chain {plan.chain}, got {len(results)}"
        )
    # frontier maps a border node reached so far to the best accumulated value.
    frontier: Dict[Node, object] = {plan.source: semiring.one}
    for result in results:
        next_frontier: Dict[Node, object] = {}
        for (entry, exit_node), local_value in result.values.items():
            if entry not in frontier:
                continue
            candidate = semiring.times(frontier[entry], local_value)
            incumbent = next_frontier.get(exit_node)
            next_frontier[exit_node] = (
                candidate if incumbent is None else semiring.plus(incumbent, candidate)
            )
        assembly.join_operations += 1
        assembly.intermediate_tuples += len(next_frontier)
        frontier = next_frontier
        if not frontier:
            break
    if plan.target in frontier:
        assembly.value = frontier[plan.target]
    elif plan.source == plan.target:
        assembly.value = semiring.one
    return assembly


def _best_over_chains(
    assemblies: Sequence[AssemblyResult],
    *,
    semiring: Optional[Semiring] = None,
) -> Optional[object]:
    """Return the best value over all chain assemblies (``None`` if none found a path)."""
    semiring = semiring or shortest_path_semiring()
    best: Optional[object] = None
    for assembly in assemblies:
        if assembly.value is None:
            continue
        best = assembly.value if best is None else semiring.plus(best, assembly.value)
    return best


def best_chain(
    assemblies: Sequence[AssemblyResult], *, semiring: Semiring
) -> Tuple[Optional[object], Optional[Tuple[int, ...]]]:
    """Return the best value over ``assemblies`` and the first chain that realised it.

    ``(None, None)`` when no chain yields a path.
    """
    best = _best_over_chains(assemblies, semiring=semiring)
    for assembly in assemblies:
        if assembly.value is not None and assembly.value == best:
            return best, assembly.chain
    return best, None


def collect_task_keys(plans: Sequence[QueryPlan]) -> Tuple[List[TaskKey], int]:
    """Pool the local query specs of ``plans`` into a duplicate-free task list.

    Returns the deduplicated ``(fragment, entry, exit)`` keys in
    first-appearance order plus the total number of spec references; the
    difference is the local work sharing saved (chains of one query — and
    queries of one batch — often need the identical border-to-border
    subquery).
    """
    keys: Dict[TaskKey, None] = {}
    references = 0
    for plan in plans:
        for chain_plan in plan.chains:
            for spec in chain_plan.local_queries:
                references += 1
                keys.setdefault(spec.key(), None)
    return list(keys), references
