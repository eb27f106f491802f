"""Mapping fragments to processors.

The paper assumes one processor per fragment ("each stored at a different
computer or processor"), but the number of fragments a fragmentation algorithm
produces and the number of processors available need not match.  The scheduler
assigns fragments to a fixed pool of processors; the simulator then charges a
processor with the sum of the work of the fragments placed on it.

Two policies are provided: round-robin (placement oblivious to size) and LPT
(longest processing time first — the classical greedy makespan heuristic,
which places the largest fragment on the least loaded processor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from ..exceptions import SchedulingError

POLICY_ROUND_ROBIN = "round_robin"
POLICY_LPT = "lpt"


@dataclass
class Assignment:
    """A fragment-to-processor assignment.

    Attributes:
        processor_of: fragment id -> processor index.
        processor_count: number of processors used.
    """

    processor_of: Dict[int, int] = field(default_factory=dict)
    processor_count: int = 0

    def fragments_on(self, processor: int) -> List[int]:
        """Return the fragments placed on ``processor``."""
        return sorted(f for f, p in self.processor_of.items() if p == processor)


def assign_fragments(
    fragment_costs: Mapping[int, float],
    processor_count: int,
    *,
    policy: str = POLICY_LPT,
) -> Assignment:
    """Assign fragments to ``processor_count`` processors.

    Args:
        fragment_costs: estimated cost (e.g. edge count or simulated work) per
            fragment id.
        processor_count: number of available processors (>= 1).
        policy: ``"lpt"`` or ``"round_robin"``.

    Raises:
        SchedulingError: on an invalid processor count or unknown policy.
    """
    if processor_count <= 0:
        raise SchedulingError("processor_count must be positive")
    if policy not in (POLICY_ROUND_ROBIN, POLICY_LPT):
        raise SchedulingError(f"unknown scheduling policy {policy!r}")
    assignment = Assignment(processor_count=processor_count)
    fragments = sorted(fragment_costs)
    if policy == POLICY_ROUND_ROBIN:
        for index, fragment_id in enumerate(fragments):
            assignment.processor_of[fragment_id] = index % processor_count
        return assignment
    # LPT: biggest fragment first onto the least-loaded processor.
    loads = [0.0] * processor_count
    for fragment_id in sorted(fragments, key=lambda f: (-fragment_costs[f], f)):
        target = min(range(processor_count), key=lambda p: (loads[p], p))
        assignment.processor_of[fragment_id] = target
        loads[target] += fragment_costs[fragment_id]
    return assignment


def one_processor_per_fragment(fragment_ids: Sequence[int]) -> Assignment:
    """Return the paper's default placement: fragment ``i`` on processor ``i``."""
    assignment = Assignment(processor_count=len(fragment_ids))
    for index, fragment_id in enumerate(sorted(fragment_ids)):
        assignment.processor_of[fragment_id] = index
    return assignment
