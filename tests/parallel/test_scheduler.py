"""Unit tests for the fragment-to-processor scheduler."""

import pytest

from repro.exceptions import SchedulingError
from repro.parallel import assign_fragments, one_processor_per_fragment


def processor_loads(assignment, costs):
    """The summed fragment cost on each processor."""
    loads = [0.0] * assignment.processor_count
    for fragment_id, processor in assignment.processor_of.items():
        loads[processor] += costs[fragment_id]
    return loads


class TestAssignment:
    def test_round_robin(self):
        assignment = assign_fragments({0: 5.0, 1: 1.0, 2: 3.0, 3: 2.0}, 2, policy="round_robin")
        assert assignment.processor_count == 2
        assert assignment.processor_of[0] == 0
        assert assignment.processor_of[1] == 1
        assert assignment.processor_of[2] == 0

    def test_lpt_balances_loads(self):
        costs = {0: 10.0, 1: 9.0, 2: 2.0, 3: 1.0}
        assignment = assign_fragments(costs, 2, policy="lpt")
        loads = processor_loads(assignment, costs)
        assert max(loads) <= 12.0  # LPT puts 10+2 or 10+1 together, never 10+9

    def test_lpt_beats_or_ties_round_robin_makespan(self):
        costs = {0: 8.0, 1: 7.0, 2: 6.0, 3: 1.0, 4: 1.0, 5: 1.0}
        lpt = max(processor_loads(assign_fragments(costs, 3, policy="lpt"), costs))
        rr = max(processor_loads(assign_fragments(costs, 3, policy="round_robin"), costs))
        assert lpt <= rr

    def test_invalid_processor_count(self):
        with pytest.raises(SchedulingError):
            assign_fragments({0: 1.0}, 0)

    def test_unknown_policy(self):
        with pytest.raises(SchedulingError):
            assign_fragments({0: 1.0}, 1, policy="magic")

    def test_fragments_on_processor(self):
        assignment = assign_fragments({0: 1.0, 1: 1.0, 2: 1.0}, 2, policy="round_robin")
        assert assignment.fragments_on(0) == [0, 2]
        assert assignment.fragments_on(1) == [1]

    def test_one_processor_per_fragment(self):
        assignment = one_processor_per_fragment([3, 1, 2])
        assert assignment.processor_count == 3
        assert assignment.processor_of == {1: 0, 2: 1, 3: 2}
