"""Unit tests for the final assembly of per-fragment results."""

import pytest

from repro.closure import ClosureStatistics, reachability_semiring, shortest_path_semiring
from repro.disconnection import assemble_chain
from repro.disconnection.assembly import _best_over_chains
from repro.disconnection.local_query import LocalQueryResult
from repro.disconnection.planner import ChainPlan, LocalQuerySpec


def _plan(chain, source, target):
    specs = tuple(
        LocalQuerySpec(fragment_id=fragment_id, entry_nodes=frozenset(), exit_nodes=frozenset())
        for fragment_id in chain
    )
    return ChainPlan(chain=tuple(chain), local_queries=specs, source=source, target=target)


def _result(fragment_id, values):
    return LocalQueryResult(fragment_id=fragment_id, values=dict(values), statistics=ClosureStatistics())


class TestAssembleChain:
    def test_two_fragment_chain_sums_costs(self):
        plan = _plan([0, 1], "s", "t")
        results = [
            _result(0, {("s", "x"): 2.0, ("s", "y"): 5.0}),
            _result(1, {("x", "t"): 4.0, ("y", "t"): 0.5}),
        ]
        assembly = assemble_chain(plan, results)
        assert assembly.value == 5.5  # s->y->t beats s->x->t (6.0)
        assert assembly.join_operations == 2

    def test_three_fragment_chain_joins_on_shared_border_nodes(self):
        plan = _plan([0, 1, 2], "s", "t")
        results = [
            _result(0, {("s", "a"): 1.0, ("s", "b"): 2.0}),
            _result(1, {("a", "c"): 5.0, ("b", "c"): 1.0, ("b", "d"): 7.0}),
            _result(2, {("c", "t"): 1.0, ("d", "t"): 0.5}),
        ]
        assembly = assemble_chain(plan, results)
        assert assembly.value == 4.0  # s->b->c->t
        assert assembly.join_operations == 3

    def test_single_fragment_chain(self):
        plan = _plan([0], "s", "t")
        assembly = assemble_chain(plan, [_result(0, {("s", "t"): 3.0})])
        assert assembly.value == 3.0

    def test_no_path_yields_none(self):
        plan = _plan([0, 1], "s", "t")
        results = [_result(0, {("s", "x"): 1.0}), _result(1, {})]
        assembly = assemble_chain(plan, results)
        assert assembly.value is None

    def test_broken_chain_stops_early(self):
        plan = _plan([0, 1, 2], "s", "t")
        results = [_result(0, {}), _result(1, {("x", "y"): 1.0}), _result(2, {("y", "t"): 1.0})]
        assembly = assemble_chain(plan, results)
        assert assembly.value is None

    def test_result_count_mismatch_raises(self):
        plan = _plan([0, 1], "s", "t")
        with pytest.raises(ValueError):
            assemble_chain(plan, [_result(0, {})])

    def test_reachability_semiring(self):
        plan = _plan([0, 1], "s", "t")
        results = [_result(0, {("s", "x"): True}), _result(1, {("x", "t"): True})]
        assembly = assemble_chain(plan, results, semiring=reachability_semiring())
        assert assembly.value is True

    def test_source_equals_target_defaults_to_one(self):
        plan = _plan([0], "s", "s")
        assembly = assemble_chain(plan, [_result(0, {})])
        assert assembly.value == shortest_path_semiring().one


class TestBestOverChains:
    def test_picks_minimum(self):
        plan_a = _plan([0], "s", "t")
        plan_b = _plan([1], "s", "t")
        a = assemble_chain(plan_a, [_result(0, {("s", "t"): 9.0})])
        b = assemble_chain(plan_b, [_result(1, {("s", "t"): 4.0})])
        assert _best_over_chains([a, b]) == 4.0

    def test_all_empty_yields_none(self):
        plan = _plan([0], "s", "t")
        empty = assemble_chain(plan, [_result(0, {})])
        assert _best_over_chains([empty]) is None
