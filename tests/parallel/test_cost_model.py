"""Unit tests for the abstract cost model."""

import pytest

from repro.disconnection import ExecutionReport, SiteWork
from repro.parallel import CostModel


def _report() -> ExecutionReport:
    report = ExecutionReport()
    report.site_work = {
        0: SiteWork(fragment_id=0, subqueries=1, iterations=4, tuples_produced=100),
        1: SiteWork(fragment_id=1, subqueries=2, iterations=6, tuples_produced=50),
    }
    report.join_operations = 3
    report.assembly_tuples = 10
    return report


class TestCostModel:
    def test_site_cost_formula(self):
        model = CostModel(tuple_cost=1.0, iteration_cost=5.0, subquery_cost=10.0)
        work = SiteWork(fragment_id=0, subqueries=2, iterations=3, tuples_produced=40)
        assert model.site_cost(work) == 40 + 15 + 20

    def test_site_costs_per_fragment(self):
        costs = CostModel().site_costs(_report())
        assert set(costs) == {0, 1}
        assert costs[0] > costs[1]

    def test_sequential_cost_is_sum_of_sites_plus_assembly(self):
        model = CostModel()
        report = _report()
        assert model.sequential_cost(report) == pytest.approx(
            sum(model.site_costs(report).values()) + model.assembly_cost(report)
        )

    def test_assembly_cost_counts_joins_tuples_and_messages(self):
        model = CostModel(join_cost=5.0, assembly_tuple_cost=0.5, message_cost=2.0)
        report = _report()
        # 3 joins, 10 assembly tuples, 3 subqueries shipped.
        assert model.assembly_cost(report) == 3 * 5.0 + 10 * 0.5 + 3 * 2.0

    def test_empty_report(self):
        model = CostModel()
        report = ExecutionReport()
        assert model.sequential_cost(report) == 0.0

    def test_closure_cost(self):
        model = CostModel(tuple_cost=1.0, iteration_cost=5.0, subquery_cost=10.0)
        assert model.closure_cost(iterations=2, tuples_produced=30) == 30 + 10 + 10
