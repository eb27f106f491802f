"""Work budgets: per-request counts that host noise cannot blur.

A wall-clock overhead ratio moves by more than a 5 % budget between runs of
unchanged code on a shared host; the work a request does does not.  Each row
fixes a seeded layout and a request, and bounds a count of what the request
does.  A change may tighten a budget; loosening one needs its reason recorded
with the change.
"""

import pytest

from repro.exceptions import PlanTruncatedError
from repro.service import QueryService
from tests.transit_layouts import grid_layout, oracle_value, ring_layout

# Spans one traced ``query`` records on a ring of four 30-node fragments.  A
# cache hit is the root span alone; a cold query from fragment 0 to fragment
# 2 plans two chains (through 1 and through 3) and records query, plan,
# evaluate and one kernel span per distinct local subquery (four).
SPAN_BUDGETS = {
    "cached": 1,
    "cold": 7,
}


def traced_query_spans(kind: str):
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    service.query(layout[1][3], layout[3][7])  # warm-up: derives every site
    source, target = layout[0][5], layout[2][10]
    service.query(source, target)
    if kind == "cached":
        service.query(source, target)
    return service.tracer.recent(1)[0].span_names()


@pytest.mark.parametrize("kind", sorted(SPAN_BUDGETS))
def test_spans_per_traced_query_stay_within_budget(kind):
    names = traced_query_spans(kind)
    assert names[0] == "query"
    assert len(names) <= SPAN_BUDGETS[kind], names


# Answers on the cyclic grid layouts, every third node to every fifth: a plain
# wrong value is never allowed; a flagged one (the plan would be cut at the
# chain cap) is counted, and the border graph of ROADMAP item 1 takes it to 0.
GRID_BUDGETS = {
    # blocks a side: (plain wrong, flagged)
    3: (0, 0),
    4: (0, 1083),
}


def grid_answers(side: int):
    fragmentation, _ = grid_layout(side, side)
    service = QueryService(fragmentation)
    nodes = sorted(fragmentation.graph.nodes())
    wrong = flagged = 0
    for source in nodes[::3]:
        for target in nodes[1::5]:
            if source == target:
                continue
            try:
                value = service.query(source, target).value
            except PlanTruncatedError:
                flagged += 1
                continue
            wrong += value != oracle_value(service, source, target)
    return wrong, flagged


@pytest.mark.parametrize("side", sorted(GRID_BUDGETS))
def test_grid_answers_are_never_plainly_wrong(side):
    wrong, flagged = grid_answers(side)
    budget_wrong, budget_flagged = GRID_BUDGETS[side]
    assert wrong <= budget_wrong
    assert flagged <= budget_flagged
