"""Work budgets: per-request counts that host noise cannot blur.

A wall-clock overhead ratio moves by more than a 5 % budget between runs of
unchanged code on a shared host; the work a request does does not.  Each row
fixes a seeded layout and a request, and bounds a count of what the request
does.  A change may tighten a budget; loosening one needs its reason recorded
with the change.
"""

import pytest

from repro.service import QueryService
from tests.transit_layouts import ring_layout

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
