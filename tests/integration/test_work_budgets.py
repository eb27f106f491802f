"""Work budgets: per-request counts that host noise cannot blur.

A wall-clock overhead ratio moves by more than a 5 % budget between runs of
unchanged code on a shared host; the work a request does does not.  Each row
fixes a seeded layout and a request, and bounds a count of what the request
does.  A change may tighten a budget; loosening one needs its reason recorded
with the change.
"""

import random

import pytest

from repro.exceptions import PlanTruncatedError
from repro.service import QueryService
from tests.transit_layouts import counted_searches, grid_layout, oracle_value, ring_layout

# Spans one traced call records on a ring of four 30-node fragments.  A cache
# hit is the root span alone; a cold query from fragment 0 to fragment 2 plans
# two chains (through 1 and through 3) and records query, plan, evaluate and
# one kernel span per distinct local subquery (four).  The same pair as a
# one-pair batch adds the batch's cache_lookup span.
SPAN_BUDGETS = {
    "cached": 1,
    "cold": 7,
    "batch-cold": 8,
}


def traced_query_spans(kind: str):
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    service.query(layout[1][3], layout[3][7])  # warm-up: derives every site
    source, target = layout[0][5], layout[2][10]
    if kind == "batch-cold":
        service.query_batch([(source, target)])
        return service.tracer.recent(1)[0].span_names()
    service.query(source, target)
    if kind == "cached":
        service.query(source, target)
    return service.tracer.recent(1)[0].span_names()


@pytest.mark.parametrize("kind", sorted(SPAN_BUDGETS))
def test_spans_per_traced_query_stay_within_budget(kind):
    names = traced_query_spans(kind)
    assert names[0] == ("query_batch" if kind == "batch-cold" else "query")
    assert "plan" in names or kind == "cached", names
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


# Local-query searches and border rows under writes, on a ring of four 30-node
# fragments with ``write-mixed``'s stream shape: a round is one
# ``update_edge`` inside a block (insert 40 %, reweight 40 %, delete of an
# inserted edge 20 %), then one read from the written node to the opposite
# block and three from a Zipf-weighted hot set, each past the result cache.
# A write drops only the rows it may have moved (3.97 a write; a fragment
# holds at most 8), so a read after it searches to refill those and for a
# same-fragment pair: 2.45 searches for the read from the written node, 0.65
# for a hot read.  Dropping every row of a written fragment cost 6.47 rows and
# 2.65 searches a read.
WRITE_BUDGETS = {
    "searches_per_read": 1.10,
    "rows_dropped_per_write": 3.97,
}


def rows_held(service):
    return sum(held["rows"] for held in service.border_rows().values())


def write_stream_work(rounds: int = 60, seed: int = 11):
    """``(array_dijkstra calls per read, border rows dropped per write)``."""
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    graph = service.database.graph
    rng = random.Random(seed)
    block_of = {node: index for index, block in enumerate(layout) for node in block}
    nodes = sorted(block_of)
    inside = sorted((a, b) for a, b, _ in graph.weighted_edges() if block_of[a] == block_of[b])
    hot = [tuple(rng.sample(nodes, 2)) for _ in range(24)]
    zipf = [1.0 / rank**1.1 for rank in range(1, len(hot) + 1)]
    for pair in hot:
        service.query(*pair)  # warm-up: fills the hot set's rows
    inserted = []
    searches = dropped = 0
    for _ in range(rounds):
        roll = rng.random()
        held = rows_held(service)
        if roll < 0.4 or not inserted:
            block = layout[rng.randrange(len(layout))]
            a, b = rng.sample(block, 2)
            while graph.has_edge(a, b):
                a, b = rng.sample(block, 2)
            service.update_edge(a, b, rng.uniform(3.0, 12.0), symmetric=True)
            inserted.append((a, b))
        elif roll < 0.8:
            a, b = rng.choice(inside)
            service.update_edge(a, b, graph.edge_weight(a, b) * rng.uniform(0.5, 2.0))
        else:
            a, b = inserted.pop(rng.randrange(len(inserted)))
            service.update_edge(a, b, delete=True, symmetric=True)
        dropped += held - rows_held(service)
        far = layout[(block_of[a] + 2) % len(layout)]
        reads = [(a, rng.choice(far))] + rng.choices(hot, zipf, k=3)
        with counted_searches() as calls:
            for pair in reads:
                service.cache.clear()
                service.query(*pair)
        searches += len(calls)
    return searches / (4 * rounds), dropped / rounds


def test_reads_after_a_write_search_little_and_writes_drop_few_rows():
    searches_per_read, rows_dropped_per_write = write_stream_work()
    assert searches_per_read <= WRITE_BUDGETS["searches_per_read"]
    assert rows_dropped_per_write <= WRITE_BUDGETS["rows_dropped_per_write"]
