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
from repro.fragmentation import GroundTruthFragmenter
from repro.fragmentation.fragmentation_graph import CHAIN_EXPANSION_BUDGET, FragmentationGraph
from repro.graph.shortest_path import dijkstra
from repro.service import QueryService
from tests.tracing_helpers import spans_named
from tests.transit_layouts import counted_searches, grid_layout, ring_layout

# Spans one traced call records on a ring of four 30-node fragments.  A cache
# hit is the root span alone; a cold query from fragment 0 to fragment 2
# records query, plan, evaluate, one kernel span per endpoint fragment (two)
# and the border-graph search.  The same pair as a one-pair batch adds the
# batch's cache_lookup span.  Planning two chains (through 1 and through 3)
# took one kernel span per fragment of either chain (four) and no search:
# 7 and 8.
SPAN_BUDGETS = {
    "cached": 1,
    "cold": 6,
    "batch-cold": 7,
}


def traced_query_spans(kind: str):
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    # Warm-up: derives every site and, crossing each block, reads its arcs.
    service.query(layout[1][3], layout[3][7])
    service.query(layout[0][3], layout[2][7])
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


# Answers on the cyclic grid layouts, sampled sources to sampled targets
# (every third node to every fifth; on 8 x 8 blocks every ninth to every
# seventeenth): a plain wrong value is never allowed, and neither is a
# flagged one.  Chain planning flagged 1 083 of the 4 x 4 pairs; the border
# graph answers them all.
GRID_BUDGETS = {
    # blocks a side: (plain wrong, flagged)
    3: (0, 0),
    4: (0, 0),
    8: (0, 0),
}
GRID_STRIDES = {3: (3, 5), 4: (3, 5), 8: (9, 17)}


def grid_answers(side: int):
    fragmentation, _ = grid_layout(side, side)
    service = QueryService(fragmentation)
    graph = service.database.graph
    nodes = sorted(fragmentation.graph.nodes())
    source_stride, target_stride = GRID_STRIDES[side]
    wrong = flagged = 0
    for source in nodes[::source_stride]:
        distances, _ = dijkstra(graph, source)
        for target in nodes[1::target_stride]:
            if source == target:
                continue
            try:
                value = service.query(source, target).value
            except PlanTruncatedError:
                flagged += 1
                continue
            wrong += value != distances.get(target)
    return wrong, flagged


@pytest.mark.parametrize("side", sorted(GRID_BUDGETS))
def test_grid_answers_are_never_wrong_or_flagged(side):
    wrong, flagged = grid_answers(side)
    budget_wrong, budget_flagged = GRID_BUDGETS[side]
    assert wrong <= budget_wrong
    assert flagged <= budget_flagged


# Chain planning on 8 x 8 blocks: every fragment pair plans or flags inside
# the DFS's expansion budget.  Without one, planning from fragment 0 to 9 or
# to 7 (33 chains wanted) ran past 20 s; now 927 of the 2 016 pairs flag.
def test_every_chain_plan_on_8x8_blocks_ends_inside_its_work_budget():
    fragmentation_graph = FragmentationGraph(grid_layout(8, 8)[0])
    flagged = []
    for start in range(64):
        for end in range(start + 1, 64):
            try:
                chains = fragmentation_graph.chains(start, end, max_chains=33)
                assert chains and len(chains) <= 33
            except PlanTruncatedError as error:
                assert error.budget == CHAIN_EXPANSION_BUDGET
                flagged.append((start, end))
    assert (0, 9) in flagged and (0, 7) in flagged


# Work per cold query on a ring of four 30-node fragments, after two queries
# have read every fragment's border-graph arcs: 200 random pairs from seed 5,
# each past the result cache.  A pair dispatches its endpoints' rows (one
# task each for a node inside a fragment, one per fragment for a border
# node); two endpoints inside one fragment dispatch the source's rows and one
# search inside, and the target's rows only when a border node is nearer
# than the target.  Chain planning dispatched 5.24 tasks a pair.  The
# search settles 3.24 of the ring's 16 border nodes and relaxes 6.25 arcs.
COLD_QUERY_BUDGETS = {
    "tasks": 2.29,
    "settled": 3.24,
    "relaxed": 6.25,
}


def cold_query_work(queries: int = 200, seed: int = 5):
    """``(local tasks dispatched, border nodes settled, arcs relaxed)`` per cold query."""
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    service.query(layout[1][3], layout[3][7])  # warm-up: blocks 0 and 2 read their arcs,
    service.query(layout[0][3], layout[2][7])  # and blocks 1 and 3
    nodes = sorted(fragmentation.graph.nodes())
    rng = random.Random(seed)
    tasks = settled = relaxed = 0
    for _ in range(queries):
        source, target = rng.sample(nodes, 2)
        service.cache.clear()
        before = service.stats.local_evaluations
        service.query(source, target)
        tasks += service.stats.local_evaluations - before
        for span in spans_named(service.tracer.recent(1)[0], "search"):
            settled += span.attributes["settled"]
            relaxed += span.attributes["relaxed"]
    return tasks / queries, settled / queries, relaxed / queries


def test_a_cold_query_dispatches_its_endpoints_and_searches_few_border_nodes():
    tasks, settled, relaxed = cold_query_work()
    assert tasks <= COLD_QUERY_BUDGETS["tasks"]
    assert settled <= COLD_QUERY_BUDGETS["settled"]
    assert relaxed <= COLD_QUERY_BUDGETS["relaxed"]


# Local-query searches and border rows under writes, on a ring of four 30-node
# fragments with ``write-mixed``'s stream shape: a round is one
# ``update_edge`` inside a block (insert 40 %, reweight 40 %, delete of an
# inserted edge 20 %), then one read from the written node to the opposite
# block and three from a Zipf-weighted hot set, each past the result cache.
# A write drops only the rows it may have moved (3.62 a write; a fragment
# holds at most 8), so a read after it searches to refill those and for a
# same-fragment pair.  Border-graph arcs read the backward rows the source
# rows read, so the read from the written node refills them once for both.
# Dropping every row of a written fragment cost 6.47 rows and 2.65 searches a
# read; chain planning, 3.97 rows and 1.10 searches.  A write inside a block
# moves no disconnection set, so it patches its own fragment's site, plus a
# neighbour's when it moves a stored border-to-border value (their shortcuts
# change): 61 sites over the 60 writes.
WRITE_BUDGETS = {
    "searches_per_read": 1.00,
    "rows_dropped_per_write": 3.62,
    "sites_patched_per_write": 1.02,
}


def rows_held(service):
    return sum(held["rows"] for held in service.border_rows().values())


def write_stream_work(rounds: int = 60, seed: int = 11):
    """``(array_dijkstra calls per read, border rows dropped per write, sites patched per write)``."""
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
    searches = dropped = patched = 0
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
        applied = service.database.last_delta
        assert applied is not None, "every write of the stream is absorbed in place"
        patched += len(applied.dirty_fragments)
        far = layout[(block_of[a] + 2) % len(layout)]
        reads = [(a, rng.choice(far))] + rng.choices(hot, zipf, k=3)
        with counted_searches() as calls:
            for pair in reads:
                service.cache.clear()
                service.query(*pair)
        searches += len(calls)
    return searches / (4 * rounds), dropped / rounds, patched / rounds


def test_reads_after_a_write_search_little_and_writes_drop_few_rows():
    searches_per_read, rows_dropped_per_write, _ = write_stream_work()
    assert searches_per_read <= WRITE_BUDGETS["searches_per_read"]
    assert rows_dropped_per_write <= WRITE_BUDGETS["rows_dropped_per_write"]


def test_a_write_patches_only_its_own_fragments_site():
    _, _, sites_patched_per_write = write_stream_work()
    assert sites_patched_per_write <= WRITE_BUDGETS["sites_patched_per_write"]


# A redraw that moves the lowest node of block 3 into block 2 on a ring of
# four 30-node fragments: only the disconnection set (2, 3) moves, so its two
# fragments' sites are rebuilt, the other two kept, and a two-worker pool
# receives one re-pin message per owner of a rebuilt fragment.
REDRAW_BUDGETS = {
    "sites_rebuilt": 2,
    "sites_kept": 2,
    "repin_messages": 2,
}


def test_a_redraw_rebuilds_and_repins_only_the_fragments_it_moved():
    fragmentation, layout = ring_layout(4, 30)
    blocks = [set(block) for block in layout]
    moved = min(blocks[3])
    blocks[2].add(moved)
    blocks[3].discard(moved)
    with QueryService(fragmentation, workers=2, placement="cost_balanced") as service:
        service.query(layout[0][5], layout[2][10])  # starts the pool
        pool = service._pool
        messages = pool.repin_messages
        result = service.refragment(GroundTruthFragmenter(blocks))
        assert result is not None and result.changed == (2, 3)
        assert len(result.changed) <= REDRAW_BUDGETS["sites_rebuilt"]
        assert len(result.unchanged) >= REDRAW_BUDGETS["sites_kept"]
        assert pool.repin_messages - messages <= REDRAW_BUDGETS["repin_messages"]
        assert set(pool.last_repin_workers) <= {pool.plan.owner(f) for f in result.changed}
