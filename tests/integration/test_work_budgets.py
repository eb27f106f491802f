"""Work budgets: per-request counts that host noise cannot blur.

A wall-clock overhead ratio moves by more than a 5 % budget between runs of
unchanged code on a shared host; the work a request does does not.  Each row
fixes a seeded layout and a request, and bounds a count of what the request
does.  A change may tighten a budget; loosening one needs its reason recorded
with the change.
"""

import random
from contextlib import contextmanager

import pytest

import repro.disconnection.border_graph as border_graph_module
import repro.service.snapshot as snapshot_module
from repro.closure import reachability_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.disconnection.local_query import TRANSIT_KEY
from repro.exceptions import PlanTruncatedError
from repro.fragmentation import GroundTruthFragmenter
from repro.fragmentation.fragmentation_graph import CHAIN_EXPANSION_BUDGET, FragmentationGraph
from repro.graph.shortest_path import dijkstra
from repro.observability.metrics import Counter, Gauge, Histogram
from repro.service import QueryService, SnapshotError, load_snapshot
from repro.service.snapshot import PAYLOAD_FILE
from tests.tracing_helpers import spans_named
from tests.transit_layouts import (
    chain_layout,
    counted_bfs,
    counted_searches,
    grid_layout,
    ring_layout,
)

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
# seventeenth), each asked of the service, of the engine and of
# ``engine.route``: a plain wrong value (or a route that is no walk of the
# graph at that cost) is never allowed, and neither is a flagged one.  Chain
# planning flagged 1 083 of the 4 x 4 pairs; the border graph answers them
# all.
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
    engine = DisconnectionSetEngine(
        fragmentation, complementary=service.engine().catalog.complementary
    )
    graph = service.database.graph
    nodes = sorted(fragmentation.graph.nodes())
    source_stride, target_stride = GRID_STRIDES[side]
    wrong = flagged = 0
    for source in nodes[::source_stride]:
        distances, _ = dijkstra(graph, source)
        for target in nodes[1::target_stride]:
            if source == target:
                continue
            expected = distances.get(target)
            try:
                values = [service.query(source, target).value, engine.query(source, target).value]
                routed = engine.route(source, target)
            except PlanTruncatedError:
                flagged += 1
                continue
            hops = list(zip(routed.route, routed.route[1:]))
            walked = (
                sum(graph.edge_weight(a, b) for a, b in hops)
                if all(graph.has_edge(a, b) for a, b in hops)
                else None
            )
            wrong += any(value != expected for value in values) or not (
                routed.route[0] == source
                and routed.route[-1] == target
                and routed.cost == expected
                and walked == pytest.approx(expected)
            )
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
# ``array_dijkstra`` runs 0.27 times a pair: the search inside a
# same-fragment pair, and the fill of a border row no earlier pair read.
COLD_QUERY_BUDGETS = {
    "tasks": 2.29,
    "settled": 3.24,
    "relaxed": 6.25,
    "searches": 0.27,
}


def cold_query_work(queries: int = 200, seed: int = 5):
    """Per cold query: local tasks dispatched, border nodes settled, arcs relaxed, searches run."""
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    service.query(layout[1][3], layout[3][7])  # warm-up: blocks 0 and 2 read their arcs,
    service.query(layout[0][3], layout[2][7])  # and blocks 1 and 3
    nodes = sorted(fragmentation.graph.nodes())
    rng = random.Random(seed)
    tasks = settled = relaxed = 0
    with counted_searches() as calls:
        for _ in range(queries):
            source, target = rng.sample(nodes, 2)
            service.cache.clear()
            before = service.stats.local_evaluations.value()
            service.query(source, target)
            tasks += service.stats.local_evaluations.value() - before
            for span in spans_named(service.tracer.recent(1)[0], "search"):
                settled += span.attributes["settled"]
                relaxed += span.attributes["relaxed"]
    return {
        "tasks": tasks / queries,
        "settled": settled / queries,
        "relaxed": relaxed / queries,
        "searches": len(calls) / queries,
    }


def test_a_cold_query_dispatches_its_endpoints_and_searches_few_border_nodes():
    work = cold_query_work()
    for figure in ("tasks", "settled", "relaxed", "searches"):
        assert work[figure] <= COLD_QUERY_BUDGETS[figure], figure


# The border-graph search of a cold query on the same ring and pairs, once
# the pairs have been answered (every state they expand has its successor
# row): arc-map lookups (``get`` on a transit entry's border-to-border
# values, the map the search probed for every border node of each fragment
# it crossed) and heap pops, per query.  The dict-probing search made 6.25
# lookups and 4.095 pops a query; the compiled one reads rows only, pushes
# the same successors in the same order, and pops as often.  The first
# warm-up query compiles the rows of the 7 states it expands.  On 8 x 8
# grid blocks (64 fragments, 224 border nodes, 200 pairs from seed 5 after
# the same warm-up) a cold query pops 263.975 states, reads no arc map and
# compiles no row once its pairs have been answered; the first warm-up
# query compiles 23 rows.
SEARCH_BUDGETS = {
    "ring": {"arc_lookups": 0, "rows_compiled": 0, "heap_pops": 4.095, "first_query_rows": 7},
    "grid-8x8": {
        "arc_lookups": 0, "rows_compiled": 0, "heap_pops": 263.975, "first_query_rows": 23,
    },
}


class CountedArcs(dict):
    """A transit entry's values that count the lookups made through ``get``."""

    lookups = 0

    def get(self, key, default=None):
        CountedArcs.lookups += 1
        return super().get(key, default)


SEARCH_LAYOUTS = {
    "ring": lambda: ring_layout(4, 30),
    "grid-8x8": lambda: grid_layout(8, 8),
}


def compiled_search_work(layout_name: str = "ring", queries: int = 200, seed: int = 5):
    """Per cold query on a ``SEARCH_LAYOUTS`` layout: arc lookups, rows compiled, heap pops."""
    fragmentation, layout = SEARCH_LAYOUTS[layout_name]()
    service = QueryService(fragmentation)
    catalog = service.engine().catalog

    def rows():
        return sum(len(graph.rows) for graph in catalog.border_graphs.values())

    service.query(layout[1][3], layout[3][7])
    first_query_rows = rows()
    service.query(layout[0][3], layout[2][7])
    nodes = sorted(fragmentation.graph.nodes())
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(queries)]
    for pair in pairs:  # compiles the rows of every state the pairs expand
        service.cache.clear()
        service.query(*pair)
    compiled = rows()
    for site in catalog.sites():
        table = site.derived_get(TRANSIT_KEY)
        key = (site.border_nodes, site.border_nodes, "shortest_path")
        if table and key in table:
            table[key] = table[key]._replace(values=CountedArcs(table[key].values))
    CountedArcs.lookups = 0
    pops = [0]
    real = border_graph_module.heappop

    def counting(heap):
        pops[0] += 1
        return real(heap)

    border_graph_module.heappop = counting
    try:
        for pair in pairs:
            service.cache.clear()
            service.query(*pair)
    finally:
        border_graph_module.heappop = real
    return {
        "arc_lookups": CountedArcs.lookups / queries,
        "rows_compiled": (rows() - compiled) / queries,
        "heap_pops": pops[0] / queries,
        "first_query_rows": first_query_rows,
    }


@pytest.mark.parametrize("layout_name", sorted(SEARCH_BUDGETS))
def test_a_cold_query_searches_compiled_rows_and_probes_no_arc_map(layout_name):
    work = compiled_search_work(layout_name)
    budgets = SEARCH_BUDGETS[layout_name]
    for figure in budgets:
        assert work[figure] <= budgets[figure], figure
    assert work["heap_pops"] > 0  # the patch counted the search's pops


# Metric calls per query on the same ring, warm-up and 200 pairs from seed
# 5: each pair past the result cache (cold), then, once every pair is
# cached, the same pairs again (cached).  A call is a ``Counter.inc`` /
# ``.value``, ``Gauge.set`` / ``.value`` / ``.max_of`` or
# ``Histogram.observe`` by any writer sharing the service's registry
# (statistics, result cache, tracer).  A cold query writes the cache's
# events and entries (4: the entry-count gauge only when the count moves),
# each evaluation's per-site series and task total (3.1), the row and
# transit lookups (1.3) and 8 query figures; a cached one the cache's hit
# and 7 query figures.  Setting the gauge on every cache call cost one more
# call each (17.4 and 9.0).  Through the attribute view that read each
# counter before overwriting it (``Counter.set_value``), a cold query made
# 24.27 calls and a cached one 14.01.
METRIC_CALL_BUDGETS = {
    "cold": 16.4,
    "cached": 8.0,
}
METRIC_METHODS = (
    (Counter, ("inc", "value")),
    (Gauge, ("set", "value", "max_of")),
    (Histogram, ("observe",)),
)


@contextmanager
def counted_metric_calls():
    """Patch every metric write and read; yields a one-item list holding the call count."""
    calls = [0]
    patched = []
    for cls, names in METRIC_METHODS:
        for name in names:
            real = getattr(cls, name)

            def counting(*args, _real=real, **kwargs):
                calls[0] += 1
                return _real(*args, **kwargs)

            setattr(cls, name, counting)
            patched.append((cls, name, real))
    try:
        yield calls
    finally:
        for cls, name, real in patched:
            setattr(cls, name, real)


def metric_calls_per_query(queries: int = 200, seed: int = 5):
    """Metric calls per cold and per cached query on ``ring_layout(4, 30)``."""
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    service.query(layout[1][3], layout[3][7])  # warm-up, as for the cold-query work
    service.query(layout[0][3], layout[2][7])
    nodes = sorted(fragmentation.graph.nodes())
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(queries)]
    with counted_metric_calls() as calls:
        for pair in pairs:
            service.cache.clear()
            service.query(*pair)
    cold = calls[0]
    for pair in pairs:
        service.query(*pair)  # fills the cache with every pair
    with counted_metric_calls() as calls:
        for pair in pairs:
            assert service.query(*pair).cached
    return {"cold": cold / queries, "cached": calls[0] / queries}


def test_a_query_makes_few_metric_calls():
    calls = metric_calls_per_query()
    for kind in ("cold", "cached"):
        assert calls[kind] <= METRIC_CALL_BUDGETS[kind], kind


# Full or keyhole BFS runs per cold reachability query on a one-way chain of eight
# 30-node fragments, after one query between each two consecutive blocks:
# 200 random pairs from seed 5, each past the result cache (about half of
# them point up the chain and have no path).  An endpoint task reads the
# bitset rows of its fragment's border nodes, each filled once by one BFS;
# what still runs is the keyhole BFS inside a same-fragment pair and the
# fill of a row no earlier pair read.  With a BFS per endpoint task (no
# rows for reachability) it was 4.73.
REACH_BUDGETS = {
    "bfs": 0.095,
}


def cold_reachability_bfs(queries: int = 200, seed: int = 5) -> float:
    """``bitset_reachable`` calls per cold reachability query on ``chain_layout(8, 30)``."""
    fragmentation, layout = chain_layout(8, 30)
    service = QueryService(fragmentation, semiring=reachability_semiring())
    for block in range(len(layout) - 1):
        service.query(layout[block][3], layout[block + 1][-3])  # warm-up
    nodes = sorted(fragmentation.graph.nodes())
    rng = random.Random(seed)
    with counted_bfs() as calls:
        for _ in range(queries):
            source, target = rng.sample(nodes, 2)
            service.cache.clear()
            service.query(source, target)
    return len(calls) / queries


def test_a_cold_reachability_query_reads_bitset_rows_instead_of_searching():
    assert cold_reachability_bfs() <= REACH_BUDGETS["bfs"]


# Local-query searches and border rows under writes, on a ring of four 30-node
# fragments with ``write-mixed``'s stream shape: a round is one
# ``update_edge`` inside a block (insert 40 %, reweight 40 %, delete of an
# inserted edge 20 %), then one read from the written node to the opposite
# block and three from a Zipf-weighted hot set, each past the result cache.
# A write drops only the rows it may have moved (3.62 a write; a fragment
# holds at most 8), so a read after it searches to refill those and for a
# same-fragment pair.  Border-graph arcs read the backward rows the source
# rows read, so the read from the written node refills them once for both.
# The write itself re-reads the written fragment's arcs, and the endpoint
# rows of the one answer still cached, to decide whether that answer stays:
# it refills what they read, so the rows held drop by 1.48 a write net of
# those refills, and a read searches 0.47 times (1.00 when the write
# refilled nothing).  Dropping every row of a written fragment cost 6.47
# rows and 2.65 searches a read; chain planning, 3.97 rows and 1.10
# searches.  A write inside a block moves no disconnection set, so it
# patches its own fragment's site, plus a neighbour's when it moves a stored
# border-to-border value (their shortcuts change): 61 sites over the 60
# writes.
WRITE_BUDGETS = {
    "searches_per_read": 0.47,
    "rows_dropped_per_write": 3.62,
    "sites_patched_per_write": 1.02,
}


def rows_held(service):
    return sum(held["rows"] for held in service.border_rows().values())


def write_stream_work(rounds: int = 60, seed: int = 11, clear_cache: bool = True):
    """Figures of the write stream: a dict of per-read and per-write counts.

    ``searches_per_read`` (array_dijkstra calls), ``rows_dropped_per_write``,
    ``sites_patched_per_write``, ``hot_hit_share`` (of the three hot-set
    reads a round, the cached ones) and ``evicted_per_write``.  With
    ``clear_cache`` every read goes past the result cache.
    """
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
    searches = dropped = patched = hot_hits = evicted = 0
    for _ in range(rounds):
        roll = rng.random()
        held = rows_held(service)
        evicted -= service.stats.cache_entries_evicted.value()
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
        evicted += service.stats.cache_entries_evicted.value()
        applied = service.database.last_delta
        assert applied is not None, "every write of the stream is absorbed in place"
        patched += len(applied.dirty_fragments)
        far = layout[(block_of[a] + 2) % len(layout)]
        reads = [(a, rng.choice(far))] + rng.choices(hot, zipf, k=3)
        with counted_searches() as calls:
            for index, pair in enumerate(reads):
                if clear_cache:
                    service.cache.clear()
                hot_hits += service.query(*pair).cached and index > 0
        searches += len(calls)
    return {
        "searches_per_read": searches / (4 * rounds),
        "rows_dropped_per_write": dropped / rounds,
        "sites_patched_per_write": patched / rounds,
        "hot_hit_share": hot_hits / (3 * rounds),
        "evicted_per_write": evicted / rounds,
    }


def test_reads_after_a_write_search_little_and_writes_drop_few_rows():
    work = write_stream_work()
    assert work["searches_per_read"] <= WRITE_BUDGETS["searches_per_read"]
    assert work["rows_dropped_per_write"] <= WRITE_BUDGETS["rows_dropped_per_write"]


def test_a_write_patches_only_its_own_fragments_site():
    work = write_stream_work()
    assert work["sites_patched_per_write"] <= WRITE_BUDGETS["sites_patched_per_write"]


# The same stream with the result cache left alone: of the three hot-set
# reads a round, the share answered from the cache, and the cached answers a
# write evicts.  A write evicts an answer only when an input it read moved
# (an endpoint value, or a fragment's border-graph arcs, or only-worse arcs on
# its chain).  Evicting every answer depending on a written fragment gave
# 0.239 and 3.62.
CACHE_BUDGETS = {
    "hot_hit_share": 0.50,
    "evicted_per_write": 2.60,
}


def test_a_write_evicts_only_the_cached_answers_it_changed():
    work = write_stream_work(clear_cache=False)
    assert work["hot_hit_share"] >= CACHE_BUDGETS["hot_hit_share"]
    assert work["evicted_per_write"] <= CACHE_BUDGETS["evicted_per_write"]


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


# A snapshot of the ring of four 30-node fragments (360 arcs), every site
# warm, stores 72.6 payload bytes per arc: the graph's arcs as two int32
# label indices and a float64 weight, each fragment's edge indices, the
# insertion orders, and each site's CSR arrays in both directions, under a
# section table of ~2 KB.  The pickled payload it replaced stored 65.3.
SNAPSHOT_BYTES_PER_ARC = 73.0


def test_a_snapshot_stores_few_bytes_per_arc_and_rejects_a_damaged_section(tmp_path, monkeypatch):
    fragmentation, _ = ring_layout(4, 30)
    service = QueryService(fragmentation)
    for site in service.engine().catalog.sites():
        site.compact()
    manifest = service.snapshot(tmp_path / "snap")
    path = tmp_path / "snap" / PAYLOAD_FILE
    raw = path.read_bytes()
    assert len(raw) / manifest.edge_count <= SNAPSHOT_BYTES_PER_ARC
    damaged = bytearray(raw)
    damaged[-1] ^= 0x10  # inside the last section, a site's weights
    path.write_bytes(bytes(damaged))

    def no_graph(*args, **kwargs):  # pragma: no cover - the point is it never runs
        raise AssertionError("a damaged section must be rejected before DiGraph is called")

    monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
    with pytest.raises(SnapshotError, match="fails its crc32"):
        load_snapshot(tmp_path / "snap")
