"""The ``stats`` verb's document, pinned key by key.

Consoles, the network front and scripts read this document; a counter that
changes type (``3`` to ``3.0``), goes missing or counts differently breaks
them.  A fixed stream on a ring of four 30-node fragments: a query, the same
query again, a batch holding a duplicate pair and the cached pair, and one
reweight inside fragment 0.
"""

from repro.observability import SLOMonitor, default_slos
from repro.serving.protocol import parse_line
from repro.serving.verbs import execute
from repro.service import QueryService
from tests.transit_layouts import ring_layout

INT_COUNTERS = {
    "queries": 5,
    "batches": 1,
    "batched_queries": 3,
    "cache_hits": 3,
    "cache_misses": 2,
    "local_evaluations": 8,
    "reread_tasks": 2,
    "shared_subqueries_saved": 0,
    "duplicate_queries_saved": 1,
    "invalidations": 1,
    "scoped_invalidations": 1,
    "cache_entries_evicted": 2,
    "updates_applied": 1,
    "replayed_records": 0,
    "snapshots_saved": 0,
    "snapshots_loaded": 0,
    "owner_count": 0,
    "queue_depth": 0,
    "queue_depth_peak": 0,
    "migrations": 0,
    "placement_aware_batches": 0,
    "batch_owner_rounds": 0,
    "refragments": 0,
    "scoped_refragments": 0,
    "refragment_fragments_rebuilt": 0,
    "refragment_fragments_kept": 0,
    "refragment_moved_edges": 0,
    "border_nodes_recovered": 0,
    "replica_refreshes": 0,
    "replica_repins_deferred": 0,
}

LABELED_COUNTERS = {
    "cache_decisions": {"kept": 0, "endpoint_rows": 0, "arcs_moved": 2, "only_worse_on_chain": 0, "no_inputs": 0},
    "transit_lookups": {"hit": 0, "miss": 5},
    "border_row_lookups": {"read": 14, "fill": 26},
    "update_fallbacks": {"begin": 0, "complete": 0, "unsupported": 0},
    "per_site_load": {0: 2, 1: 2, 2: 2, 3: 2},
    "per_owner_dispatch": {},
}

FLOATS = (
    "hit_rate",
    "dispatch_skew",
    "total_latency",
    "cached_latency",
    "evaluated_latency",
    "average_latency",
    "average_cached_latency",
    "average_evaluated_latency",
    "max_latency",
    "max_cached_latency",
    "max_evaluated_latency",
)


def stats_document():
    fragmentation, layout = ring_layout(4, 30)
    service = QueryService(fragmentation)
    monitor = SLOMonitor(service.registry, default_slos())
    pair, other = (layout[0][5], layout[2][10]), (layout[1][3], layout[3][7])
    service.query(*pair)
    service.query(*pair)
    service.query_batch([other, other, pair])
    service.update_edge(layout[0][1], layout[0][2], 2.5)
    return execute(service, parse_line("stats"), monitor=monitor, profiler=None)


def test_the_stats_document_keeps_its_keys_types_and_counts():
    document = stats_document()
    assert set(document) == {"ok", "stats", "latency_quantiles", "slo"}
    stats = document["stats"]
    assert set(stats) == set(INT_COUNTERS) | set(LABELED_COUNTERS) | set(FLOATS)
    for key, count in INT_COUNTERS.items():
        assert type(stats[key]) is int and stats[key] == count, key
    for key, series in LABELED_COUNTERS.items():
        assert stats[key] == series, key
        assert all(type(value) is int for value in stats[key].values()), key
    for key in FLOATS:
        assert type(stats[key]) is float, key
    assert stats["hit_rate"] == 0.6
    assert stats["dispatch_skew"] == 0.0
    assert stats["max_latency"] == max(stats["max_cached_latency"], stats["max_evaluated_latency"])
    quantiles = document["latency_quantiles"]
    assert set(quantiles) == {"evaluated", "cached"}
    for series in quantiles.values():
        assert set(series) == {"p50", "p90", "p99"}
        assert all(type(value) is float and value > 0 for value in series.values())
