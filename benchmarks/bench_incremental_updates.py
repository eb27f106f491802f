"""Incremental maintenance vs full invalidation: the update subsystem's receipts.

Two claims are measured and asserted on the sample transportation workload:

* **Locality** — a single-edge update on a multi-fragment catalog dirties
  only the fragment that absorbed it: every other fragment's site object,
  compact graph object, and CSR arrays are object-identical before and after,
  and cached answers that do not depend on the dirty fragment keep serving.
* **Throughput** — under a mixed read/write workload an incremental service
  (scoped complementary repair + per-fragment invalidation) beats the
  full-invalidate baseline (``incremental=False``: every update tears the
  engine down and the next query pays a complete complementary
  recomputation), while returning bit-identical answers.
* **O(delta) writes** — a single-edge ``apply_delta`` absorbed as an overlay
  splice beats the compact-every-apply rebuild (``overlay_threshold=0``) at
  two scales (largest fragment, whole graph) with bit-identical answers, and
  queries reading *through* a non-empty overlay stay within 10% of
  compacted-CSR latency.

Figures are written to ``BENCH_updates.json``.  Run
``python benchmarks/bench_incremental_updates.py`` directly (``--tiny`` for
the CI smoke configuration), or through pytest
(``pytest benchmarks/bench_incremental_updates.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from time import perf_counter

from repro.closure import select_kernel
from repro.closure.backends import BACKEND_BIGINT
from repro.closure.kernels import array_dijkstra, reachability_rows
from repro.fragmentation import CenterBasedFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.graph import CompactDelta, CompactGraph, DiGraph
from repro.service import QueryService

try:  # pytest provides print_report when collected as part of the harness
    from .conftest import print_report
except ImportError:  # direct `python benchmarks/bench_incremental_updates.py` run
    def print_report(title: str, body: str) -> None:
        separator = "=" * max(len(title), 20)
        print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


OUTPUT_FILE = os.environ.get("BENCH_UPDATES_OUT", "BENCH_updates.json")


def build_workload(*, tiny: bool = False):
    """Return (graph, fragmentation, queries) for the sample transportation net."""
    config = TransportationGraphConfig(
        cluster_count=3 if tiny else 4,
        nodes_per_cluster=8 if tiny else 16,
        cluster_c1=520.0,
        cluster_c2=0.04,
        inter_cluster_edges=2,
    )
    network = generate_transportation_graph(config, seed=23)
    fragmentation = CenterBasedFragmenter(
        config.cluster_count, center_selection="distributed"
    ).fragment(network.graph)
    queries = cross_cluster_queries(
        network.clusters, 4 if tiny else 12, seed=5, minimum_cluster_distance=1
    )
    return network.graph, fragmentation, [(q.source, q.target) for q in queries]


def _interior_non_edge(fragmentation):
    """Find two interior nodes of one fragment with no edge between them.

    Inserting a (heavy) edge there is the maximally local update: both
    endpoints belong to exactly one fragment, so no disconnection set's
    membership changes, and the huge weight guarantees no border-to-border
    value improves.
    """
    for fragment in fragmentation.fragments:
        interior = sorted(fragmentation.interior_nodes(fragment.fragment_id), key=repr)
        for i, a in enumerate(interior):
            for b in interior[i + 1:]:
                if not fragmentation.graph.has_edge(a, b):
                    return fragment.fragment_id, a, b
    raise RuntimeError("no fragment with an interior non-edge in this workload")


def bench_locality(fragmentation, queries):
    """Single-edge update: only the owning fragment's compact state moves."""
    service = QueryService(fragmentation, incremental=True)
    for source, target in queries:  # warm the cache and every site's kernels
        service.query(source, target)
    engine = service.engine()
    catalog = engine.catalog
    fragment_ids = [site.fragment_id for site in catalog.sites()]
    sites_before = {fid: catalog.site(fid) for fid in fragment_ids}
    compact_before = {fid: catalog.site(fid).compact() for fid in fragment_ids}
    offsets_before = {fid: compact_before[fid].forward_csr[0] for fid in fragment_ids}
    edges_before = {fid: compact_before[fid].edge_count() for fid in fragment_ids}
    fragments_before = service.database.fragmentation().fragments

    owner, a, b = _interior_non_edge(fragmentation)
    # A query confined to a *different* fragment: its cached answer depends
    # only on that fragment and must survive the update untouched.  Interior
    # endpoints keep the planner from routing chains through other fragments.
    other = next(
        fid
        for fid in fragment_ids
        if fid != owner and len(fragmentation.interior_nodes(fid)) >= 2
    )
    other_nodes = sorted(fragmentation.interior_nodes(other), key=repr)[:2]
    service.query(other_nodes[0], other_nodes[1])
    cache_entries_before = len(service.cache)

    service.update_edge(a, b, 1.0e9)  # too heavy to improve any stored value

    event_dirty = service.database.delta_log.last().dirty_fragments
    assert event_dirty == (owner,), f"expected only fragment {owner} dirty, got {event_dirty}"
    untouched_identical = True
    for fid in fragment_ids:
        same_site = catalog.site(fid) is sites_before[fid]
        same_compact = catalog.site(fid).compact() is compact_before[fid]
        same_arrays = catalog.site(fid).compact().forward_csr[0] is offsets_before[fid]
        if fid == owner:
            assert same_site and same_compact, "the dirty site is patched in place"
            assert not same_arrays, "the dirty fragment's CSR arrays must be rebuilt"
            assert catalog.site(fid).compact().edge_count() == edges_before[fid] + 1
        else:
            untouched_identical = untouched_identical and same_site and same_compact and same_arrays
    assert untouched_identical, "untouched fragments' compact states must be object-identical"
    fragments_after = service.database.fragmentation().fragments
    reused = [fid for fid in fragment_ids if fragments_after[fid] is fragments_before[fid]]
    assert reused == [fid for fid in fragment_ids if fid != owner], (
        "the derived Fragmentation must reuse every untouched Fragment object, "
        f"reused {reused} with owner {owner}"
    )
    assert service.database.statistics.incremental_fallbacks == 0

    cache_entries_after = len(service.cache)
    evicted = service.stats.cache_entries_evicted
    retained = service.query(other_nodes[0], other_nodes[1])
    assert retained.cached, "an answer confined to an untouched fragment must stay cached"
    return {
        "intra_fragment_answer_retained": retained.cached,
        "owner": owner,
        "dirty_fragments": list(event_dirty),
        "fragments": len(fragment_ids),
        "untouched_object_identical": untouched_identical,
        "fragment_objects_reused": len(reused),
        "cache_entries_before": cache_entries_before,
        "cache_entries_after": cache_entries_after,
        "cache_entries_evicted": evicted,
        "scoped_invalidations": service.stats.scoped_invalidations,
    }


def _timed_single_edge_apply(state, delta, *, threshold: int, trials: int = 7):
    """Best-of-``trials`` seconds for one ``apply_delta`` at a threshold.

    ``threshold=0`` compacts inside every apply — the from-scratch rebuild
    baseline; a huge threshold keeps the change in the overlay — the
    O(delta) path.  Each trial starts from a fresh hydration of the same
    state so interning and row order are identical on both sides.
    """
    best = float("inf")
    graph = None
    for _ in range(trials):
        graph = CompactGraph.from_state(state)
        graph.overlay_threshold = threshold
        started = perf_counter()
        graph.apply_delta(delta)
        best = min(best, perf_counter() - started)
    return best, graph


def _min_seconds(function, trials: int):
    best = float("inf")
    for _ in range(trials):
        started = perf_counter()
        function()
        best = min(best, perf_counter() - started)
    return best


def bench_overlay_updates(graph, fragmentation, *, tiny: bool):
    """Single-edge apply_delta: overlay splice vs compact-every-apply rebuild.

    Measured at two scales — the largest bench fragment and the whole graph.
    Answers (edge lists, reachability rows, Dijkstra distances) must be
    bit-identical whether the graph reads through the overlay or from the
    rebuilt CSR; the overlay path must also be selected by the kernel
    dispatcher (``select_kernel`` routes non-empty overlays to the big-int
    mask kernel).
    """
    largest = max(fragmentation.fragments, key=lambda fragment: len(fragment.edges))
    fragment_graph = DiGraph(
        [
            (a, b, graph.edge_weight(a, b))
            for a, b in sorted(largest.edges, key=repr)
        ]
    )
    scales = [
        (f"largest_fragment_{largest.fragment_id}", fragment_graph),
        ("whole_graph", graph),
    ]
    results = {}
    read_ratio = None
    for label, digraph in scales:
        base = CompactGraph.from_digraph(digraph)
        state = base.state()
        nodes = sorted(digraph.nodes(), key=repr)
        delta = CompactDelta(inserts=((nodes[0], nodes[-1], 1.0e9),))
        overlay_seconds, overlay_graph = _timed_single_edge_apply(
            state, delta, threshold=1 << 30
        )
        rebuild_seconds, rebuild_graph = _timed_single_edge_apply(
            state, delta, threshold=0
        )
        assert overlay_graph.has_overlay(), "the O(delta) side must stay an overlay"
        assert not rebuild_graph.has_overlay(), "threshold 0 must compact inside apply"
        assert select_kernel(overlay_graph) == BACKEND_BIGINT, (
            "a non-empty overlay must route to the mask-reading kernel"
        )
        # Bit-identical answers through the overlay: same state hydration on
        # both sides means ids match, so rows compare directly.
        assert sorted(overlay_graph.weighted_edges()) == sorted(
            rebuild_graph.weighted_edges()
        )
        ids = list(range(overlay_graph.node_count()))
        overlay_rows, chosen = reachability_rows(overlay_graph, ids, whole_graph=True)
        rebuild_rows, _ = reachability_rows(
            rebuild_graph, ids, whole_graph=True, backend=BACKEND_BIGINT
        )
        assert chosen == BACKEND_BIGINT and overlay_rows == rebuild_rows
        for source_id in ids[: min(4, len(ids))]:
            assert (
                array_dijkstra(overlay_graph, source_id)[0]
                == array_dijkstra(rebuild_graph, source_id)[0]
            )
        speedup = rebuild_seconds / overlay_seconds if overlay_seconds else float("inf")
        results[label] = {
            "nodes": overlay_graph.node_count(),
            "edges": overlay_graph.edge_count(),
            "overlay_apply_seconds": overlay_seconds,
            "rebuild_apply_seconds": rebuild_seconds,
            "apply_speedup": speedup,
            "overlay_selected": True,
            "identical_answers": True,
        }
        if not tiny:
            assert speedup >= 10.0, (
                f"single-edge apply at {label} must be >=10x faster through the "
                f"overlay, got {speedup:.1f}x"
            )
        if label == "whole_graph":
            # Overlay-read latency: the big-int kernel reads the maintained
            # masks, so a query through a live overlay must cost what the
            # compacted graph costs.  Masks are warm from the row check above.
            trials = 9 if tiny else 25
            through_overlay = _min_seconds(
                lambda: reachability_rows(
                    overlay_graph, ids, whole_graph=True, backend=BACKEND_BIGINT
                ),
                trials,
            )
            overlay_graph.compact_now(reason="benchmark")
            compacted = _min_seconds(
                lambda: reachability_rows(
                    overlay_graph, ids, whole_graph=True, backend=BACKEND_BIGINT
                ),
                trials,
            )
            read_ratio = through_overlay / compacted if compacted else 1.0
            if not tiny:
                assert read_ratio <= 1.10, (
                    f"overlay reads must stay within 10% of compacted-CSR "
                    f"latency, got {read_ratio:.3f}x"
                )
    return {
        "scales": results,
        "overlay_read_over_compacted_latency": read_ratio,
    }


def _mixed_run(fragmentation, queries, update_edges, rounds: int, *, incremental: bool):
    """Interleave query rounds with edge reweights; return answers + figures."""
    service = QueryService(fragmentation, incremental=incremental)
    for source, target in queries:  # warm-up outside the timed window
        service.query(source, target)
    answers = []
    update_seconds = 0.0
    started = time.perf_counter()
    for round_index in range(rounds):
        for source, target in queries:
            answers.append(service.query(source, target).value)
        source, target, weight = update_edges[round_index % len(update_edges)]
        factor = 0.9 if round_index % 2 else 1.1
        update_started = time.perf_counter()
        service.update_edge(source, target, weight * factor)
        update_seconds += time.perf_counter() - update_started
    for source, target in queries:  # settle the final update's cost both ways
        answers.append(service.query(source, target).value)
    elapsed = time.perf_counter() - started
    operations = rounds * (len(queries) + 1) + len(queries)
    database = service.database
    return answers, {
        "seconds": elapsed,
        "ops_per_second": operations / elapsed,
        "update_seconds": update_seconds,
        "updates_applied": service.stats.updates_applied,
        "incremental_updates": database.statistics.incremental_updates,
        "incremental_fallbacks": database.statistics.incremental_fallbacks,
        "engine_rebuilds": database.statistics.engine_rebuilds,
        "rows_recomputed": database.statistics.rows_recomputed,
        "cache_entries_evicted": service.stats.cache_entries_evicted,
        "hit_rate": round(service.stats.hit_rate(), 4),
    }


def bench_mixed_workload(fragmentation, queries, rounds: int):
    """Incremental vs full-invalidate service on the same read/write stream."""
    update_edges = [
        (source, target, weight)
        for source, target, weight in sorted(fragmentation.graph.weighted_edges(), key=repr)
    ]
    update_edges = update_edges[:: max(1, len(update_edges) // 8)][:8]
    incremental_answers, incremental = _mixed_run(
        fragmentation, queries, update_edges, rounds, incremental=True
    )
    full_answers, full = _mixed_run(
        fragmentation, queries, update_edges, rounds, incremental=False
    )
    assert incremental_answers == full_answers, (
        "incremental and full-invalidate services must return identical answers"
    )
    assert incremental["incremental_fallbacks"] == 0, (
        "every update of the mixed stream must be absorbed in place, "
        f"{incremental['incremental_fallbacks']} fell back to the full rebuild"
    )
    return {
        "rounds": rounds,
        "queries_per_round": len(queries),
        "identical_answers": True,
        "incremental": incremental,
        "full_invalidate": full,
        "speedup": full["seconds"] / incremental["seconds"],
    }


def run_update_comparison(*, tiny: bool = False, output: str = OUTPUT_FILE):
    graph, fragmentation, queries = build_workload(tiny=tiny)
    rounds = 4 if tiny else 12

    locality = bench_locality(fragmentation, queries)
    overlay = bench_overlay_updates(graph, fragmentation, tiny=tiny)
    mixed = bench_mixed_workload(fragmentation, queries, rounds)

    report = {
        "benchmark": "incremental_updates",
        "tiny": tiny,
        "workload": {
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "fragments": fragmentation.fragment_count(),
            "queries": len(queries),
        },
        "locality": locality,
        "overlay": overlay,
        "mixed": mixed,
    }
    Path(output).write_text(json.dumps(report, indent=2, sort_keys=True))

    incremental = mixed["incremental"]
    full = mixed["full_invalidate"]
    lines = [
        f"{graph.node_count()} nodes / {graph.edge_count()} edges, "
        f"{fragmentation.fragment_count()} fragments, {len(queries)} queries, "
        f"{mixed['rounds']} update rounds",
        "",
        f"single-edge locality: dirty={locality['dirty_fragments']} of "
        f"{locality['fragments']} fragments, "
        f"{locality['cache_entries_after']}/{locality['cache_entries_before']} "
        "cached answers kept, untouched compact states object-identical",
        "",
        f"{'single-edge apply_delta':<26} {'overlay s':>11} {'rebuild s':>11} {'speedup':>9}",
        *(
            f"{label:<26} {row['overlay_apply_seconds']:>11.7f} "
            f"{row['rebuild_apply_seconds']:>11.7f} {row['apply_speedup']:>8.1f}x"
            for label, row in overlay["scales"].items()
        ),
        f"overlay-read latency / compacted: "
        f"{overlay['overlay_read_over_compacted_latency']:.3f}x",
        "",
        f"{'mixed read/write':<26} {'seconds':>9} {'ops/s':>9} {'rebuilds':>9} {'hit rate':>9}",
        f"{'incremental':<26} {incremental['seconds']:>9.4f} "
        f"{incremental['ops_per_second']:>9.1f} {incremental['engine_rebuilds']:>9} "
        f"{incremental['hit_rate']:>9.2f}",
        f"{'full invalidate':<26} {full['seconds']:>9.4f} "
        f"{full['ops_per_second']:>9.1f} {full['engine_rebuilds']:>9} "
        f"{full['hit_rate']:>9.2f}",
        "",
        f"speedup {mixed['speedup']:.1f}x, answers identical on every operation",
        "",
        f"figures written to {output}",
    ]
    print_report("Incremental maintenance vs full invalidation", "\n".join(lines))
    return report


def test_incremental_update_report():
    """Updates must stay scoped, answers identical, and throughput must win."""
    report = run_update_comparison(tiny=True)
    assert report["locality"]["untouched_object_identical"]
    assert report["locality"]["dirty_fragments"] == [report["locality"]["owner"]]
    assert report["mixed"]["identical_answers"]
    assert report["mixed"]["speedup"] > 1.0
    assert report["mixed"]["incremental"]["engine_rebuilds"] == 1  # the initial build only
    for row in report["overlay"]["scales"].values():
        assert row["overlay_selected"] and row["identical_answers"]
        assert row["apply_speedup"] > 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: small graph, few rounds (sanity, not timing)",
    )
    parser.add_argument("--output", default=OUTPUT_FILE, help="JSON results path")
    arguments = parser.parse_args()
    run_update_comparison(tiny=arguments.tiny, output=arguments.output)
