"""Live refragmentation: the boundary-redraw subsystem's receipts.

Three claims are measured and asserted on the sample transportation workload:

* **Locality recovery** — a deliberately eroded (hash) layout over a
  clustered graph is redrawn by the :class:`RefragmentationAdvisor`'s
  recommendation: distinct border nodes, cross-fragment edge ratio and
  complementary fact count all shrink, and every answer after the live
  redraw equals a from-scratch build's.
* **Scoped redraw** — under an active ``PlacedWorkerPool``, a redraw that
  moves a few nodes between two adjacent clusters rebuilds *only* the
  affected fragments: unchanged fragments' compact states stay
  object-identical, the workers keep their PIDs, and the re-shipped edge
  count is a fraction of what a full rebuild re-ships.
* **Replay parity** — a replica restoring a pre-redraw snapshot replays a
  delta-log tail *containing the refragment record* and answers exactly like
  the live database.

Figures are written to ``BENCH_refragmentation.json``.  Run
``python benchmarks/bench_refragmentation.py`` directly (``--tiny`` for the
CI smoke configuration), or through pytest
(``pytest benchmarks/bench_refragmentation.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import tempfile
import time
from pathlib import Path

from repro.closure import shortest_path_cost
from repro.fragmentation import GroundTruthFragmenter, HashFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.refragmentation import RefragmentationAdvisor, measure_layout
from repro.service import QueryService


def _same_answers(left, right):
    """Value-identical answer streams, tolerating last-ULP float reassociation."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, float) and isinstance(b, float):
            if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                return False
        elif a != b:
            return False
    return True

try:  # pytest provides print_report when collected as part of the harness
    from .conftest import print_report
except ImportError:  # direct `python benchmarks/bench_refragmentation.py` run
    def print_report(title: str, body: str) -> None:
        separator = "=" * max(len(title), 20)
        print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


OUTPUT_FILE = os.environ.get("BENCH_REFRAGMENTATION_OUT", "BENCH_refragmentation.json")
WORKERS = 2


def build_workload(*, tiny: bool = False):
    """Return (network, clustered blocks, queries) for the sample graph."""
    config = TransportationGraphConfig(
        cluster_count=3 if tiny else 4,
        nodes_per_cluster=8 if tiny else 14,
        cluster_c1=520.0,
        cluster_c2=0.04,
        inter_cluster_edges=2,
    )
    network = generate_transportation_graph(config, seed=31)
    queries = cross_cluster_queries(
        network.clusters, 6 if tiny else 14, seed=9, minimum_cluster_distance=1
    )
    return network, [(q.source, q.target) for q in queries]


def bench_locality_recovery(network, queries):
    """An eroded layout is redrawn by the advisor; locality and parity asserted."""
    graph = network.graph
    cluster_count = len(network.clusters)
    eroded = HashFragmenter(cluster_count).fragment(graph)
    advisor = RefragmentationAdvisor(
        fragmenter_factory=lambda g, n: GroundTruthFragmenter(
            [set(cluster) for cluster in network.clusters]
        )
    )
    service = QueryService(eroded)
    before = measure_layout(eroded)
    answers_before = [service.query(s, t).value for s, t in queries]
    started = time.perf_counter()
    result = service.refragment(advisor=advisor)
    redraw_seconds = time.perf_counter() - started
    after = measure_layout(service.database.fragmentation())
    assert after.border_nodes < before.border_nodes, (
        "the advisor's redraw must recover locality"
    )
    answers_after = [service.query(s, t).value for s, t in queries]
    fresh = QueryService(service.database.fragmentation())
    answers_fresh = [fresh.query(s, t).value for s, t in queries]
    assert _same_answers(answers_after, answers_fresh), (
        "answers after a live redraw must equal a from-scratch build's"
    )
    assert _same_answers(answers_after, answers_before), (
        "a redraw changes the layout, never the answers"
    )
    return {
        "scoped": result is not None,
        "redraw_seconds": redraw_seconds,
        "signals_before": before.as_dict(),
        "signals_after": after.as_dict(),
        "border_nodes_recovered": before.border_nodes - after.border_nodes,
        "complementary_facts_saved": before.complementary_facts - after.complementary_facts,
        "identical_answers": True,
    }


def bench_scoped_redraw(network, queries):
    """A local redraw under a live routed pool rebuilds only what moved."""
    graph = network.graph
    blocks = [set(cluster) for cluster in network.clusters]
    fragmentation = GroundTruthFragmenter(blocks).fragment(graph)
    # Move two nodes between the *last two* clusters; the others are untouched.
    shifted = [set(block) for block in blocks]
    movers = sorted(shifted[-1])[:2]
    for node in movers:
        shifted[-2].add(node)
        shifted[-1].discard(node)
    with QueryService(fragmentation, placement="cost_balanced", workers=WORKERS) as service:
        for source, target in queries:
            service.query(source, target)
        pool = service._pool
        pids_before = pool.worker_pids()
        compact_before = {
            site.fragment_id: site.compact() for site in service.engine().catalog.sites()
        }
        result = service.refragment(GroundTruthFragmenter(shifted))
        assert result is not None, "the redraw must be absorbed in place"
        assert pool.worker_pids() == pids_before, "workers must keep their PIDs"
        owners = {pool.plan.owner(fragment_id) for fragment_id in result.changed}
        assert set(pool.last_repin_workers) <= owners, (
            f"the redraw re-pinned workers {pool.last_repin_workers}; only the "
            f"owners {sorted(owners)} of the rebuilt fragments may receive one"
        )
        for fragment_id in result.unchanged:
            assert (
                service.engine().catalog.site(fragment_id).compact()
                is compact_before[fragment_id]
            ), "unchanged fragments' compact states must stay object-identical"
        total_edges = graph.edge_count()
        answers = [service.query(s, t).value for s, t in queries]
        fresh = QueryService(service.database.fragmentation())
        assert _same_answers(answers, [fresh.query(s, t).value for s, t in queries])
        return {
            "fragments": fragmentation.fragment_count(),
            "fragments_rebuilt": len(result.changed),
            "fragments_kept": len(result.unchanged),
            "moved_edges": result.moved_edges,
            "full_rebuild_edges": total_edges,
            "edge_ship_fraction": round(result.moved_edges / total_edges, 4),
            "worker_pids_stable": True,
            "identical_answers": True,
        }


def bench_replay_parity(network, queries):
    """A replica replays a tail containing the refragment record exactly."""
    graph = network.graph
    blocks = [set(cluster) for cluster in network.clusters]
    live = QueryService(GroundTruthFragmenter(blocks).fragment(graph))
    rng = random.Random(17)
    nodes = sorted(graph.nodes())
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap"
        live.snapshot(snap)
        for _ in range(4):
            source, target = rng.sample(nodes, 2)
            live.update_edge(source, target, rng.uniform(0.5, 3.0))
        shifted = [set(block) for block in blocks]
        mover = sorted(shifted[0])[0]
        shifted[1].add(mover)
        shifted[0].discard(mover)
        live.refragment(GroundTruthFragmenter(shifted))
        for _ in range(3):
            source, target = rng.sample(nodes, 2)
            live.update_edge(source, target, rng.uniform(0.5, 3.0))
        restored = QueryService.from_snapshot(snap, replay_log=live.database.delta_log)
        replayed = restored.stats.replayed_records
        assert replayed == 8, f"expected 8 replayed records, got {replayed}"
        for source, target in queries:
            got = restored.query(source, target).value
            want = shortest_path_cost(live.database.graph, source, target)
            assert abs(got - want) < 1e-9, (source, target, got, want)
    return {
        "replayed_records": replayed,
        "crossed_refragment_record": True,
        "identical_answers": True,
    }


def run_refragmentation_benchmark(*, tiny: bool = False, output: str = OUTPUT_FILE):
    network, queries = build_workload(tiny=tiny)
    graph = network.graph

    locality = bench_locality_recovery(network, queries)
    scoped = bench_scoped_redraw(network, queries)
    replay = bench_replay_parity(network, queries)

    report = {
        "benchmark": "refragmentation",
        "tiny": tiny,
        "workload": {
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "clusters": len(network.clusters),
            "workers": WORKERS,
            "queries": len(queries),
        },
        "locality_recovery": locality,
        "scoped_redraw": scoped,
        "replay": replay,
    }
    Path(output).write_text(json.dumps(report, indent=2, sort_keys=True))

    before = locality["signals_before"]
    after = locality["signals_after"]
    lines = [
        f"{graph.node_count()} nodes / {graph.edge_count()} edges, "
        f"{len(network.clusters)} clusters, {len(queries)} probe queries",
        "",
        "advisor-driven redraw of an eroded hash layout "
        f"({'scoped' if locality['scoped'] else 'full rebuild'}, "
        f"{locality['redraw_seconds']:.3f}s):",
        f"{'':<4}{'':<24} {'before':>10} {'after':>10}",
        f"{'':<4}{'border nodes':<24} {before['border_nodes']:>10} {after['border_nodes']:>10}",
        f"{'':<4}{'cross-edge ratio':<24} {before['cross_edge_ratio']:>10} {after['cross_edge_ratio']:>10}",
        f"{'':<4}{'complementary facts':<24} {before['complementary_facts']:>10} {after['complementary_facts']:>10}",
        "",
        f"scoped redraw under the routed pool: rebuilt "
        f"{scoped['fragments_rebuilt']} of {scoped['fragments']} fragments, "
        f"re-shipped {scoped['moved_edges']} of {scoped['full_rebuild_edges']} edges "
        f"({scoped['edge_ship_fraction']:.0%} of a full rebuild), worker PIDs stable",
        "",
        f"replica replayed {replay['replayed_records']} records across the "
        "refragment record with identical answers",
        "",
        f"figures written to {output}",
    ]
    print_report("Live refragmentation: locality, scoping, replay", "\n".join(lines))
    return report


def test_refragmentation_report():
    """The ISSUE's acceptance criteria, asserted end to end."""
    report = run_refragmentation_benchmark(tiny=True)
    locality = report["locality_recovery"]
    assert locality["identical_answers"]
    assert locality["border_nodes_recovered"] > 0
    scoped = report["scoped_redraw"]
    assert scoped["worker_pids_stable"]
    assert scoped["fragments_kept"] >= 1
    assert scoped["moved_edges"] < scoped["full_rebuild_edges"]
    assert report["replay"]["crossed_refragment_record"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: small graph (sanity, not timing)",
    )
    parser.add_argument("--output", default=OUTPUT_FILE, help="JSON results path")
    arguments = parser.parse_args()
    run_refragmentation_benchmark(tiny=arguments.tiny, output=arguments.output)
