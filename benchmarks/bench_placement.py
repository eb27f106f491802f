"""Shared-nothing placement: the placement subsystem's receipts.

Four claims are measured and asserted on the sample transportation workload:

* **Equivalence** — the owner-routed pool returns exactly the in-process
  evaluator's answers on the same query stream.
* **Memory** — each routed worker pins only the fragments it owns: the
  per-worker pinned-site count is at most ``ceil(fragments / workers) +
  replication`` and no worker's resident payload is the whole catalog.
* **Scoped re-pins** — a single-fragment update travels to that fragment's
  owner(s) only (one routed message), not to every worker.
* **Rebalancing** — a deliberately skewed plan (every fragment parked on one
  worker) is repaired by ``RebalanceAdvisor`` migrations on the live pool:
  the worker processes keep their PIDs (no restart) and answers stay
  identical throughout.

Figures are written to ``BENCH_placement.json``.  Run
``python benchmarks/bench_placement.py`` directly (``--tiny`` for the CI
smoke configuration), or through pytest
(``pytest benchmarks/bench_placement.py -s``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import time
from pathlib import Path

from repro.fragmentation import CenterBasedFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.placement import PlacementPlan
from repro.service import QueryService

try:  # pytest provides print_report when collected as part of the harness
    from .conftest import print_report
except ImportError:  # direct `python benchmarks/bench_placement.py` run
    def print_report(title: str, body: str) -> None:
        separator = "=" * max(len(title), 20)
        print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


OUTPUT_FILE = os.environ.get("BENCH_PLACEMENT_OUT", "BENCH_placement.json")
WORKERS = 2


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
        network.clusters, 6 if tiny else 16, seed=5, minimum_cluster_distance=1
    )
    return network.graph, fragmentation, [(q.source, q.target) for q in queries]


def _timed_answers(service, queries, rounds):
    answers = []
    started = time.perf_counter()
    for _ in range(rounds):
        for source, target in queries:
            answers.append(service.query(source, target).value)
    return answers, time.perf_counter() - started


def bench_routing_equivalence(fragmentation, queries, rounds):
    """Identical answers in-process vs owner-routed pool."""
    in_process = QueryService(fragmentation)
    baseline_answers, baseline_seconds = _timed_answers(in_process, queries, rounds)
    with QueryService(fragmentation, placement="cost_balanced", workers=WORKERS) as placed:
        placed_answers, placed_seconds = _timed_answers(placed, queries, rounds)
        owner_dispatch = placed.stats.counts(placed.stats.per_owner_dispatch)
        dispatch_skew = placed.stats.dispatch_skew()
    assert placed_answers == baseline_answers, (
        "owner-routed and in-process answers must be identical"
    )
    return {
        "identical_answers": True,
        "rounds": rounds,
        "in_process_seconds": baseline_seconds,
        "placed_seconds": placed_seconds,
        "per_owner_dispatch": owner_dispatch,
        "dispatch_skew": round(dispatch_skew, 4),
    }


def bench_memory(fragmentation):
    """Per-worker resident state: O(fragments / workers) of the catalog."""
    with QueryService(fragmentation, placement="cost_balanced", workers=WORKERS) as placed:
        engine = placed.engine()
        catalog = engine.catalog
        sites = catalog.compact_sites()
        site_bytes = {
            fragment_id: len(pickle.dumps(site, protocol=pickle.HIGHEST_PROTOCOL))
            for fragment_id, site in sites.items()
        }
        placed._require_pool()  # start the routed pool
        census = placed._pool.pinned_census()
        plan = placed.placement_plan
        fragments = len(sites)
        bound = math.ceil(fragments / plan.worker_count) + plan.replication_factor()
        per_worker_counts = {worker: len(pinned) for worker, pinned in census.items()}
        for worker, pinned in census.items():
            assert len(pinned) <= bound, (
                f"worker {worker} pins {len(pinned)} fragments, over the bound {bound}"
            )
        placed_bytes = {
            worker: sum(site_bytes[f] for f in pinned) for worker, pinned in census.items()
        }
        reduction = sum(site_bytes.values()) / max(max(placed_bytes.values()), 1)
    return {
        "fragments": fragments,
        "workers": plan.worker_count,
        "pinned_per_worker": per_worker_counts,
        "pinned_bound": bound,
        "bytes_per_worker_placed": placed_bytes,
        "max_worker_reduction": round(reduction, 2),
    }


def bench_scoped_repin(fragmentation, queries):
    """A single-fragment update re-pins its owner(s) only, not the pool."""
    with QueryService(fragmentation, placement="cost_balanced", workers=WORKERS) as placed:
        for source, target in queries:
            placed.query(source, target)
        plan = placed.placement_plan
        source, target, weight = sorted(
            fragmentation.graph.weighted_edges(), key=repr
        )[0]
        owner_fragment = placed.update_edge(source, target, weight * 1.1)
        pool = placed._pool
        expected_workers = tuple(sorted(set(plan.workers_for(owner_fragment))))
        assert pool.last_repin_workers == expected_workers, (
            f"repin reached workers {pool.last_repin_workers}, expected only "
            f"{expected_workers}"
        )
        assert pool.repin_messages == len(expected_workers) < plan.worker_count + 1
        # Answers remain exact after the scoped re-pin: compare against a
        # fresh in-process service prepared from scratch on the updated graph.
        reference = QueryService(placed.database.fragmentation())
        for source_q, target_q in queries:
            assert placed.query(source_q, target_q).value == reference.query(
                source_q, target_q
            ).value, "post-repin answers must match a from-scratch preparation"
        return {
            "updated_fragment": owner_fragment,
            "repin_workers": list(pool.last_repin_workers),
            "repin_messages": pool.repin_messages,
            "worker_count": plan.worker_count,
            "scoped": pool.repin_messages < plan.worker_count,
        }


def bench_rebalance(fragmentation, queries):
    """A forced skewed plan is repaired by advisor migrations, no restart."""
    fragment_ids = [f.fragment_id for f in fragmentation.fragments]
    skewed = PlacementPlan(
        owner_of={f: 0 for f in fragment_ids}, worker_count=WORKERS
    )
    with QueryService(fragmentation, placement=skewed) as placed:
        answers_before = [placed.query(s, t).value for s, t in queries]
        pool = placed._pool
        pids_before = pool.worker_pids()
        loads = placed.stats.counts(placed.stats.per_site_load)
        skew_before = placed.placement_plan.skew({f: float(loads.get(f, 0)) for f in fragment_ids})
        migrations = placed.rebalance()
        assert migrations, "the advisor must repair an all-on-one plan"
        plan = placed.placement_plan
        loads = placed.stats.counts(placed.stats.per_site_load)
        skew_after = plan.skew({f: float(loads.get(f, 0)) for f in fragment_ids})
        assert pool.worker_pids() == pids_before, "rebalancing must not restart the pool"
        assert plan.max_pinned() <= plan.pinned_bound()
        placed.cache.clear()  # force fresh evaluation through the new owners
        answers_after = [placed.query(s, t).value for s, t in queries]
        assert answers_after == answers_before, (
            "answers must be identical before and after live rebalancing"
        )
        return {
            "migrations": [
                {
                    "fragment": m.fragment_id,
                    "from_worker": m.from_worker,
                    "to_worker": m.to_worker,
                }
                for m in migrations
            ],
            "skew_before": round(skew_before, 4),
            "skew_after": round(skew_after, 4),
            "pool_restarted": False,
            "identical_answers": True,
        }


def run_placement_comparison(*, tiny: bool = False, output: str = OUTPUT_FILE):
    graph, fragmentation, queries = build_workload(tiny=tiny)
    rounds = 2 if tiny else 4

    equivalence = bench_routing_equivalence(fragmentation, queries, rounds)
    memory = bench_memory(fragmentation)
    repin = bench_scoped_repin(fragmentation, queries)
    rebalance = bench_rebalance(fragmentation, queries)

    report = {
        "benchmark": "placement",
        "tiny": tiny,
        "workload": {
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "fragments": fragmentation.fragment_count(),
            "workers": WORKERS,
            "queries": len(queries),
        },
        "equivalence": equivalence,
        "memory": memory,
        "scoped_repin": repin,
        "rebalance": rebalance,
    }
    Path(output).write_text(json.dumps(report, indent=2, sort_keys=True))

    lines = [
        f"{graph.node_count()} nodes / {graph.edge_count()} edges, "
        f"{fragmentation.fragment_count()} fragments on {WORKERS} owner workers, "
        f"{len(queries)} queries x {rounds} rounds",
        "",
        "answers: owner-routed == in-process on every query",
        "",
        f"{'per-worker resident state':<30} {'pinned sites':>13} {'payload bytes':>14}",
        *(
            f"{f'worker {worker} (placed)':<30} {memory['pinned_per_worker'][worker]:>13} "
            f"{memory['bytes_per_worker_placed'][worker]:>14}"
            for worker in sorted(memory["pinned_per_worker"])
        ),
        f"pinned bound ceil(F/W)+r = {memory['pinned_bound']}, whole catalog / "
        f"largest worker = {memory['max_worker_reduction']}x",
        "",
        f"single-fragment update re-pinned workers {repin['repin_workers']} only "
        f"({repin['repin_messages']} message(s) for a {repin['worker_count']}-worker pool)",
        "",
        f"skewed plan repaired live: skew {rebalance['skew_before']} -> "
        f"{rebalance['skew_after']} via {len(rebalance['migrations'])} migration(s), "
        "no pool restart, identical answers",
        "",
        f"figures written to {output}",
    ]
    print_report("Shared-nothing placement", "\n".join(lines))
    return report


def test_placement_report():
    """The ISSUE's acceptance criteria, asserted end to end."""
    report = run_placement_comparison(tiny=True)
    assert report["equivalence"]["identical_answers"]
    memory = report["memory"]
    assert max(memory["pinned_per_worker"].values()) <= memory["pinned_bound"]
    assert memory["max_worker_reduction"] > 1.0
    assert report["scoped_repin"]["scoped"]
    assert report["rebalance"]["identical_answers"]
    assert not report["rebalance"]["pool_restarted"]
    assert report["rebalance"]["skew_after"] < report["rebalance"]["skew_before"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: small graph, few rounds (sanity, not timing)",
    )
    parser.add_argument("--output", default=OUTPUT_FILE, help="JSON results path")
    arguments = parser.parse_args()
    run_placement_comparison(tiny=arguments.tiny, output=arguments.output)
