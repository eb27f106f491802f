"""Layer probes of the traced run: each times one layer's public function alone.

The replay gives a layer's time *inside the workload's ops*; a probe calls
the layer directly on the workload's own graph and catalog, on the pairs the
workload itself read, with the same inputs for every alternative (the three
reachability backends see the same sources), so a number here moves only
when that layer moves.  The benchmark contract wants every per-layer metric
from every traced run, so every probe runs whatever the workload; a value the
workload's own stream or set-up already gave is kept (``Traced.fill``), and
what a probe supplies is marked ``probe`` in the summary's ``sources``.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.closure import array_dijkstra, reachability_rows
from repro.closure.backends import KERNEL_BACKENDS, chain_index, packed_matrix
from repro.disconnection import LocalQueryEvaluator, QueryPlanner, collect_task_keys
from repro.disconnection.catalog import DistributedCatalog
from repro.disconnection.planner import LocalQuerySpec
from repro.fragmentation import (
    BondEnergyFragmenter,
    CenterBasedFragmenter,
    LinearFragmenter,
    characterize,
)
from repro.graph.compact import CompactGraph
from repro.observability import MetricsRegistry
from repro.placement import plan_placement
from repro.refragmentation.advisor import measure_layout
from repro.service.cache import CachedAnswer, CacheKey, LRUCache
from repro.service.pool import PinUpdate, PlacedWorkerPool
from repro.service.server import QueryService

import graphs
import measure
from workloads import GRAPH_SEED, OUT_DIR, Pair, Prepare, no_stage

Metric = Tuple[float, str]
TaskKey = Tuple[int, frozenset, frozenset]

MAX_KERNEL_TASKS = 48
CACHE_PROBE_KEYS = 1000
# Bond energy grows roughly with the cube of the node count; beyond this size
# it does not fit in a run (7.9 s at 200 nodes, 75 s at 400).
BOND_GRAPH = {"gate": "ring-4x25-sym", "tiny": "ring-3x12-sym"}


def tasks_of(catalog: DistributedCatalog, pairs: Sequence[Pair]) -> List[TaskKey]:
    """The distinct local subqueries the planner derives for ``pairs``."""
    planner = QueryPlanner(catalog)
    tasks, _ = collect_task_keys([planner.plan(source, target) for source, target in pairs])
    return tasks


def kernels(catalog: DistributedCatalog, tasks: Sequence[TaskKey]) -> Dict[str, Metric]:
    """Dijkstra and each reachability backend on the same site graphs and sources."""
    dijkstra: List[float] = []
    rows: Dict[str, List[float]] = {backend: [] for backend in KERNEL_BACKENDS}
    warmed = set()
    for fragment_id, entry_nodes, exit_nodes in tasks[:MAX_KERNEL_TASKS]:
        graph = catalog.site(fragment_id).compact()
        entries = [i for i in (graph.try_node_id(node) for node in entry_nodes) if i >= 0]
        exits = [i for i in (graph.try_node_id(node) for node in exit_nodes) if i >= 0]
        if not entries or not exits:
            continue
        for entry in entries:  # one sample per call, as the replay's spans are
            started = perf_counter()
            array_dijkstra(graph, entry, target_ids=exits)
            dijkstra.append(perf_counter() - started)
        stop_mask = sum(1 << i for i in exits)
        for backend in KERNEL_BACKENDS:
            if (fragment_id, backend) not in warmed:
                # The first call builds the backend's index; that cost is
                # closure.index_build_ms, not a row's.
                warmed.add((fragment_id, backend))
                reachability_rows(graph, entries, backend=backend, context="harness_probe")
            started = perf_counter()
            reachability_rows(
                graph, entries, backend=backend, context="harness_probe", stop_mask=stop_mask
            )
            rows[backend].append(perf_counter() - started)
    builds: List[float] = []
    for site in catalog.sites():
        fresh = CompactGraph.from_digraph(site.augmented_subgraph())
        started = perf_counter()
        chain_index(fresh)
        packed_matrix(fresh)
        builds.append(perf_counter() - started)
    metrics = {
        "closure.dijkstra_ms": (measure.median(dijkstra) * 1e3, "ms"),
        "closure.index_build_ms": (measure.median(builds) * 1e3, "ms"),
    }
    for backend, samples in rows.items():
        metrics[f"closure.rows_{backend}_ms"] = (measure.median(samples) * 1e3, "ms")
    return metrics


def compact_build(catalog: DistributedCatalog) -> Dict[str, Metric]:
    samples = []
    for site in catalog.sites():
        started = perf_counter()
        CompactGraph.from_digraph(site.subgraph)
        samples.append(perf_counter() - started)
    return {"graph.compact_build_ms": (measure.median(samples) * 1e3, "ms")}


def cache(service: QueryService) -> Dict[str, Metric]:
    """``LRUCache.put`` / ``get`` with the key and entry types the service stores."""
    probe = LRUCache(1024, registry=MetricsRegistry())
    vector = service.version_vector
    keys = [
        CacheKey(source=i, target=i + 1, semiring=service.semiring.name, base_version="live")
        for i in range(CACHE_PROBE_KEYS)
    ]
    entry = CachedAnswer(
        value=1.0, chain=(0, 1), epoch=vector.epoch, fragment_versions=vector.snapshot_of([0, 1])
    )
    started = perf_counter()
    for key in keys:
        probe.put(key, entry)
    put_seconds = perf_counter() - started
    started = perf_counter()
    for key in keys:
        probe.get(key)
    get_seconds = perf_counter() - started
    return {
        "service.cache_put_us": (put_seconds / len(keys) * 1e6, "us"),
        "service.cache_get_us": (get_seconds / len(keys) * 1e6, "us"),
    }


def tracing_ratio(service: QueryService, pairs: Sequence[Pair]) -> Dict[str, Metric]:
    """Cache-hit throughput with ``service.tracer`` on over off (``pairs`` are cached)."""
    seconds = {True: 0.0, False: 0.0}
    was_enabled = service.tracer.enabled
    for source, target in pairs:  # whatever a probe write evicted is cached again
        service.query(source, target)
    try:
        for block in range(6):
            enabled = block % 2 == 0
            (service.tracer.enable if enabled else service.tracer.disable)()
            started = perf_counter()
            for _ in range(10):
                for source, target in pairs:
                    service.query(source, target)
            seconds[enabled] += perf_counter() - started
    finally:
        (service.tracer.enable if was_enabled else service.tracer.disable)()
    return {"observability.tracing_on_ratio": (seconds[False] / seconds[True], "ratio")}


def pool(
    catalog: DistributedCatalog, semiring, batches: Sequence[Sequence[TaskKey]]
) -> Dict[str, Metric]:
    """A 2-worker placed pool against in-process evaluation of the same tasks."""
    sites = catalog.sites()
    started = perf_counter()
    plan = plan_placement(
        "cost_balanced",
        2,
        fragment_ids=[site.fragment_id for site in sites],
        fragment_costs={site.fragment_id: float(site.edge_count()) for site in sites},
    )
    plan_seconds = perf_counter() - started
    evaluator = LocalQueryEvaluator(semiring=semiring)
    round_trips: List[float] = []
    kernel_shares: List[float] = []
    in_process: List[float] = []
    routed: Dict[int, int] = {}
    started = perf_counter()
    workers = PlacedWorkerPool(catalog, plan)
    try:
        workers.evaluate(list(batches[0]))
        start_seconds = perf_counter() - started
        for tasks in batches:
            started = perf_counter()
            results = workers.evaluate(list(tasks))
            round_trip = perf_counter() - started
            round_trips.append(round_trip)
            busy: Dict[int, float] = {}
            for key, worker in workers.last_task_workers.items():
                busy[worker] = busy.get(worker, 0.0) + results[key].statistics.elapsed_seconds
            for worker, count in workers.last_route_counts.items():
                routed[worker] = routed.get(worker, 0) + count
            # Workers run side by side: the busiest one bounds the round trip.
            kernel_shares.append(max(busy.values()) / round_trip)
            started = perf_counter()
            for fragment_id, entry_nodes, exit_nodes in tasks:
                evaluator.evaluate(
                    catalog.site(fragment_id),
                    LocalQuerySpec(
                        fragment_id=fragment_id, entry_nodes=entry_nodes, exit_nodes=exit_nodes
                    ),
                )
            in_process.append(perf_counter() - started)
        repins: List[float] = []
        for site in sites[:3]:
            update = PinUpdate(
                fragment_id=site.fragment_id,
                estimated_iterations=site.local_iterations(),
                payload=site.to_compact_site(),
            )
            started = perf_counter()
            workers.repin([update])
            repins.append(perf_counter() - started)
    finally:
        workers.close()
    loads = [routed.get(worker, 0) for worker in range(plan.worker_count)]
    return {
        "placement.plan_s": (plan_seconds, "s"),
        "placement.dispatch_skew": (max(loads) / (sum(loads) / len(loads)), "ratio"),
        "service.pool_start_s": (start_seconds, "s"),
        "service.pool_evaluate_ms": (measure.median(round_trips) * 1e3, "ms"),
        "service.pool_kernel_share": (measure.median(kernel_shares), "ratio"),
        "service.pool_speedup": (sum(in_process) / sum(round_trips), "ratio"),
        "service.pool_repin_ms": (measure.median(repins) * 1e3, "ms"),
    }


def snapshot(service: QueryService, directory: Path) -> Dict[str, Metric]:
    """``snapshot()`` then ``from_snapshot()``; leaves the snapshot in ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    started = perf_counter()
    service.snapshot(directory)
    save_seconds = perf_counter() - started
    started = perf_counter()
    restored = QueryService.from_snapshot(directory, placement=None)
    load_seconds = perf_counter() - started
    restored.close()
    size = sum(path.stat().st_size for path in directory.iterdir() if path.is_file())
    return {
        "service.snapshot_save_s": (save_seconds, "s"),
        "service.snapshot_load_s": (load_seconds, "s"),
        "service.snapshot_bytes": (float(size), "B"),
    }


def fragmentation(scale: str) -> Dict[str, Metric]:
    """The paper's fragmenters on the ``prepare`` graph, and what they produce."""
    seed = GRAPH_SEED
    graph = graphs.generate(Prepare.sizes[scale], seed)
    digraph = Prepare(graph, seed).load(no_stage, coordinates=True)
    count = len(graph.clusters)
    started = perf_counter()
    layout = CenterBasedFragmenter(count, center_selection="distributed", seed=seed).fragment(
        digraph
    )
    center_seconds = perf_counter() - started
    started = perf_counter()
    LinearFragmenter(count).fragment(digraph)
    linear_seconds = perf_counter() - started
    small = graphs.generate(BOND_GRAPH[scale], seed)
    small_digraph = Prepare(small, seed).load(no_stage, coordinates=True)
    started = perf_counter()
    BondEnergyFragmenter(len(small.clusters)).fragment(small_digraph)
    bond_seconds = perf_counter() - started
    shape = characterize(layout, include_diameter=False)
    signals = measure_layout(layout)
    return {
        "fragmentation.center_s": (center_seconds, "s"),
        "fragmentation.linear_s": (linear_seconds, "s"),
        "fragmentation.bond_s": (bond_seconds, "s"),
        "fragmentation.border_nodes": (float(signals.border_nodes), "count"),
        "fragmentation.ds_size_avg": (shape.average_disconnection_set_size, "count"),
        "fragmentation.size_dev": (shape.fragment_size_deviation, "count"),
        "fragmentation.cross_edge_share": (signals.cross_edge_ratio, "ratio"),
    }
