"""The traced run's driver: the layers' public functions, composed by hand.

``ReplayDriver`` answers ``query`` / ``query_batch`` / ``update_edge`` ops
against a service's *state* — its ``FragmentedDatabase`` and ``LRUCache`` —
without going through ``QueryService.query`` itself.  It calls the same
public functions in the same order the service does (cache lookup, planner,
task pooling, per-fragment evaluation or the placed pool, assembly, cache
put; for writes the database's update methods, whose listeners evict the
cache) with one span around each call, so a layer's time is measured at its
boundary and what is left over when the real service runs the same ops is
the service's own bookkeeping: statistics, tracer, query log.

What it deliberately leaves out is exactly that bookkeeping.  Answers must
come out identical; ``tracing.py`` checks that they do.

Boundaries that sit inside one public call are wrapped with
``spans.instrument`` for the run (``TARGETS`` below).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.disconnection.engine as engine_module
import repro.disconnection.local_query as local_query_module
import repro.disconnection.maintenance as maintenance_module
from repro.disconnection import (
    LocalQueryEvaluator,
    QueryPlanner,
    assemble_best_chain,
    collect_task_keys,
)
from repro.disconnection.maintenance import UpdateEvent
from repro.disconnection.planner import LocalQuerySpec
from repro.graph.compact import CompactGraph
from repro.incremental.repair import ComplementaryRepairer
from repro.service.batch import BatchPlanner
from repro.service.cache import CachedAnswer, CacheKey, LRUCache
from repro.service.pool import PlacedWorkerPool
from repro.service.server import QueryService

from spans import SpanRecorder, Target

Pair = Tuple[int, int]

# Spans that are a layer doing work (as opposed to ``op.*`` roots, which are
# the driver's own glue).  Their self times are "the layer sum" of an op.
LAYER_SPANS = (
    "service.cache_get",
    "service.cache_put",
    "service.cache_evict",
    "service.batch_plan",
    "service.pool_evaluate",
    "disconnection.plan",
    "disconnection.collect_tasks",
    "disconnection.local_query",
    "disconnection.assembly",
    "disconnection.db_update",
    "disconnection.site_patch",
    "disconnection.site_rederive",
    "closure.dijkstra",
    "closure.reachability_rows",
    "incremental.probe",
    "incremental.recompute_rows",
    "incremental.recompute_pair",
    "graph.apply_delta",
)

# Calls made inside one public function, wrapped for the traced run.
TARGETS: Sequence[Target] = (
    (local_query_module, "array_dijkstra", "closure.dijkstra"),
    (local_query_module, "reachability_rows", "closure.reachability_rows"),
    (maintenance_module, "precompute_complementary_information", "disconnection.complementary"),
    (ComplementaryRepairer, "affected_sources_before", "incremental.probe"),
    (ComplementaryRepairer, "affected_sources_after", "incremental.probe"),
    (ComplementaryRepairer, "recompute_rows", "incremental.recompute_rows"),
    (ComplementaryRepairer, "recompute_pair", "incremental.recompute_pair"),
    (engine_module.DisconnectionSetEngine, "apply_incremental_update", "disconnection.site_patch"),
    (CompactGraph, "apply_delta", "graph.apply_delta"),
    (LRUCache, "evict_where", "service.cache_evict"),
)

# A fresh (not snapshot-restored) service keys its cache under this lineage.
BASE_VERSION = "live"
MAX_CHAINS = 32  # QueryService's default


class ReplayDriver:
    """Answers ops from a service's state, one span per layer call.

    Args:
        service: supplies the database, the cache and (when it was built
            with ``placement=``) the placement plan.  Its ``query`` methods
            are never called.
        recorder: where spans and counts go.
        pooled: evaluate local subqueries on a ``PlacedWorkerPool`` of the
            driver's own, started on first use, instead of in-process.
    """

    def __init__(
        self, service: QueryService, recorder: SpanRecorder, *, pooled: bool = False
    ) -> None:
        self.service = service
        self.database = service.database
        self.cache = service.cache
        self.semiring = service.semiring
        self.recorder = recorder
        self.pooled = pooled
        self.pool: Optional[PlacedWorkerPool] = None
        self.evaluator = LocalQueryEvaluator(semiring=self.semiring)
        self._engine = None
        self._planner: Optional[QueryPlanner] = None
        self._batch_planner: Optional[BatchPlanner] = None
        self._dirty: set = set()
        self.writes: List[Dict[str, float]] = []  # per write: counts at the boundary
        self.worker_kernel_seconds: Dict[int, float] = {}  # op id -> worker-reported kernel time
        self.database.add_update_listener(self._after_update)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------ ops

    def apply(self, op: Tuple) -> object:
        kind = op[0]
        if kind == "query" or kind == "raw":
            return self.query(op[1], op[2], root=f"op.{kind}")
        if kind == "batch":
            return self.query_batch(op[1])
        if kind == "write":
            return self.update(op)
        raise ValueError(f"unknown op kind {kind!r}")

    def query(self, source: int, target: int, *, root: str = "op.query") -> object:
        span = self.recorder.span
        with span(root):
            catalog = self._refresh().catalog
            with span("service.cache_get"):
                key = self._key(source, target)
                entry = self._lookup(key)
            if entry is not None:
                self.recorder.count("service.cache_hits")
                return entry.value
            self.recorder.count("service.cache_misses")
            involved: Sequence[int] = catalog.sites_storing_node(source) if source == target else []
            if involved:
                value, chain = self.semiring.one, None
            else:
                assert self._planner is not None
                with span("disconnection.plan"):
                    plan = self._planner.plan(source, target)
                with span("disconnection.collect_tasks"):
                    tasks, references = collect_task_keys([plan])
                self.recorder.count("disconnection.queries_planned")
                self.recorder.count("disconnection.chains", len(plan.chains))
                self.recorder.count("disconnection.tasks", len(tasks))
                self.recorder.count("disconnection.task_references", references)
                results = self._evaluate(tasks)
                with span("disconnection.assembly"):
                    value, chain = assemble_best_chain(plan, results, semiring=self.semiring)
                involved = plan.fragments_involved()
            with span("service.cache_put"):
                self.cache.put(key, self._entry(value, chain, involved))
            return value

    def query_batch(self, pairs: Sequence[Pair]) -> List[object]:
        span = self.recorder.span
        with span("op.batch"):
            self._refresh()
            distinct = list(dict.fromkeys(pairs))
            self.recorder.count("service.batch_pairs", len(pairs))
            self.recorder.count("service.batch_distinct", len(distinct))
            resolved: Dict[Pair, object] = {}
            pending: List[Pair] = []
            with span("service.cache_get"):
                for pair in distinct:
                    entry = self._lookup(self._key(*pair))
                    if entry is None:
                        pending.append(pair)
                    else:
                        resolved[pair] = entry.value
            self.recorder.count("service.cache_hits", len(distinct) - len(pending))
            self.recorder.count("service.cache_misses", len(pending))
            if pending:
                assert self._batch_planner is not None
                with span("service.batch_plan"):
                    batch = self._batch_planner.plan_batch(pending)
                plans = [plan for plan in batch.plans if plan is not None]
                self.recorder.count("disconnection.queries_planned", len(plans))
                self.recorder.count("disconnection.chains", sum(len(p.chains) for p in plans))
                self.recorder.count("disconnection.tasks", len(batch.tasks))
                self.recorder.count("disconnection.task_references", batch.spec_references)
                results = self._evaluate(batch.tasks, owner_groups=batch.owner_groups or None)
                assembled = []
                for index, pair in enumerate(batch.unique_queries):
                    plan = batch.plans[index]
                    if plan is None:
                        raise RuntimeError(f"batch pair {pair}: {batch.errors[index]}")
                    with span("disconnection.assembly"):  # per pair, as in query()
                        value, chain = assemble_best_chain(plan, results, semiring=self.semiring)
                    assembled.append((pair, value, chain, plan.fragments_involved()))
                with span("service.cache_put"):
                    for pair, value, chain, involved in assembled:
                        self.cache.put(self._key(*pair), self._entry(value, chain, involved))
                        resolved[pair] = value
            return [resolved[pair] for pair in pairs]

    def update(self, op: Tuple) -> None:
        _, kind, source, target, weight, symmetric = op
        database = self.database
        self._refresh()
        cached_before = len(self.cache)
        rows_before = database.statistics.rows_recomputed
        with self.recorder.span("op.write"):
            with self.recorder.span("disconnection.db_update"):
                if kind == "delete":
                    database.delete_edge(source, target, symmetric=symmetric)
                elif database.graph.has_edge(source, target):
                    database.update_edge_weight(source, target, weight)
                else:
                    database.insert_edge(source, target, weight, symmetric=symmetric)
        record = database.delta_log.last()
        self.writes.append(
            {
                "dirty_fragments": float(len(record.dirty_fragments)) if record else 0.0,
                "rows_recomputed": float(database.statistics.rows_recomputed - rows_before),
                "evicted": float(cached_before - len(self.cache)),
                "retained_share": len(self.cache) / cached_before if cached_before else 1.0,
            }
        )

    # ------------------------------------------------------------ internals

    def _after_update(self, event: UpdateEvent) -> None:
        self._dirty.update(event.dirty_fragments)

    def _refresh(self):
        engine = self.database.engine()
        if engine is not self._engine:
            self._engine = engine
            self._planner = QueryPlanner(engine.catalog, max_chains=MAX_CHAINS)
            self._batch_planner = BatchPlanner(
                self._planner,
                placement_provider=(lambda: self.pool.plan if self.pool else None),
            )
        return engine

    def _key(self, source: int, target: int) -> CacheKey:
        return CacheKey(
            source=source, target=target, semiring=self.semiring.name, base_version=BASE_VERSION
        )

    def _lookup(self, key: CacheKey) -> Optional[CachedAnswer]:
        entry = self.cache.get(key)
        if entry is None:
            return None
        if not self.database.version_vector.matches(entry.epoch, entry.fragment_versions):
            self.cache.discard(key)
            return None
        return entry

    def _entry(self, value: object, chain: object, fragments: Sequence[int]) -> CachedAnswer:
        vector = self.database.version_vector
        return CachedAnswer(
            value=value,
            chain=chain,
            epoch=vector.epoch,
            fragment_versions=vector.snapshot_of(fragments),
        )

    def _evaluate(self, tasks, *, owner_groups=None):
        span = self.recorder.span
        catalog = self._engine.catalog
        if self.pooled:
            if self.pool is None:
                self.pool = PlacedWorkerPool(catalog, self.service.placement_plan)
            with span("service.pool_evaluate"):
                results = self.pool.evaluate(tasks, owner_groups=owner_groups)
            op = self.recorder.op
            self.worker_kernel_seconds[op] = self.worker_kernel_seconds.get(op, 0.0) + sum(
                result.statistics.elapsed_seconds for result in results.values()
            )
            for result in results.values():
                self.recorder.count(f"closure.selected.{result.backend}")
            return results
        results = {}
        for key in tasks:
            fragment_id, entry_nodes, exit_nodes = key
            site = catalog.site(fragment_id)
            if fragment_id in self._dirty:
                # The first evaluation on a written fragment re-derives the
                # site's lazy state; the service pays this inside evaluate().
                self._dirty.discard(fragment_id)
                with span("disconnection.site_rederive"):
                    site.compact()
                    site.local_iterations()
            with span("disconnection.local_query"):
                results[key] = self.evaluator.evaluate(
                    site,
                    LocalQuerySpec(
                        fragment_id=fragment_id, entry_nodes=entry_nodes, exit_nodes=exit_nodes
                    ),
                )
            self.recorder.count(f"closure.selected.{results[key].backend}")
        return results


def replay_executor(driver: ReplayDriver, first_op: int = 0) -> Callable[[Tuple], object]:
    """An ``execute(op)`` for the closed loop that numbers the ops it is given."""
    counter = [first_op]

    def execute(op: Tuple) -> object:
        driver.recorder.op = counter[0]
        counter[0] += 1
        try:
            return driver.apply(op)
        finally:
            driver.recorder.op = -1

    return execute
