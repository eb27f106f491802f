"""The query service: prepare once, serve many.

:class:`QueryService` is the long-lived serving façade over the one-shot
:class:`~repro.disconnection.engine.DisconnectionSetEngine`.  It composes the
pieces of this package:

* a :class:`~repro.service.cache.LRUCache` of answers addressed by a typed
  :class:`~repro.service.cache.CacheKey`, each entry recording the
  per-fragment versions it depends on,
* an optional shared-nothing worker pool
  (:class:`~repro.service.pool.PlacedWorkerPool`) that keeps the fragment
  sites pinned in persistent worker processes: a
  :class:`~repro.placement.plan.PlacementPlan` (``placement=...``, or the
  ``cost_balanced`` default of ``workers=N``) routes every fragment's
  subqueries and re-pins to its owner worker, and
  :meth:`QueryService.migrate` / :meth:`QueryService.rebalance` move
  fragments between live workers,
* the query core's border graph
  (:func:`~repro.disconnection.core.answer_pairs`) behind the cache, which
  answers a call's misses with one evaluation round (and one more per round
  of border-graph arcs not yet held) and one search over border nodes per
  pair,
* the update hooks of
  :class:`~repro.disconnection.maintenance.FragmentedDatabase`: an update is
  absorbed in place by the :mod:`repro.incremental` subsystem — only the
  dirty fragments' versions move, only the answers depending on them are
  evicted, and only their payloads are re-pinned into the workers; an update
  outside that envelope is a counted fallback (``stats.update_fallbacks``)
  into the classic full rebuild, which flushes everything,
* :class:`~repro.service.stats.ServiceStatistics` making hit rates, latency
  and per-site load observable — backed by a shared
  :class:`~repro.observability.MetricsRegistry`, alongside a
  :class:`~repro.observability.Tracer` (every ``query`` / ``query_batch`` /
  ``update_edge`` / ``refragment`` call is one trace with spans for cache
  lookup, planning, routing, per-worker evaluation and kernel execution,
  worker-side spans timed in the worker and shipped back over the private
  result channels) and a :class:`~repro.observability.QueryLog` capturing
  the served workload for the placement and refragmentation advisors.
  :meth:`QueryService.metrics` exports the whole registry as JSON or
  Prometheus text exposition.

``QueryService.from_snapshot`` restores a service from a directory written by
:func:`~repro.service.snapshot.save_snapshot` without recomputing any closure
or complementary-information work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..closure import Semiring, merge_selection_metrics, shortest_path_semiring
from ..disconnection import (
    CompactFragmentSite,
    ComplementaryInformation,
    DisconnectionSetEngine,
    FragmentedDatabase,
    LocalQueryEvaluator,
    LocalQueryResult,
    answer_pairs,
)
from ..disconnection.local_query import border_rows_held
from ..disconnection.maintenance import UpdateEvent
from ..disconnection.planner import LocalQuerySpec
from ..fragmentation import Fragmentation, Fragmenter
from ..graph.compact import merge_overlay_metrics
from ..incremental import AppliedDelta, DeltaLog, VersionVector
from ..observability import DEFAULT_SLOW_THRESHOLD_SECONDS, MetricsRegistry, QueryLog, Tracer
from ..observability.querylog import DEFAULT_CAPACITY as DEFAULT_QUERY_LOG_CAPACITY
from ..placement import (
    PLACEMENT_POLICIES,
    Migration,
    PlacementError,
    PlacementPlan,
    RebalanceAdvisor,
    plan_placement,
)
from ..refragmentation import (
    RefragmentationAdvisor,
    RefragmentResult,
    fragmenter_for,
)
from .batch import group_by_owner
from .cache import CachedAnswer, CacheKey, LRUCache
from .pool import PICKLABLE_SEMIRINGS, PinUpdate, PlacedWorkerPool, TaskKey
from .snapshot import SnapshotManifest, load_snapshot, save_snapshot
from .stats import ServiceStatistics

Node = Hashable
Query = Tuple[Node, Node]
PathLike = Union[str, Path]

# Applied updates between two auto-refragmentation assessments.
REFRAGMENT_CHECK_INTERVAL = 32
# After the advisor's recommendation fails the worthwhile bar, skip this many
# check intervals before paying for trial-run recommendations again.
_REFRAGMENT_REJECTION_BACKOFF = 4


@dataclass(frozen=True)
class ServiceAnswer:
    """One answered service query.

    Attributes:
        source, target: the queried endpoints.
        value: the best path value (``None`` when no path exists or the
            query failed — see ``error``).
        chain: the fragment chain that produced the value (``None`` for
            trivial/cached-without-chain answers).
        cached: whether the answer came from the result cache.
        error: planning failure message (unknown endpoint / no connecting
            chain) for batch queries; ``None`` on success.
    """

    source: Node
    target: Node
    value: Optional[object]
    chain: Optional[Tuple[int, ...]]
    cached: bool = False
    error: Optional[str] = None

    def exists(self) -> bool:
        """Return ``True`` when a path was found."""
        return self.value is not None


class QueryService:
    """A long-lived query server over a prepared fragmentation.

    Args:
        fragmentation: the prepared fragmentation to serve.
        semiring: the path problem (defaults to shortest paths).
        complementary: reuse already-precomputed complementary information
            (e.g. from a snapshot) so construction costs no search work.
        cache_size: capacity of the LRU result cache.
        workers: when set (> 0), evaluate local subqueries on a
            :class:`~repro.service.pool.PlacedWorkerPool` of that many
            worker processes; when ``None`` (and no ``placement``) the
            service evaluates them in-process (still sharing subqueries and
            caching results — the right choice for small fragments, where
            process messaging would dominate).
        placement: shared-nothing placement of fragments onto the workers:
            each worker pins only the fragments it owns, subqueries are
            routed to owners, re-pins reach only the dirty fragment's owner,
            and :meth:`migrate` / :meth:`rebalance` move fragments between
            live workers.  A policy name (``"round_robin"``,
            ``"cost_balanced"``, ``"workload_aware"``) or an explicit
            :class:`~repro.placement.plan.PlacementPlan`; implies pooled
            evaluation (``workers`` defaults to the plan's worker count, or
            the fragment count capped at the CPU count for a policy name).
            ``None`` (default) with ``workers`` set means
            ``"cost_balanced"``; passed explicitly to :meth:`from_snapshot`
            it ignores the snapshot's persisted plan.
        compact_sites: seed the per-fragment compact kernel graphs (snapshot
            reload fast path; ``from_snapshot`` wires this automatically).
        version_vector: seed the per-fragment version vector (wired by
            ``from_snapshot`` so a restored service resumes mid-stream).
        delta_sequence: seed the delta log's numbering (wired by
            ``from_snapshot`` so replayed tail records keep their original
            sequence numbers).
        auto_refragment: watch the layout's locality and redraw boundaries
            automatically.  ``True`` installs a default
            :class:`~repro.refragmentation.RefragmentationAdvisor`; an
            advisor instance installs it as configured.  Every
            :data:`REFRAGMENT_CHECK_INTERVAL` (32) applied updates the
            advisor assesses the layout (border growth, cross-fragment edge
            ratio, update skew, captured query skew) and — when triggered and
            a measured improvement exists — executes :meth:`refragment` live.
        refragment_cadence: when the advisor assessment runs.  ``"update"``
            (the default) checks inline every
            :data:`REFRAGMENT_CHECK_INTERVAL` applied updates — simple, but
            the assessment (and any redraw)
            rides on the update hot path.  ``"background"`` never assesses
            inside :meth:`update_edge`; a host loop (the network server's
            idle task, a cron) calls :meth:`auto_refragment_now` in quiet
            moments instead, so updates stay uniformly fast and redraws land
            when nothing is waiting.
        tracing: produce a request trace per service call (cache lookup,
            planning, routing, per-worker evaluation, kernel execution
            spans).  Toggle live via ``service.tracer``.
        query_log_size: entries retained by the structured query log the
            advisors mine (0 disables capture entirely).  A query taking
            :data:`~repro.observability.querylog.DEFAULT_SLOW_THRESHOLD_SECONDS`
            (0.1 s) or more is also retained in its slow-query window.
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
        complementary: Optional[ComplementaryInformation] = None,
        cache_size: int = 1024,
        workers: Optional[int] = None,
        placement: Optional[Union[str, PlacementPlan]] = None,
        compact_sites: Optional[Dict[int, CompactFragmentSite]] = None,
        version_vector: Optional[VersionVector] = None,
        delta_sequence: int = 0,
        auto_refragment: Union[bool, RefragmentationAdvisor] = False,
        refragment_cadence: str = "update",
        tracing: bool = True,
        query_log_size: int = DEFAULT_QUERY_LOG_CAPACITY,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        if isinstance(placement, str) and placement not in PLACEMENT_POLICIES:
            raise PlacementError(
                f"unknown placement policy {placement!r} "
                f"(expected one of {PLACEMENT_POLICIES})"
            )
        if (
            isinstance(placement, PlacementPlan)
            and workers
            and workers != placement.worker_count
        ):
            raise PlacementError(
                f"workers={workers} conflicts with the placement plan's "
                f"worker_count={placement.worker_count}; drop one or pass a "
                "policy name to recompute the plan for the requested workers"
            )
        if workers and placement is None:
            placement = "cost_balanced"
        if placement is not None and not workers:
            # Placement implies pooled evaluation: an explicit plan fixes the
            # worker count, a policy name defaults to one worker per
            # fragment, capped at the CPU count.
            import multiprocessing

            workers = (
                placement.worker_count
                if isinstance(placement, PlacementPlan)
                else max(1, min(fragmentation.fragment_count(), multiprocessing.cpu_count()))
            )
        if workers and self._semiring.name not in PICKLABLE_SEMIRINGS:
            raise ValueError(
                "worker processes support the "
                f"{' and '.join(PICKLABLE_SEMIRINGS)} semirings only"
            )
        self._database = FragmentedDatabase(
            fragmentation,
            semiring=self._semiring,
            complementary=complementary,
            compact_sites=compact_sites,
            version_vector=version_vector,
        )
        self._database.add_update_listener(self._on_update)
        self._database.delta_log.resume_at(delta_sequence)
        # One registry backs everything: the statistics view, the result
        # cache's mirrored counters, the latency/planning histograms, and the
        # worker-side kernel series merged in from evaluate replies.
        self._registry = MetricsRegistry()
        self._cache = LRUCache(cache_size, registry=self._registry)
        self._stats = ServiceStatistics(self._registry)
        self._tracer = Tracer(enabled=tracing)
        self._query_log = QueryLog(capacity=query_log_size)
        self._planning_hist = self._registry.histogram(
            "repro_batch_planning_seconds",
            "Wall-clock seconds spent planning one query batch.",
        )
        self._workers = workers
        self._placement = placement
        self._pool: Optional[PlacedWorkerPool] = None
        self._evaluator = LocalQueryEvaluator(semiring=self._semiring)
        self._base_version = "live"
        self._current_engine: Optional[DisconnectionSetEngine] = None
        if refragment_cadence not in ("update", "background"):
            raise ValueError(
                f"refragment_cadence must be 'update' or 'background', "
                f"got {refragment_cadence!r}"
            )
        self._refragment_cadence = refragment_cadence
        self._updates_at_last_check = 0
        self._refragment_backoff_until = 0
        if auto_refragment is True:
            self._refragment_advisor: Optional[RefragmentationAdvisor] = (
                RefragmentationAdvisor()
            )
        elif isinstance(auto_refragment, RefragmentationAdvisor):
            self._refragment_advisor = auto_refragment
        else:
            self._refragment_advisor = None
        if self._refragment_advisor is not None and self._refragment_advisor.baseline is None:
            self._refragment_advisor.observe(fragmentation)
        self._refresh_engine()

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_snapshot(
        cls,
        directory: PathLike,
        *,
        replay_log: Optional[DeltaLog] = None,
        **kwargs,
    ) -> "QueryService":
        """Restore a service from a snapshot directory (no recomputation).

        The snapshot's persisted compact fragments seed the kernel caches, so
        the restored service serves its first query without ever rebuilding
        adjacency.  A persisted placement plan is re-adopted the same way —
        pass ``placement=...`` to override it (an explicit
        ``placement=None`` ignores the snapshot's persisted plan), or a
        different ``workers=`` count to recompute the plan with the
        persisted policy for the new pool shape.

        ``replay_log`` catches the restored service up with a *live*
        database: the snapshot records the delta sequence it was taken at,
        and every newer record in the given log is re-applied through the
        incremental maintainer — so a replica that restores an old snapshot
        converges on the live state without forcing a fresh snapshot.  The
        tail may contain ``refragment`` records: they carry the complete
        aligned layout, so the replica follows the reorganisation (and every
        later record's fragment ids line up) instead of resnapshotting.

        Raises:
            ValueError: when ``replay_log`` no longer retains the records
                after the snapshot's sequence (the restore fell off the
                log's tail), or the tail contains a legacy ``refragment``
                record written before layouts were recorded — that one
                cannot be reconstructed; resynchronise from a newer
                snapshot either way.
        """
        loaded = load_snapshot(directory)
        kwargs.setdefault("compact_sites", loaded.compact_sites)
        kwargs.setdefault("version_vector", loaded.version_vector)
        kwargs.setdefault("delta_sequence", loaded.delta_sequence)
        if loaded.placement_plan is not None:
            if (
                kwargs.get("workers")
                and kwargs["workers"] != loaded.placement_plan.worker_count
            ):
                # An explicit worker count that differs from the persisted
                # plan's is a new deployment shape: keep the persisted
                # *policy* and recompute the plan for the requested workers.
                kwargs.setdefault("placement", loaded.placement_plan.policy)
            else:
                kwargs.setdefault("placement", loaded.placement_plan)
        if replay_log is not None:
            # Fail before doing any restore work when the tail is gone or
            # contains a record replay cannot reconstruct (a legacy
            # refragment without a recorded layout — see replay_record).
            tail = replay_log.records_since(loaded.delta_sequence)
            for record in tail:
                replayable_refragment = (
                    record.kind == "refragment" and record.layout is not None
                )
                if not replayable_refragment and not record.changes:
                    raise ValueError(
                        f"the replay tail contains record {record.sequence} "
                        f"({record.kind!r}) with no recorded layout or edge "
                        "changes; resynchronise from a snapshot taken after it"
                    )
        service = cls(
            loaded.fragmentation,
            semiring=loaded.semiring,
            complementary=loaded.complementary,
            **kwargs,
        )
        service._base_version = loaded.manifest.version
        service._stats.snapshots_loaded += 1
        if replay_log is not None:
            for record in tail:
                service._database.replay_record(record)
                service._stats.replayed_records += 1
        return service

    # ------------------------------------------------------------- accessors

    @property
    def semiring(self) -> Semiring:
        """The path problem being served."""
        return self._semiring

    @property
    def stats(self) -> ServiceStatistics:
        """The service's operational counters."""
        return self._stats

    @property
    def cache(self) -> LRUCache:
        """The bounded LRU result cache."""
        return self._cache

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry every telemetry series of this service lives in."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The request tracer (toggle with ``enable()`` / ``disable()``)."""
        return self._tracer

    @property
    def query_log(self) -> QueryLog:
        """The bounded structured log of answered queries (workload capture)."""
        return self._query_log

    def border_rows(self) -> Dict[int, Dict[str, int]]:
        """Return the border rows held per fragment, as ``{"rows": n, "bytes": b}``.

        What the memo costs next to what it saves: at most two rows per
        border node, one double per node of the fragment each.  Counted
        where the endpoint subqueries run — on the workers of a started
        pool, on the catalog's own sites otherwise.
        """
        if self._pool is not None and self._pool.is_running():
            held = self._pool.border_rows()
        elif self._current_engine is not None:
            held = {
                site.fragment_id: border_rows_held(site)
                for site in self._current_engine.catalog.sites()
            }
        else:
            held = {}
        return {
            fragment_id: {"rows": rows, "bytes": size}
            for fragment_id, (rows, size) in held.items()
            if rows
        }

    def metrics(self, format: str = "json"):
        """Export the service's telemetry.

        ``format="json"`` returns a plain-data dictionary: the flat
        statistics view, the border rows held per fragment (rows and bytes),
        p50/p90/p99 latency quantiles per cache outcome,
        every registry metric's series, and query-log / tracing summaries.
        ``format="prometheus"`` returns the registry in Prometheus text
        exposition format, ready for a scrape endpoint.
        """
        # Fold any kernel-selection counts and overlay depth/compaction
        # counters recorded in this process (engine builds, in-process
        # evaluation, complementary precompute, mirror splices) into the
        # registry before exporting; worker-side series arrive through the
        # drained worker registries instead.
        merge_selection_metrics(self._registry)
        merge_overlay_metrics(self._registry)
        if format == "prometheus":
            return self._registry.to_prometheus()
        if format != "json":
            raise ValueError(f"unknown metrics format {format!r} (json or prometheus)")
        return {
            "stats": self._stats.as_dict(),
            "border_rows": self.border_rows(),
            "latency_quantiles": {
                "evaluated": self._stats.latency_quantiles("evaluated"),
                "cached": self._stats.latency_quantiles("cached"),
            },
            "metrics": self._registry.as_dict(),
            "query_log": {
                "recorded": self._query_log.recorded,
                "retained": len(self._query_log),
                "slow_count": self._query_log.slow_count,
                "slow_threshold": DEFAULT_SLOW_THRESHOLD_SECONDS,
                "cached_share": round(self._query_log.cached_share(), 4),
                "query_skew": round(self._query_log.query_skew(), 4),
                "error_count": self._query_log.error_count(),
            },
            "tracing": {
                "enabled": self._tracer.enabled,
                "traces_finished": self._tracer.traces_finished,
                "traces_dropped": self._tracer.traces_dropped,
            },
        }

    @property
    def database(self) -> FragmentedDatabase:
        """The mutable fragmented database behind the service."""
        return self._database

    @property
    def catalog_version(self) -> str:
        """The catalog's version identity (moves on every update).

        Folds the snapshot lineage with the per-fragment version vector's
        tag, so a local update moves only the dirty fragments' components
        while whole-catalog events advance the epoch.
        """
        return f"{self._base_version}.{self._database.version_vector.tag()}"

    @property
    def version_vector(self) -> VersionVector:
        """The per-fragment version vector scoped invalidation runs on."""
        return self._database.version_vector

    @property
    def refragment_advisor(self) -> Optional[RefragmentationAdvisor]:
        """The installed auto-refragmentation advisor (``None`` when disabled).

        This is the advisor — with its deployment baseline — that
        ``auto_refragment`` consults; surfacing it lets operators (the CLI's
        ``advise`` command) see exactly the signals the automatic path acts
        on.
        """
        return self._refragment_advisor

    @property
    def placement_plan(self) -> Optional[PlacementPlan]:
        """The live fragment -> owner-worker plan (``None`` for an in-process service).

        Once the pool runs this is its live plan, migrations included.
        Before that, a policy name is materialised into a concrete plan here
        (and pinned, so the pool later starts with exactly this plan) — a
        pooled service therefore always reports and persists its placement,
        even before the first query forces the pool up.
        """
        if self._pool is not None:
            return self._pool.plan
        if self._placement is None or isinstance(self._placement, PlacementPlan):
            return self._placement
        engine = self._refresh_engine()
        catalog = engine.catalog
        plan = plan_placement(
            self._placement,
            self._workers or 1,
            fragment_ids=[site.fragment_id for site in catalog.sites()],
            fragment_costs={
                site.fragment_id: float(site.edge_count()) for site in catalog.sites()
            },
            dispatch_counts=dict(self._stats.per_site_load),
        )
        self._placement = plan
        return plan

    def engine(self) -> DisconnectionSetEngine:
        """The current engine (rebuilt lazily after updates)."""
        return self._refresh_engine()

    # --------------------------------------------------------------- queries

    def query(self, source: Node, target: Node) -> ServiceAnswer:
        """Answer one best-path query, consulting the result cache first.

        A miss is answered through the border graph
        (:func:`~repro.disconnection.core.answer_pairs`): the endpoints' rows
        to their fragments' border nodes, one search over the border nodes,
        exact on any layout.

        Raises:
            NoChainError: if an endpoint is stored nowhere or no fragment
                chain connects the endpoints (mirrors the engine contract);
                nothing is cached.
        """
        started = time.perf_counter()
        with self._tracer.span("query", source=source, target=target) as root:
            engine = self._refresh_engine()
            key = self._cache_key(source, target)
            # No child span for the lookup here: a cache hit costs a few
            # tens of microseconds all-in, and the root span's "cached"
            # outcome already tells the whole story.  query_batch keeps its
            # cache_lookup span — one per batch, amortised.
            hit = self._lookup(key)
            if hit is not None:
                root.set("outcome", "cached")
                latency = time.perf_counter() - started
                self._stats.record_query(latency, cached=True)
                self._log_query(
                    source,
                    target,
                    fragments=[f for f, _ in hit.fragment_versions],
                    latency=latency,
                    cached=True,
                )
                return ServiceAnswer(
                    source=source, target=target, value=hit.value, chain=hit.chain, cached=True
                )
            run = answer_pairs(
                engine.catalog,
                [(source, target)],
                self._evaluate_tasks,
                self._semiring,
                tracer=self._tracer,
            )
            answer = run.answers[(source, target)]
            if answer.error is not None:
                root.set("outcome", "error")
                self._log_query(
                    source,
                    target,
                    fragments=(),
                    latency=time.perf_counter() - started,
                    cached=False,
                    error=str(answer.error),
                )
                raise answer.error
            self._stats.shared_subqueries_saved += run.shared_subqueries_saved()
            value, chain, involved = answer.value, answer.chain, answer.fragments
            self._cache.put(key, self._entry(value, chain, involved))
            root.set("outcome", "evaluated")
            latency = time.perf_counter() - started
            self._stats.record_query(latency, cached=False)
            self._log_query(
                source, target, fragments=involved, latency=latency, cached=False
            )
            return ServiceAnswer(
                source=source, target=target, value=value, chain=chain, cached=False
            )

    def query_batch(self, queries: Sequence[Query]) -> List[ServiceAnswer]:
        """Answer a batch of queries, sharing duplicated and overlapping work.

        The misses share one border-graph call: one task list (pairs with a
        common endpoint share its row) and one search per pair.  Unlike
        :meth:`query`, failures do not raise: the affected answers carry an
        ``error`` message (an unknown endpoint, or no connecting chain of
        fragments), so one bad pair cannot poison a batch.
        """
        started = time.perf_counter()
        submitted = [tuple(query) for query in queries]
        self._stats.batches += 1
        self._stats.batched_queries += len(submitted)
        with self._tracer.span("query_batch", queries=len(submitted)) as root:
            engine = self._refresh_engine()

            distinct = list(dict.fromkeys(submitted))
            self._stats.duplicate_queries_saved += len(submitted) - len(distinct)

            resolved: Dict[Query, ServiceAnswer] = {}
            fragments_of: Dict[Query, Tuple[int, ...]] = {}
            pending: List[Query] = []
            with self._tracer.span("cache_lookup", queries=len(distinct)) as cache_span:
                for source, target in distinct:
                    hit = self._lookup(self._cache_key(source, target))
                    if hit is None:
                        pending.append((source, target))
                        continue
                    resolved[(source, target)] = ServiceAnswer(
                        source=source, target=target, value=hit.value,
                        chain=hit.chain, cached=True,
                    )
                    fragments_of[(source, target)] = tuple(
                        f for f, _ in hit.fragment_versions
                    )
                cache_span.set("hits", len(distinct) - len(pending))

            if pending:
                run = answer_pairs(
                    engine.catalog,
                    pending,
                    lambda tasks: self._evaluate_tasks(tasks, grouped=True),
                    self._semiring,
                    tracer=self._tracer,
                )
                self._planning_hist.observe(run.planning_seconds)
                self._stats.shared_subqueries_saved += run.shared_subqueries_saved()
                for (source, target), answer in run.answers.items():
                    if answer.error is None:
                        self._cache.put(
                            self._cache_key(source, target),
                            self._entry(answer.value, answer.chain, answer.fragments),
                        )
                        fragments_of[(source, target)] = answer.fragments
                    resolved[(source, target)] = ServiceAnswer(
                        source=source, target=target, value=answer.value, chain=answer.chain,
                        error=None if answer.error is None else str(answer.error),
                    )

            elapsed = time.perf_counter() - started
            per_query = elapsed / len(submitted) if submitted else 0.0
            answers = []
            first_occurrence_seen = set()
            # Per-entry log costs that are invariant across the batch (trace
            # id, semiring name, timestamp) are paid once, not per query.
            log = self._query_log if self._query_log.enabled else None
            if log is not None:
                trace_id = self._tracer.current_trace_id
                semiring_name = self._semiring.name
                now = time.time()
            for query in submitted:
                answer = resolved[query]
                # A duplicate of an already-resolved query was served without
                # any work of its own: count it as a hit, whatever its first
                # occurrence cost.  The recorded latency is the batch's
                # amortised per-query share.  A failed pair is no answer: it
                # is logged with its error and counted nowhere else, as in
                # query().
                duplicate = query in first_occurrence_seen
                first_occurrence_seen.add(query)
                failed = answer.error is not None
                cached = not failed and (answer.cached or duplicate)
                if not failed:
                    self._stats.record_query(per_query, cached=cached)
                if log is not None:
                    log.push(
                        answer.source,
                        answer.target,
                        semiring_name,
                        fragments_of.get(query, ()),
                        per_query,
                        cached,
                        True,
                        trace_id,
                        answer.error,
                        now,
                    )
                answers.append(answer)
            root.set("outcome", "evaluated" if pending else "cached")
            return answers

    # --------------------------------------------------------------- updates

    def update_edge(
        self,
        source: Node,
        target: Node,
        weight: float = 1.0,
        *,
        delete: bool = False,
        symmetric: bool = False,
    ) -> int:
        """Apply one edge change and return the fragment that absorbed it.

        Inserts the edge when it does not exist, reweights it when it does,
        and deletes it with ``delete=True``.  The registered update hook
        bumps the catalog version and flushes the result cache, so stale
        answers can never be served.  With ``auto_refragment`` enabled, every
        :data:`REFRAGMENT_CHECK_INTERVAL`-th update also asks the advisor
        whether the layout's locality has eroded enough to redraw.
        """
        with self._tracer.span("update_edge", source=source, target=target) as root:
            if delete:
                with self._tracer.span("apply_update", kind="delete"):
                    owner = self._database.delete_edge(source, target, symmetric=symmetric)
            elif self._database.graph.has_edge(source, target):
                with self._tracer.span("apply_update", kind="reweight"):
                    owner = self._database.update_edge_weight(source, target, weight)
            else:
                with self._tracer.span("apply_update", kind="insert"):
                    owner = self._database.insert_edge(
                        source, target, weight, symmetric=symmetric
                    )
            root.set("owner", owner)
            with self._tracer.span("auto_refragment_check"):
                self._maybe_auto_refragment()
            return owner

    # -------------------------------------------------------- refragmentation

    def refragment(
        self,
        fragmenter: Optional[Union[str, Fragmenter]] = None,
        *,
        advisor: Optional[RefragmentationAdvisor] = None,
    ) -> Optional[RefragmentResult]:
        """Redraw the fragment boundaries over the live graph, in place.

        ``fragmenter`` may be a configured
        :class:`~repro.fragmentation.Fragmenter`, an algorithm name
        (``"auto"``, ``"bond-energy"``, ``"linear"``, ..., drawn with the
        deployed fragment count) or ``None`` — the default asks the (given
        or installed) refragmentation advisor for a recommended layout.  With a live engine and a standard semiring the
        redraw is scoped: fragment ids are aligned so surviving fragments
        keep their sites, only changed fragments are rebuilt and re-pinned,
        the pool keeps its workers (unchanged fragments stay pinned on
        the same PIDs) under a remapped plan, and the delta log records the
        layout so replicas can replay across it.  Outside that envelope the
        classic full rebuild applies.

        Returns the :class:`~repro.refragmentation.RefragmentResult` of a
        scoped redraw, or ``None`` when the full-rebuild path ran — or when
        the advisor path found no worthwhile candidate and left the layout
        untouched (distinguish via ``stats.refragments``).
        """
        with self._tracer.span("refragment") as root:
            self._refresh_engine()
            database = self._database
            if fragmenter is None:
                chooser = advisor or self._refragment_advisor or RefragmentationAdvisor()
                with self._tracer.span("recommend"):
                    advice = chooser.recommend(database.fragmentation())
                if not advice.worthwhile:
                    # The advisor's contract: a redraw is a measured improvement.
                    # A candidate that does not shrink the border set is not
                    # executed — the deployed layout stays.
                    root.set("outcome", "rejected")
                    return None
                root.set("outcome", "applied")
                return self._apply_advice(advice)
            if isinstance(fragmenter, str):
                count = database.fragmentation().fragment_count()
                chosen: Fragmenter = fragmenter_for(fragmenter, count, graph=database.graph)
            else:
                chosen = fragmenter
            with self._tracer.span("redraw"):
                database.refragment(chosen)  # the update listener evicts and re-pins
            result = database.last_delta
            with self._tracer.span("rebuild"):
                # Full-rebuild path: rebuild (and restart the pool) now.
                self._refresh_engine()
            root.set("outcome", "applied")
            return result

    def _apply_advice(self, advice) -> Optional[RefragmentResult]:
        """Execute exactly the layout an advisor judged worthwhile.

        Not a re-run of the fragmenter: that would cost another full
        fragmentation pass and — for a nondeterministic fragmenter — could
        apply a layout that was never measured.
        """
        self._database.refragment(
            layout=[list(f.edges) for f in advice.proposed.fragments],
            algorithm=advice.proposed.algorithm,
            aligned=False,
        )
        result = self._database.last_delta
        self._refresh_engine()  # full-rebuild path: rebuild (and restart the pool) now
        return result

    def _maybe_auto_refragment(self) -> None:
        if self._refragment_cadence != "update":
            # Background cadence: the update hot path never assesses; a host
            # loop calls :meth:`auto_refragment_now` in quiet moments.
            return
        if self._refragment_advisor is None:
            return
        applied = self._stats.updates_applied
        if applied - self._updates_at_last_check < REFRAGMENT_CHECK_INTERVAL:
            return
        self._updates_at_last_check = applied
        self._assess_and_maybe_redraw(applied)

    def auto_refragment_now(self) -> str:
        """Run one advisor assessment immediately; returns the outcome.

        This is the ``refragment_cadence="background"`` entry point: the
        network server's idle task (or any host scheduler) calls it between
        requests, so assessment and redraw cost land in quiet moments
        instead of on the update hot path.  Callable under either cadence.

        Returns:
            ``"disabled"`` (no advisor), ``"unchanged"`` (no updates since
            the last assessment), ``"backoff"`` (recently rejected),
            ``"not_triggered"``, ``"rejected"`` (triggered but no worthwhile
            candidate), or ``"redrawn"``.
        """
        if self._refragment_advisor is None:
            return "disabled"
        applied = self._stats.updates_applied
        if applied == self._updates_at_last_check:
            return "unchanged"
        self._updates_at_last_check = applied
        return self._assess_and_maybe_redraw(applied)

    def _assess_and_maybe_redraw(self, applied: int) -> str:
        advisor = self._refragment_advisor
        assert advisor is not None
        if applied < self._refragment_backoff_until:
            # A persistently-triggered assessment whose candidates keep
            # failing the worthwhile bar must not pay the trial-run
            # recommendation on every interval: back off after a rejection.
            return "backoff"
        fragmentation = self._database.fragmentation()
        assessment = advisor.assess(
            fragmentation,
            version_vector=self._database.version_vector,
            delta_log=self._database.delta_log,
            query_log=self._query_log,
        )
        if not assessment.triggered:
            return "not_triggered"
        advice = advisor.recommend(fragmentation, current_signals=assessment.signals)
        if advice.worthwhile:
            self._refragment_backoff_until = 0
            self._apply_advice(advice)
            return "redrawn"
        self._refragment_backoff_until = (
            applied + _REFRAGMENT_REJECTION_BACKOFF * REFRAGMENT_CHECK_INTERVAL
        )
        return "rejected"

    # ------------------------------------------------------------- placement

    def migrate(self, fragment_id: int, to_worker: int) -> bool:
        """Move one fragment's pinned state to another live worker (no restart).

        Returns ``False`` when the fragment already lives there.

        Raises:
            PlacementError: when the service evaluates in-process, the
                fragment is unplaced, or the worker index is invalid.
        """
        pool = self._require_pool()
        moved = pool.migrate(fragment_id, to_worker)
        if moved:
            self._stats.migrations += 1
        return moved

    def rebalance(self) -> List[Migration]:
        """Ask a :class:`RebalanceAdvisor` for migrations against the observed load, and apply them.

        The advisor folds the per-fragment dispatch counts
        (``stats.per_site_load``) with the delta log's re-pin locality, and
        recommends moves only while the modelled owner skew exceeds its
        threshold — a balanced pool returns ``[]``.  The recommended
        migrations are executed immediately on the live pool.

        Raises:
            PlacementError: when the service evaluates in-process.
        """
        pool = self._require_pool()
        migrations = RebalanceAdvisor().recommend(
            pool.plan,
            dict(self._stats.per_site_load),
            delta_log=self._database.delta_log,
            query_log=self._query_log,
        )
        for migration in migrations:
            if pool.migrate(migration.fragment_id, migration.to_worker):
                self._stats.migrations += 1
        return migrations

    def _require_pool(self) -> PlacedWorkerPool:
        if self._placement is None:
            raise PlacementError(
                "this service evaluates in-process; construct it with "
                "workers=... or placement=... to place fragments on workers"
            )
        self._refresh_engine()
        return self._ensure_pool()

    def pool_health(self) -> Dict[str, object]:
        """Worker-pool liveness, as the health endpoints report it.

        A dead owner worker is only *observed* when something looks — the
        pool respawns crashed workers lazily on the next evaluate —
        so the liveness probe checks the processes directly; a worker killed
        while idle flips ``healthy`` before any query fails.
        """
        if not self._workers:
            return {"mode": "in-process", "workers": 0, "alive": 0, "healthy": True}
        pool = self._pool
        if pool is None:
            # Not started yet: healthy by definition (it will be built on
            # first use), but report the configured size.
            return {
                "mode": "unstarted",
                "workers": self._workers,
                "alive": self._workers,
                "healthy": True,
            }
        liveness = pool.liveness()
        alive = sum(1 for is_alive in liveness.values() if is_alive)
        return {
            "mode": "placed",
            "workers": len(liveness),
            "alive": alive,
            "healthy": alive == len(liveness),
            "per_worker": {str(worker): bool(is_alive) for worker, is_alive in sorted(liveness.items())},
        }

    # -------------------------------------------------------------- snapshot

    def snapshot(self, directory: PathLike) -> SnapshotManifest:
        """Serialise the service's current prepared state to ``directory``.

        The per-fragment version vector, the live placement plan (migrations
        included) and the delta log's sequence position are persisted
        alongside the catalog, so a service restored from this snapshot
        resumes mid-stream — with the same placement, and able to replay a
        live delta log's tail from exactly where this snapshot left off.
        """
        manifest = save_snapshot(
            directory,
            self._refresh_engine(),
            version_vector=self._database.version_vector,
            placement=self.placement_plan,
            delta_sequence=self._database.delta_log.last_sequence,
        )
        self._stats.snapshots_saved += 1
        return manifest

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- internals

    def _cache_key(self, source: Node, target: Node) -> CacheKey:
        return CacheKey(
            source=source,
            target=target,
            semiring=self._semiring.name,
            base_version=self._base_version,
        )

    def _entry(
        self, value: Optional[object], chain: Optional[Tuple[int, ...]], fragments
    ) -> CachedAnswer:
        vector = self._database.version_vector
        return CachedAnswer(
            value=value,
            chain=chain,
            epoch=vector.epoch,
            fragment_versions=vector.snapshot_of(fragments),
        )

    def _log_query(
        self,
        source: Node,
        target: Node,
        *,
        fragments,
        latency: float,
        cached: bool,
        batched: bool = False,
        error: Optional[str] = None,
    ) -> None:
        """Record one answered (or failed) query in the workload log."""
        if not self._query_log.enabled:
            return
        self._query_log.push(
            source,
            target,
            self._semiring.name,
            tuple(fragments),
            latency,
            cached,
            batched,
            self._tracer.current_trace_id,
            error,
        )

    def _lookup(self, key: CacheKey) -> Optional[CachedAnswer]:
        """Return a cached answer whose recorded fragment versions are current."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        assert isinstance(entry, CachedAnswer)
        vector = self._database.version_vector
        if not vector.matches(entry.epoch, entry.fragment_versions):
            # Belt and braces: scoped eviction should already have dropped
            # it, but a stale entry must never be served.
            self._cache.discard(key)
            return None
        return entry

    def _on_update(self, event: UpdateEvent) -> None:
        """Absorb one applied write or redraw: scoped eviction and re-pins when possible."""
        self._stats.invalidations += 1
        redraw = event.kind == "refragment"
        if redraw:
            self._stats.refragments += 1
            if self._refragment_advisor is not None:
                # The redraw is the new normal: growth is measured against
                # it.  Re-observing here covers every path a redraw can
                # arrive by — refragment(), delta-log replay, or a direct
                # database.refragment().
                self._refragment_advisor.observe(self._database.fragmentation())
        else:
            self._stats.updates_applied += 1
            if event.fallback is not None:
                self._stats.record_update_fallback(event.fallback)
        if event.incremental and event.dirty_fragments:
            # Scoped invalidation: the maintainer absorbed the change in
            # place and named exactly the fragments whose state moved — only
            # answers depending on them are dropped, and only their payloads
            # are re-pinned into their owner workers.
            dirty = set(event.dirty_fragments)
            evicted = self._cache.evict_where(
                lambda key, entry: entry.depends_on(dirty)  # type: ignore[union-attr]
            )
            self._stats.scoped_invalidations += 1
            self._stats.cache_entries_evicted += evicted
            applied = self._database.last_delta
            if redraw:
                self._stats.scoped_refragments += 1
                self._stats.refragment_fragments_rebuilt += len(applied.changed)
                self._stats.refragment_fragments_kept += len(applied.unchanged)
                self._stats.refragment_moved_edges += applied.moved_edges
                self._stats.border_nodes_recovered += applied.border_nodes_recovered()
            if self._pool is not None:
                self._repin(applied)
                return
        else:
            # Full invalidation: the engine will be rebuilt; every cached
            # answer and every pinned worker payload is stale (the pool
            # restarts when _refresh_engine notices the new engine object).
            self._stats.cache_entries_evicted += self._cache.clear()
        # A pinned explicit plan must still follow the fragment ids — a pool
        # built *after* this change starts from self._placement, and a plan
        # missing a fragment id would refuse to start.
        if isinstance(self._placement, PlacementPlan):
            count = self._database.fragmentation().fragment_count()
            self._placement = self._placement.remap(range(count))

    def _repin(self, applied: AppliedDelta) -> None:
        """Push an absorbed change's dirty fragments to their owner workers.

        A dirty fragment the catalog no longer has was dropped by a redraw
        and is unpinned; every other one ships its refreshed site, as the
        small delta when one exists.  The pool adopts the plan remapped onto
        the fragment ids that are left, and so does a pinned explicit plan.
        """
        engine = self._current_engine
        assert engine is not None and self._pool is not None
        catalog = engine.catalog
        count = catalog.fragmentation.fragment_count()
        updates: List[PinUpdate] = []
        for fragment_id in applied.dirty_fragments:
            if fragment_id >= count:
                updates.append(
                    PinUpdate(fragment_id=fragment_id, estimated_iterations=0, remove=True)
                )
                continue
            site = catalog.site(fragment_id)
            # The payload is always supplied: live workers receive the small
            # delta when one exists, but the pool needs the refreshed site to
            # keep its respawn-initialisation list current.
            updates.append(
                PinUpdate(
                    fragment_id=fragment_id,
                    estimated_iterations=site.local_iterations(),
                    delta=applied.site_deltas.get(fragment_id),
                    payload=site.to_compact_site(),
                    border_nodes=site.border_nodes,
                )
            )
        deferred_before = self._pool.replica_repins_deferred
        try:
            self._pool.repin(updates)
            if isinstance(self._placement, PlacementPlan):
                self._placement = self._pool.plan.copy()
            self._stats.replica_repins_deferred += (
                self._pool.replica_repins_deferred - deferred_before
            )
        except Exception:
            # A broken re-pin (worker error, reply timeout) must not leave
            # stale or half-reorganised pinned state behind: fall back to a
            # full restart.
            self._pool.restart(catalog)

    def _refresh_engine(self) -> DisconnectionSetEngine:
        engine = self._database.engine()
        if engine is not self._current_engine:
            if self._pool is not None:
                # Restart first: if it fails the engine is not adopted, so
                # the next call raises again instead of answering from
                # workers that still pin the previous layout.
                self._pool.restart(engine.catalog)
            self._current_engine = engine
        return engine

    def _ensure_pool(self) -> PlacedWorkerPool:
        """Return the worker pool, building it (and its plan) on first use."""
        if self._pool is None:
            engine = self._current_engine
            plan = self.placement_plan
            assert engine is not None and plan is not None
            self._pool = PlacedWorkerPool(engine.catalog, plan)
        return self._pool

    def _evaluate_tasks(
        self, tasks: Sequence[TaskKey], grouped: bool = False
    ) -> Dict[TaskKey, LocalQueryResult]:
        """Evaluate ``tasks`` on the pool or in-process: the query core's ``evaluate``.

        ``grouped`` (a batch) ships the dispatched tasks as one routed
        message per owner worker of the live placement.
        """
        engine = self._current_engine
        assert engine is not None
        catalog = engine.catalog
        evaluator = self._evaluator
        hits_before = evaluator.transit_hits
        misses_before = evaluator.transit_misses
        with self._tracer.span("evaluate", tasks=len(tasks)) as espan:
            if self._workers:
                pool = self._ensure_pool()
                owner_groups = group_by_owner(tasks, pool.plan) if grouped else {}
                if owner_groups:
                    self._stats.placement_aware_batches += 1
                    self._stats.batch_owner_rounds += len(owner_groups)
                espan.set("pool", "placed")
                refreshes_before = pool.replica_refreshes
                results = pool.evaluate(
                    tasks,
                    owner_groups=owner_groups or None,
                    trace_id=self._tracer.current_trace_id,
                )
                self._stats.replica_refreshes += (
                    pool.replica_refreshes - refreshes_before
                )
                # Per-owner load comes from the pool's actual routing
                # (which may differ from plan ownership when a replica or
                # respawned worker ran a task), accumulated here so it
                # survives pool restarts.
                for worker, count in pool.last_route_counts.items():
                    self._stats.per_owner_dispatch.inc(worker, count)
                self._stats.observe_owner_queues(
                    owner_count=pool.worker_count,
                    queue_depth_peak=pool.queue_depth_peak,
                    queue_depth=pool.queue_depth,
                )
                # Fold the workers' drained in-process registries into the
                # service registry (kernel time/tuples per worker+fragment)
                # and attach worker-side spans: one worker_evaluate span
                # per owner that ran tasks, parenting one kernel span per
                # task it evaluated.  Durations were timed inside the
                # worker processes and shipped back with the results.
                for payload in pool.last_worker_metrics:
                    self._registry.merge_dict(payload)
                by_worker: Dict[int, List[TaskKey]] = {}
                for key, worker in pool.last_task_workers.items():
                    by_worker.setdefault(worker, []).append(key)
                for worker, keys in sorted(by_worker.items()):
                    worker_span = self._tracer.remote_span(
                        "worker_evaluate",
                        sum(results[k].statistics.elapsed_seconds for k in keys),
                        worker=worker,
                        tasks=len(keys),
                        # The trace id the worker echoed back over its
                        # result channel: proof the client's context
                        # actually crossed the task queue.
                        trace_echo=pool.last_trace_ids.get(worker),
                    )
                    for key in keys:
                        self._tracer.remote_span(
                            "kernel",
                            results[key].statistics.elapsed_seconds,
                            parent=worker_span,
                            worker=worker,
                            fragment=key[0],
                            backend=results[key].backend,
                            overlay=results[key].overlay,
                            searches=results[key].searches,
                            rows_read=results[key].rows_read,
                            rows_filled=results[key].rows_filled,
                        )
                espan.set("searches", sum(r.searches for r in results.values()))
                # The workers evaluated on replicas of the coordinator's site
                # graphs: their border-to-border replies fill its tables,
                # where the border-graph search reads its arcs.
                for key, result in results.items():
                    evaluator.remember(catalog.site(key[0]), LocalQuerySpec(*key), result)
            else:
                espan.set("pool", "in-process")
                specs = [LocalQuerySpec(*key) for key in tasks]
                tracing = self._tracer.current_span is not None
                if tracing:
                    # The first evaluation on a written (or rebuilt) site
                    # re-derives its lazy state: its own span, not kernel
                    # time.  Untraced, evaluate_many forces it just the same.
                    for fragment_id in dict.fromkeys(key[0] for key in tasks):
                        started = time.perf_counter()
                        if evaluator.prepare(catalog.site(fragment_id)):
                            self._tracer.attach_span(
                                "site_rederive",
                                time.perf_counter() - started,
                                fragment=fragment_id,
                            )
                results = dict(zip(tasks, evaluator.evaluate_many(catalog.site, specs)))
                # A worker's row lookups arrive in its drained registry;
                # these are counted here.
                self._stats.record_border_row_lookups(
                    reads=sum(result.rows_read for result in results.values()),
                    fills=sum(result.rows_filled for result in results.values()),
                )
                if tracing:
                    # The evaluator already timed each kernel; aggregate per
                    # fragment and attach one kernel span per fragment, so
                    # trace size (and hot-path span cost) is bounded by the
                    # layout rather than the batch's task count.
                    # fragment -> [seconds, tasks, memoized, searches,
                    #              rows read, rows filled, backend, overlay]
                    kernels: Dict[int, list] = {}
                    for key, result in results.items():
                        totals = kernels.get(key[0])
                        if totals is None:
                            totals = kernels[key[0]] = [0.0, 0, 0, 0, 0, 0, None, False]
                        totals[0] += result.statistics.elapsed_seconds
                        totals[1] += 1
                        totals[2] += result.memoized
                        totals[3] += result.searches
                        totals[4] += result.rows_read
                        totals[5] += result.rows_filled
                        totals[6] = result.backend
                        totals[7] = totals[7] or result.overlay
                    attach = self._tracer.attach_span
                    for fragment_id, totals in kernels.items():
                        seconds, count, memoized, searches, read, filled, backend, overlay = totals
                        attach(
                            "kernel",
                            seconds,
                            fragment=fragment_id,
                            tasks=count,
                            memoized=memoized,
                            searches=searches,
                            rows_read=read,
                            rows_filled=filled,
                            backend=backend,
                            overlay=overlay,
                        )
                # In-process selections and overlay counters land on the
                # module-level registries; fold the deltas here so scrapes
                # between queries stay fresh.
                merge_selection_metrics(self._registry)
                merge_overlay_metrics(self._registry)
        self._stats.record_transit_lookups(
            hits=evaluator.transit_hits - hits_before,
            misses=evaluator.transit_misses - misses_before,
        )
        # One dispatch per *task*: a batch of n shared subqueries records n
        # site dispatches, never one per batch.
        per_fragment: Dict[int, int] = {}
        for key in tasks:
            per_fragment[key[0]] = per_fragment.get(key[0], 0) + 1
        for fragment_id, count in per_fragment.items():
            self._stats.record_dispatch(fragment_id, count)
        return results
