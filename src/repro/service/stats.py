"""Operational statistics of the query service.

The paper's economics only work when the preparation cost (fragmentation +
complementary information) is amortised over many queries; these counters make
the amortisation observable: cache hit rate, per-site dispatch load, the
subqueries a batch shared instead of recomputing, and the invalidations that
updates caused.

:class:`ServiceStatistics` is now a thin **compatibility view** over a
:class:`~repro.observability.metrics.MetricsRegistry`: every field read or
written here is a labeled metric in the registry (see the ``_INT_COUNTERS``
/ ``_FLOAT_COUNTERS`` / ``_GAUGES`` tables for the field -> metric-name
mapping), so the flat counter bag, the Prometheus exposition, and the JSON
export can never disagree — they are one store.  On top of the flat view the
registry holds what a counter bag cannot express: the
``repro_query_latency_seconds`` histogram (split by ``outcome`` into
``cached`` vs ``evaluated`` series, so a hit-rate change cannot distort the
evaluated mean) with :meth:`latency_quantiles` p50/p90/p99 estimation.

:meth:`ServiceStatistics.as_dict` reports the raw counters and the
figures derived from them.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from ..observability import MetricsRegistry
from ..observability.metrics import Counter

# field -> (metric name, help).  Integer counters: monotone event totals.
_INT_COUNTERS: Dict[str, tuple] = {
    "queries": ("repro_queries_total", "Queries answered, single and batched (cache hits included)."),
    "batches": ("repro_batches_total", "query_batch calls served."),
    "batched_queries": ("repro_batched_queries_total", "Queries submitted through batches."),
    "cache_hits": ("repro_cache_hits_total", "Result-cache hits (batch duplicates included)."),
    "cache_misses": ("repro_cache_misses_total", "Result-cache misses."),
    "local_evaluations": ("repro_local_evaluations_total", "Per-fragment subqueries actually evaluated."),
    "reread_tasks": ("repro_reread_tasks_total", "Per-fragment subqueries a write re-read to decide which cached answers stay."),
    "shared_subqueries_saved": ("repro_shared_subqueries_saved_total", "Subquery evaluations avoided by sharing."),
    "duplicate_queries_saved": ("repro_duplicate_queries_saved_total", "Batch queries answered by deduplication."),
    "invalidations": ("repro_invalidations_total", "Cache invalidation passes triggered by updates."),
    "scoped_invalidations": ("repro_scoped_invalidations_total", "Invalidation passes that were fragment-scoped."),
    "cache_entries_evicted": ("repro_cache_entries_evicted_total", "Answers dropped by update invalidation."),
    "updates_applied": ("repro_updates_applied_total", "Edge insertions/deletions/reweights applied."),
    "replayed_records": ("repro_replayed_records_total", "Delta-log records replayed into a restored snapshot."),
    "snapshots_saved": ("repro_snapshots_saved_total", "Snapshot-store writes."),
    "snapshots_loaded": ("repro_snapshots_loaded_total", "Snapshot-store restores."),
    "migrations": ("repro_migrations_total", "Live fragment migrations applied."),
    "placement_aware_batches": ("repro_placement_aware_batches_total", "Batches pre-grouped per owner by the planner."),
    "batch_owner_rounds": ("repro_batch_owner_rounds_total", "Per-owner messages those groupings shipped."),
    "refragments": ("repro_refragments_total", "Boundary redraws applied through the service."),
    "scoped_refragments": ("repro_scoped_refragments_total", "Redraws absorbed in place (workers kept alive)."),
    "refragment_fragments_rebuilt": ("repro_refragment_fragments_rebuilt_total", "Fragments rebuilt across scoped redraws."),
    "refragment_fragments_kept": ("repro_refragment_fragments_kept_total", "Fragments kept object-identical across scoped redraws."),
    "refragment_moved_edges": ("repro_refragment_moved_edges_total", "Edges re-shipped by scoped redraws."),
    "replica_refreshes": ("repro_replica_refreshes_total", "Fenced replicas lazily refreshed on first routed read."),
    "replica_repins_deferred": ("repro_replica_repins_deferred_total", "Eager replica re-pins the fencing avoided."),
}

# Float counters: monotone wall-clock accumulators.
_FLOAT_COUNTERS: Dict[str, tuple] = {
    "total_latency": ("repro_latency_seconds_total", "Wall-clock seconds answering queries (cached + evaluated)."),
    "cached_latency": ("repro_cached_latency_seconds_total", "Wall-clock seconds spent serving cache hits."),
    "evaluated_latency": ("repro_evaluated_latency_seconds_total", "Wall-clock seconds spent on full evaluations."),
}

# Gauges: last-written / high-water values, and the one signed accumulator
# (border_nodes_recovered counts negative contributions too).
_GAUGES: Dict[str, tuple] = {
    "owner_count": ("repro_owner_count", "Worker slots behind the per-owner dispatch series."),
    "queue_depth": ("repro_queue_depth", "Tasks enqueued to owner workers in the latest dispatch round (live view)."),
    "queue_depth_peak": ("repro_queue_depth_peak", "Largest per-owner task batch observed."),
    "border_nodes_recovered": ("repro_border_nodes_recovered", "Cumulative border-node reduction across redraws (signed)."),
    "max_latency": ("repro_max_latency_seconds", "Slowest answer observed (cached or evaluated)."),
    "max_cached_latency": ("repro_max_cached_latency_seconds", "Slowest cache hit observed."),
    "max_evaluated_latency": ("repro_max_evaluated_latency_seconds", "Slowest full evaluation observed."),
}

# Fields whose compatibility view should read as int.
_INT_GAUGES = frozenset(
    {"owner_count", "queue_depth", "queue_depth_peak", "border_nodes_recovered"}
)

LATENCY_HISTOGRAM = "repro_query_latency_seconds"
SITE_DISPATCH_COUNTER = "repro_site_dispatch_total"
OWNER_DISPATCH_COUNTER = "repro_owner_dispatch_total"
TRANSIT_LOOKUPS_COUNTER = "repro_transit_lookups_total"
BORDER_ROW_LOOKUPS_COUNTER = "repro_border_row_lookups_total"
UPDATE_FALLBACKS_COUNTER = "repro_update_fallbacks_total"
UPDATE_FALLBACK_STAGES = ("begin", "complete", "unsupported")
CACHE_DECISIONS_COUNTER = "repro_cache_write_decisions_total"
# What an absorbed write did with each cached answer depending on a fragment
# it moved: kept it after the re-read, or evicted it because an endpoint
# value changed, because one of its fragments' arcs moved, because arcs on
# its chain only got worse, or because it recorded no inputs to compare.
CACHE_DECISIONS = ("kept", "endpoint_rows", "arcs_moved", "only_worse_on_chain", "no_inputs")


def border_row_lookups_counter(registry: MetricsRegistry) -> Counter:
    """Register the border-row lookup counter on ``registry``.

    One definition for the service's registry and the pool workers' own, so
    a worker's drained counts merge into the series the service exports.
    """
    return registry.counter(
        BORDER_ROW_LOOKUPS_COUNTER,
        "Border rows an endpoint subquery read, or had to fill with a search first.",
        labelnames=("outcome",),
    )


class _LabeledCounterDict:
    """A dict-of-int view over one labeled counter family (int-keyed).

    Keeps the historical ``stats.per_site_load[fragment] += n`` idiom working
    while the registry's labeled series stay the single store: reads convert
    the counter's label values back to int keys, writes go straight to the
    series.
    """

    __slots__ = ("_counter", "_label")

    def __init__(self, counter: Counter, label: str) -> None:
        self._counter = counter
        self._label = label

    def _snapshot(self) -> Dict[int, int]:
        return {int(key[0]): int(value) for key, value in self._counter.series().items()}

    def __getitem__(self, key: int) -> int:
        return int(self._counter.value(**{self._label: key}))

    def __setitem__(self, key: int, value: int) -> None:
        self._counter.set_value(float(value), **{self._label: key})

    def inc(self, key: int, amount: int = 1) -> None:
        """Add ``amount`` to one series without reading the others."""
        self._counter.inc(amount, **{self._label: key})

    def get(self, key: int, default: int = 0) -> int:
        snapshot = self._snapshot()
        return snapshot.get(int(key), default)

    def keys(self):
        return self._snapshot().keys()

    def values(self):
        return self._snapshot().values()

    def items(self):
        return self._snapshot().items()

    def __iter__(self) -> Iterator[int]:
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._counter.series())

    def __contains__(self, key: object) -> bool:
        return key in self._snapshot()

    def __bool__(self) -> bool:
        return bool(self._counter.series())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LabeledCounterDict):
            return self._snapshot() == other._snapshot()
        if isinstance(other, Mapping):
            return self._snapshot() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._snapshot())


class ServiceStatistics:
    """Counters accumulated by a :class:`~repro.service.server.QueryService`.

    The attribute API is unchanged from the original dataclass (every field
    documented in the module tables reads and writes like a plain int/float
    attribute, ``per_site_load`` / ``per_owner_dispatch`` like plain dicts)
    — but the storage is the given
    :class:`~repro.observability.metrics.MetricsRegistry`, which other
    components (result cache, tracer, worker metrics merges) share.

    Latency accounting is asymmetric on purpose: cached hits and full
    evaluations accumulate into *separate* series (``cached_latency`` /
    ``evaluated_latency`` and the two-outcome latency histogram), because a
    hit-rate shift would otherwise distort the evaluated mean — the figure
    capacity planning actually needs.  ``total_latency`` / ``max_latency``
    remain as the combined view.

    Args:
        registry: the metrics registry to back the counters (a private one
            is created when not given — every counter still works, it is
            just not shared).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        object.__setattr__(self, "_registry", reg)
        metrics: Dict[str, object] = {}
        for field, (name, help_text) in _INT_COUNTERS.items():
            metrics[field] = reg.counter(name, help_text)
        for field, (name, help_text) in _FLOAT_COUNTERS.items():
            metrics[field] = reg.counter(name, help_text)
        for field, (name, help_text) in _GAUGES.items():
            metrics[field] = reg.gauge(name, help_text)
        object.__setattr__(self, "_metrics", metrics)
        object.__setattr__(
            self,
            "_latency",
            reg.histogram(
                LATENCY_HISTOGRAM,
                "Per-query wall-clock latency, split by cache outcome.",
                labelnames=("outcome",),
            ),
        )
        object.__setattr__(
            self,
            "per_site_load",
            _LabeledCounterDict(
                reg.counter(
                    SITE_DISPATCH_COUNTER,
                    "Subqueries dispatched to each fragment site.",
                    labelnames=("fragment",),
                ),
                "fragment",
            ),
        )
        object.__setattr__(
            self,
            "per_owner_dispatch",
            _LabeledCounterDict(
                reg.counter(
                    OWNER_DISPATCH_COUNTER,
                    "Subqueries routed to each owner worker (tasks, not messages).",
                    labelnames=("worker",),
                ),
                "worker",
            ),
        )
        object.__setattr__(
            self,
            "_transit_lookups",
            reg.counter(
                TRANSIT_LOOKUPS_COUNTER,
                "Border-to-border subqueries looked up in a fragment's transit table.",
                labelnames=("outcome",),
            ),
        )
        object.__setattr__(self, "_border_row_lookups", border_row_lookups_counter(reg))
        object.__setattr__(
            self,
            "_cache_decisions",
            reg.counter(
                CACHE_DECISIONS_COUNTER,
                "Cached answers a write's re-read kept, and those it evicted, by reason.",
                labelnames=("decision",),
            ),
        )
        object.__setattr__(
            self,
            "_update_fallbacks",
            reg.counter(
                UPDATE_FALLBACKS_COUNTER,
                "Updates an incremental database rebuilt for instead of absorbing in place.",
                labelnames=("stage",),
            ),
        )

    # ----------------------------------------------------- attribute routing

    def __getattr__(self, name: str):
        # Only called when normal lookup fails: the registry-backed fields.
        metrics = object.__getattribute__(self, "_metrics")
        metric = metrics.get(name)
        if metric is None:
            raise AttributeError(name)
        value = metric.value()
        if name in _FLOAT_COUNTERS or (name in _GAUGES and name not in _INT_GAUGES):
            return value
        return int(value)

    def __setattr__(self, name: str, value: object) -> None:
        metrics = object.__getattribute__(self, "_metrics")
        metric = metrics.get(name)
        if metric is None:
            object.__setattr__(self, name, value)
        elif name in _GAUGES:
            metric.set(float(value))  # type: ignore[union-attr, arg-type]
        else:
            # Counters arrive as absolute values (the += idiom reads first);
            # set_value keeps the view exact.
            metric.set_value(float(value))  # type: ignore[union-attr, arg-type]

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry backing (and superseding) these counters."""
        return self._registry

    # ------------------------------------------------------------- recording

    def record_query(self, latency: float, *, cached: bool) -> None:
        """Record one answered query and its wall-clock latency.

        Cached hits and full evaluations land in separate latency series
        (and separate histogram outcomes); the combined ``total_latency`` /
        ``max_latency`` aggregates are kept for the historical view.
        """
        self.queries += 1
        if cached:
            self.cache_hits += 1
            self.cached_latency += latency
            if latency > self.max_cached_latency:
                self.max_cached_latency = latency
            self._latency.observe(latency, outcome="cached")
        else:
            self.cache_misses += 1
            self.evaluated_latency += latency
            if latency > self.max_evaluated_latency:
                self.max_evaluated_latency = latency
            self._latency.observe(latency, outcome="evaluated")
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)

    def record_dispatch(self, fragment_id: int, count: int = 1) -> None:
        """Record ``count`` subqueries dispatched to one fragment site.

        Dispatch accounting is always per *task*: a batch of ``n`` subqueries
        shipped to a site (or routed to an owner worker in one message) must
        be recorded with ``count=n``, never as a single dispatch — the
        advisor's skew model would otherwise undercount exactly the hot,
        heavily-batched fragments it exists to find.  ``per_owner_dispatch``
        is fed separately from the routed pool's actual routing counts,
        which attribute tasks to the worker that really ran them (a replica
        or a respawned owner, not necessarily the plan's owner).
        """
        self._metrics["local_evaluations"].inc(count)
        self.per_site_load.inc(fragment_id, count)

    def record_transit_lookups(self, *, hits: int, misses: int) -> None:
        """Record transit-table outcomes: ``hits`` replayed, ``misses`` searched and filed."""
        if hits:
            self._transit_lookups.inc(hits, outcome="hit")
        if misses:
            self._transit_lookups.inc(misses, outcome="miss")

    def transit_lookups(self) -> Dict[str, int]:
        """Return the transit-table lookups so far, by outcome."""
        return {
            outcome: int(self._transit_lookups.value(outcome=outcome))
            for outcome in ("hit", "miss")
        }

    def record_border_row_lookups(self, *, reads: int, fills: int) -> None:
        """Record border-row outcomes: ``reads`` found filled, ``fills`` searched for."""
        if reads:
            self._border_row_lookups.inc(reads, outcome="read")
        if fills:
            self._border_row_lookups.inc(fills, outcome="fill")

    def border_row_lookups(self) -> Dict[str, int]:
        """Return the border-row lookups so far (pool workers' included), by outcome."""
        return {
            outcome: int(self._border_row_lookups.value(outcome=outcome))
            for outcome in ("read", "fill")
        }

    def record_cache_decisions(self, counts: Mapping[str, int]) -> None:
        """Record what one write decided for the cached answers it could have changed."""
        for decision, count in counts.items():
            if count:
                self._cache_decisions.inc(count, decision=decision)

    def cache_decisions(self) -> Dict[str, int]:
        """Return the cached answers writes kept and evicted so far, by decision."""
        return {
            decision: int(self._cache_decisions.value(decision=decision))
            for decision in CACHE_DECISIONS
        }

    def record_update_fallback(self, stage: str, count: int = 1) -> None:
        """Record ``count`` updates that took the full rebuild, by the stage that gave up."""
        if count:
            self._update_fallbacks.inc(count, stage=stage)

    def update_fallbacks(self) -> Dict[str, int]:
        """Return the updates that were not absorbed in place so far, by stage."""
        return {
            stage: int(self._update_fallbacks.value(stage=stage))
            for stage in UPDATE_FALLBACK_STAGES
        }

    def observe_owner_queues(
        self,
        *,
        owner_count: int,
        queue_depth_peak: int,
        queue_depth: Optional[int] = None,
    ) -> None:
        """Fold the routed pool's queue observability into the counters.

        ``queue_depth`` is the *live* view — the largest per-owner task
        batch of the most recent dispatch round, overwritten every round —
        while ``queue_depth_peak`` is its monotone high-water mark.
        """
        self.owner_count = max(self.owner_count, owner_count)
        self.queue_depth_peak = max(self.queue_depth_peak, queue_depth_peak)
        if queue_depth is not None:
            self.queue_depth = queue_depth

    # ------------------------------------------------------------- reporting

    def hit_rate(self) -> float:
        """Return the cache hit rate over all answered queries (0.0 when idle)."""
        answered = self.cache_hits + self.cache_misses
        return self.cache_hits / answered if answered else 0.0

    def average_latency(self) -> float:
        """Return the mean per-query latency in seconds (0.0 when idle)."""
        return self.total_latency / self.queries if self.queries else 0.0

    def average_cached_latency(self) -> float:
        """Return the mean cache-hit latency (0.0 when no hit was served)."""
        return self.cached_latency / self.cache_hits if self.cache_hits else 0.0

    def average_evaluated_latency(self) -> float:
        """Return the mean full-evaluation latency (0.0 when none ran).

        This is the series :meth:`average_latency` used to distort: a rising
        hit rate pulls the combined mean down without a single evaluation
        getting faster.
        """
        return self.evaluated_latency / self.cache_misses if self.cache_misses else 0.0

    def latency_quantiles(self, outcome: str = "evaluated") -> Dict[str, float]:
        """Return p50/p90/p99 latency estimates from the histogram registry.

        ``outcome`` selects the series: ``"evaluated"`` (default) or
        ``"cached"``.  All zeros when the series has no observations.
        """
        return {
            "p50": self._latency.quantile(0.50, outcome=outcome),
            "p90": self._latency.quantile(0.90, outcome=outcome),
            "p99": self._latency.quantile(0.99, outcome=outcome),
        }

    def dispatch_skew(self) -> float:
        """Return max/mean per-owner dispatch load (1.0 = balanced, 0.0 = idle).

        Workers that never received a task still count in the mean (via
        ``owner_count``): a pool where one of four owners does all the work
        skews 4.0, not 1.0.
        """
        if not self.per_owner_dispatch:
            return 0.0
        owners = max(self.owner_count, len(self.per_owner_dispatch))
        mean = sum(self.per_owner_dispatch.values()) / owners
        return max(self.per_owner_dispatch.values()) / mean if mean else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Return the counters, and the figures derived from them, as a flat dictionary."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate(), 4),
            "local_evaluations": self.local_evaluations,
            "reread_tasks": self.reread_tasks,
            "shared_subqueries_saved": self.shared_subqueries_saved,
            "duplicate_queries_saved": self.duplicate_queries_saved,
            "invalidations": self.invalidations,
            "scoped_invalidations": self.scoped_invalidations,
            "cache_entries_evicted": self.cache_entries_evicted,
            "cache_decisions": self.cache_decisions(),
            "updates_applied": self.updates_applied,
            "replayed_records": self.replayed_records,
            "snapshots_saved": self.snapshots_saved,
            "snapshots_loaded": self.snapshots_loaded,
            "transit_lookups": self.transit_lookups(),
            "border_row_lookups": self.border_row_lookups(),
            "update_fallbacks": self.update_fallbacks(),
            "per_site_load": dict(sorted(self.per_site_load.items())),
            "per_owner_dispatch": dict(sorted(self.per_owner_dispatch.items())),
            "owner_count": self.owner_count,
            "dispatch_skew": round(self.dispatch_skew(), 4),
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "migrations": self.migrations,
            "placement_aware_batches": self.placement_aware_batches,
            "batch_owner_rounds": self.batch_owner_rounds,
            "refragments": self.refragments,
            "scoped_refragments": self.scoped_refragments,
            "refragment_fragments_rebuilt": self.refragment_fragments_rebuilt,
            "refragment_fragments_kept": self.refragment_fragments_kept,
            "refragment_moved_edges": self.refragment_moved_edges,
            "border_nodes_recovered": self.border_nodes_recovered,
            "replica_refreshes": self.replica_refreshes,
            "replica_repins_deferred": self.replica_repins_deferred,
            "total_latency": self.total_latency,
            "cached_latency": self.cached_latency,
            "evaluated_latency": self.evaluated_latency,
            "average_latency": self.average_latency(),
            "average_cached_latency": self.average_cached_latency(),
            "average_evaluated_latency": self.average_evaluated_latency(),
            "max_latency": self.max_latency,
            "max_cached_latency": self.max_cached_latency,
            "max_evaluated_latency": self.max_evaluated_latency,
        }

    def __repr__(self) -> str:
        return f"ServiceStatistics({self.as_dict()!r})"
