"""Operational statistics of the query service.

The paper's economics only work when the preparation cost (fragmentation +
complementary information) is amortised over many queries; these counters make
the amortisation observable: cache hit rate, per-site dispatch load, the
subqueries a batch shared instead of recomputing, and the invalidations that
updates caused.

Every figure is a handle on the service's
:class:`~repro.observability.metrics.MetricsRegistry` (the tables below map
each field to its metric name), so the ``stats`` document, the Prometheus
exposition and the JSON export read one store.  The registry also holds the
``repro_query_latency_seconds`` histogram, split by ``outcome`` into
``cached`` and ``evaluated`` series so a hit-rate change cannot distort the
evaluated quantiles.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from ..observability import MetricsRegistry
from ..observability.metrics import Counter

# field -> (metric name, help).  Counters: monotone event totals, then the
# wall-clock accumulators in seconds.
_COUNTERS: Dict[str, Tuple[str, str]] = {
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
    "total_latency": ("repro_latency_seconds_total", "Wall-clock seconds answering queries (cached + evaluated)."),
    "cached_latency": ("repro_cached_latency_seconds_total", "Wall-clock seconds spent serving cache hits."),
    "evaluated_latency": ("repro_evaluated_latency_seconds_total", "Wall-clock seconds spent on full evaluations."),
}

# Gauges: last-written / high-water values, and the one signed accumulator
# (border_nodes_recovered counts negative contributions too).
_GAUGES: Dict[str, Tuple[str, str]] = {
    "owner_count": ("repro_owner_count", "Worker slots behind the per-owner dispatch series."),
    "queue_depth": ("repro_queue_depth", "Tasks enqueued to owner workers in the latest dispatch round (live view)."),
    "queue_depth_peak": ("repro_queue_depth_peak", "Largest per-owner task batch observed."),
    "border_nodes_recovered": ("repro_border_nodes_recovered", "Cumulative border-node reduction across redraws (signed)."),
    "max_latency": ("repro_max_latency_seconds", "Slowest answer observed (cached or evaluated)."),
    "max_cached_latency": ("repro_max_cached_latency_seconds", "Slowest cache hit observed."),
    "max_evaluated_latency": ("repro_max_evaluated_latency_seconds", "Slowest full evaluation observed."),
}

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

# field -> (metric name, help, label): the labeled counters.  The dispatch
# series count tasks per fragment id / worker index; see :meth:`counts`.
_LABELED_COUNTERS: Dict[str, Tuple[str, str, str]] = {
    "per_site_load": (SITE_DISPATCH_COUNTER, "Subqueries dispatched to each fragment site.", "fragment"),
    "per_owner_dispatch": (OWNER_DISPATCH_COUNTER, "Subqueries routed to each owner worker (tasks, not messages).", "worker"),
    "_transit_lookups": (TRANSIT_LOOKUPS_COUNTER, "Border-to-border subqueries looked up in a fragment's transit table.", "outcome"),
    "_cache_decisions": (CACHE_DECISIONS_COUNTER, "Cached answers a write's re-read kept, and those it evicted, by reason.", "decision"),
    "_update_fallbacks": (UPDATE_FALLBACKS_COUNTER, "Updates an incremental database rebuilt for instead of absorbing in place.", "stage"),
}


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


def _inc_nonzero(counter: Counter, counts: Mapping[str, int]) -> None:
    # A zero adds no series: the exposition lists only outcomes that happened.
    label = counter.labelnames[0]
    for value, count in counts.items():
        if count:
            counter.inc(count, **{label: value})


def _by_label(counter: Counter, values: Sequence[str]) -> Dict[str, int]:
    label = counter.labelnames[0]
    return {value: int(counter.value(**{label: value})) for value in values}


class ServiceStatistics:
    """Metric handles of a :class:`~repro.service.server.QueryService`.

    Each field of the module tables is a :class:`Counter` or
    :class:`~repro.observability.metrics.Gauge` attribute the service writes
    directly (``stats.batches.inc()``, ``stats.max_latency.max_of(latency)``)
    and readers read with ``.value()``.  Other components (result cache,
    tracer, worker metrics merges) share the same registry.

    Latency accounting is asymmetric on purpose: cached hits and full
    evaluations accumulate into *separate* series (``cached_latency`` /
    ``evaluated_latency`` and the two-outcome latency histogram), because a
    hit-rate shift would otherwise distort the evaluated mean — the figure
    capacity planning actually needs.  ``total_latency`` / ``max_latency``
    remain as the combined view.

    Args:
        registry: the metrics registry the handles are registered on.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        for field, (name, help_text) in _COUNTERS.items():
            setattr(self, field, registry.counter(name, help_text))
        for field, (name, help_text) in _GAUGES.items():
            setattr(self, field, registry.gauge(name, help_text))
        for field, (name, help_text, label) in _LABELED_COUNTERS.items():
            setattr(self, field, registry.counter(name, help_text, labelnames=(label,)))
        self._border_row_lookups = border_row_lookups_counter(registry)
        self._latency = registry.histogram(
            LATENCY_HISTOGRAM,
            "Per-query wall-clock latency, split by cache outcome.",
            labelnames=("outcome",),
        )

    def record_query(self, latency: float, *, cached: bool) -> None:
        """Record one answered query and its wall-clock latency, in its outcome's series and the combined ones."""
        self.queries.inc()
        if cached:
            self.cache_hits.inc()
            self.cached_latency.inc(latency)
            self.max_cached_latency.max_of(latency)
            self._latency.observe(latency, outcome="cached")
        else:
            self.cache_misses.inc()
            self.evaluated_latency.inc(latency)
            self.max_evaluated_latency.max_of(latency)
            self._latency.observe(latency, outcome="evaluated")
        self.total_latency.inc(latency)
        self.max_latency.max_of(latency)

    def record_transit_lookups(self, *, hits: int, misses: int) -> None:
        """Record transit-table outcomes: ``hits`` replayed, ``misses`` searched and filed."""
        _inc_nonzero(self._transit_lookups, {"hit": hits, "miss": misses})

    def transit_lookups(self) -> Dict[str, int]:
        """Return the transit-table lookups so far, by outcome."""
        return _by_label(self._transit_lookups, ("hit", "miss"))

    def record_border_row_lookups(self, *, reads: int, fills: int) -> None:
        """Record border-row outcomes: ``reads`` found filled, ``fills`` searched for."""
        _inc_nonzero(self._border_row_lookups, {"read": reads, "fill": fills})

    def border_row_lookups(self) -> Dict[str, int]:
        """Return the border-row lookups so far (pool workers' included), by outcome."""
        return _by_label(self._border_row_lookups, ("read", "fill"))

    def record_cache_decisions(self, counts: Mapping[str, int]) -> None:
        """Record what one write decided for the cached answers it could have changed."""
        _inc_nonzero(self._cache_decisions, counts)

    def cache_decisions(self) -> Dict[str, int]:
        """Return the cached answers writes kept and evicted so far, by decision."""
        return _by_label(self._cache_decisions, CACHE_DECISIONS)

    def record_update_fallback(self, stage: str) -> None:
        """Record one update that took the full rebuild, by the stage that gave up."""
        self._update_fallbacks.inc(stage=stage)

    def update_fallbacks(self) -> Dict[str, int]:
        """Return the updates that were not absorbed in place so far, by stage."""
        return _by_label(self._update_fallbacks, UPDATE_FALLBACK_STAGES)

    def observe_owner_queues(self, *, owner_count: int, queue_depth_peak: int, queue_depth: int) -> None:
        """Fold the routed pool's queue observability into the gauges.

        ``queue_depth`` is the *live* view — the largest per-owner task
        batch of the most recent dispatch round, overwritten every round —
        while ``queue_depth_peak`` is its monotone high-water mark.
        """
        self.owner_count.max_of(owner_count)
        self.queue_depth_peak.max_of(queue_depth_peak)
        self.queue_depth.set(queue_depth)

    @staticmethod
    def counts(counter: Counter) -> Dict[int, int]:
        """Return ``per_site_load`` or ``per_owner_dispatch`` as ``{fragment or worker: tasks}``."""
        return {int(key[0]): int(value) for key, value in counter.series().items()}

    def hit_rate(self) -> float:
        """Return the cache hit rate over all answered queries (0.0 when idle)."""
        hits = self.cache_hits.value()
        answered = hits + self.cache_misses.value()
        return hits / answered if answered else 0.0

    def average_latency(self) -> float:
        """Return the mean per-query latency in seconds (0.0 when idle)."""
        queries = self.queries.value()
        return self.total_latency.value() / queries if queries else 0.0

    def average_cached_latency(self) -> float:
        """Return the mean cache-hit latency (0.0 when no hit was served)."""
        hits = self.cache_hits.value()
        return self.cached_latency.value() / hits if hits else 0.0

    def average_evaluated_latency(self) -> float:
        """Return the mean full-evaluation latency (0.0 when none ran), undistorted by the hit rate."""
        misses = self.cache_misses.value()
        return self.evaluated_latency.value() / misses if misses else 0.0

    def latency_quantiles(self, outcome: str = "evaluated") -> Dict[str, float]:
        """Return p50/p90/p99 latency estimates from the histogram registry.

        ``outcome`` selects the series: ``"evaluated"`` (default) or
        ``"cached"``.  All zeros when the series has no observations.
        """
        return {
            f"p{round(q * 100)}": self._latency.quantile(q, outcome=outcome) for q in (0.50, 0.90, 0.99)
        }

    def dispatch_skew(self) -> float:
        """Return max/mean per-owner dispatch load (1.0 = balanced, 0.0 = idle).

        Workers that never received a task still count in the mean (via
        ``owner_count``): a pool where one of four owners does all the work
        skews 4.0, not 1.0.
        """
        loads = self.counts(self.per_owner_dispatch)
        if not loads:
            return 0.0
        owners = max(int(self.owner_count.value()), len(loads))
        mean = sum(loads.values()) / owners
        return max(loads.values()) / mean if mean else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Return the counters, and the figures derived from them, as a flat dictionary."""
        return {
            "queries": int(self.queries.value()),
            "batches": int(self.batches.value()),
            "batched_queries": int(self.batched_queries.value()),
            "cache_hits": int(self.cache_hits.value()),
            "cache_misses": int(self.cache_misses.value()),
            "hit_rate": round(self.hit_rate(), 4),
            "local_evaluations": int(self.local_evaluations.value()),
            "reread_tasks": int(self.reread_tasks.value()),
            "shared_subqueries_saved": int(self.shared_subqueries_saved.value()),
            "duplicate_queries_saved": int(self.duplicate_queries_saved.value()),
            "invalidations": int(self.invalidations.value()),
            "scoped_invalidations": int(self.scoped_invalidations.value()),
            "cache_entries_evicted": int(self.cache_entries_evicted.value()),
            "cache_decisions": self.cache_decisions(),
            "updates_applied": int(self.updates_applied.value()),
            "replayed_records": int(self.replayed_records.value()),
            "snapshots_saved": int(self.snapshots_saved.value()),
            "snapshots_loaded": int(self.snapshots_loaded.value()),
            "transit_lookups": self.transit_lookups(),
            "border_row_lookups": self.border_row_lookups(),
            "update_fallbacks": self.update_fallbacks(),
            "per_site_load": dict(sorted(self.counts(self.per_site_load).items())),
            "per_owner_dispatch": dict(sorted(self.counts(self.per_owner_dispatch).items())),
            "owner_count": int(self.owner_count.value()),
            "dispatch_skew": round(self.dispatch_skew(), 4),
            "queue_depth": int(self.queue_depth.value()),
            "queue_depth_peak": int(self.queue_depth_peak.value()),
            "migrations": int(self.migrations.value()),
            "placement_aware_batches": int(self.placement_aware_batches.value()),
            "batch_owner_rounds": int(self.batch_owner_rounds.value()),
            "refragments": int(self.refragments.value()),
            "scoped_refragments": int(self.scoped_refragments.value()),
            "refragment_fragments_rebuilt": int(self.refragment_fragments_rebuilt.value()),
            "refragment_fragments_kept": int(self.refragment_fragments_kept.value()),
            "refragment_moved_edges": int(self.refragment_moved_edges.value()),
            "border_nodes_recovered": int(self.border_nodes_recovered.value()),
            "replica_refreshes": int(self.replica_refreshes.value()),
            "replica_repins_deferred": int(self.replica_repins_deferred.value()),
            "total_latency": self.total_latency.value(),
            "cached_latency": self.cached_latency.value(),
            "evaluated_latency": self.evaluated_latency.value(),
            "average_latency": self.average_latency(),
            "average_cached_latency": self.average_cached_latency(),
            "average_evaluated_latency": self.average_evaluated_latency(),
            "max_latency": self.max_latency.value(),
            "max_cached_latency": self.max_cached_latency.value(),
            "max_evaluated_latency": self.max_evaluated_latency.value(),
        }

    def __repr__(self) -> str:
        return f"ServiceStatistics({self.as_dict()!r})"
