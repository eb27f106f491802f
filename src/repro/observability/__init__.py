"""Telemetry for the serving stack: metrics, traces, and the query log.

Five interacting layers (cache → batch planner → routed pool → workers →
kernels) plus two advisors need more than a flat counter bag.  This package
is the cross-cutting observability substrate they share:

* :mod:`~repro.observability.metrics` — :class:`MetricsRegistry` with
  labeled counters, gauges, and fixed-bucket histograms (p50/p90/p99),
  mergeable across processes, exported as JSON or Prometheus text,
* :mod:`~repro.observability.tracing` — :class:`Tracer` producing one trace
  per service call with spans for every pipeline stage, including
  worker-side kernel spans shipped back over the result channels,
* :mod:`~repro.observability.querylog` — the bounded structured
  :class:`QueryLog` (endpoints, fragments touched, latency, cache/trace
  outcome, slow-query side car), the first real *workload* signal the
  placement and refragmentation advisors consume,
* :mod:`~repro.observability.slo` — declarative latency/error objectives
  evaluated from the registry with multi-window burn-rate alerting, the
  substance behind the serving tier's ``healthz`` / ``readyz``,
* :mod:`~repro.observability.profiler` — the continuous sampling profiler
  tagging hot frames with the active trace/span and kernel backend.

:class:`~repro.service.stats.ServiceStatistics` holds the query service's
counter and gauge handles on a registry from this package.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from .querylog import (
    DEFAULT_SLOW_THRESHOLD_SECONDS,
    QueryLog,
    QueryLogEntry,
)
from .profiler import SamplingProfiler
from .slo import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    SLODefinition,
    SLOMonitor,
    SLOStatus,
    default_slos,
)
from .tracing import NULL_SPAN, Span, Trace, TraceContext, Tracer

__all__ = [
    "BurnWindow",
    "Counter",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SLOW_THRESHOLD_SECONDS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_SPAN",
    "QueryLog",
    "QueryLogEntry",
    "SLODefinition",
    "SLOMonitor",
    "SLOStatus",
    "SamplingProfiler",
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "default_slos",
]
