"""Declarative SLOs over the metrics registry, with burn-rate alerting.

An :class:`SLODefinition` names an objective ("99% of queries complete
within 100ms", "99.9% of serving requests succeed") and points at the
registry series that measure it — a latency histogram with a threshold
bucket, or a labeled counter with a bad-outcome predicate.  The
:class:`SLOMonitor` snapshots the cumulative good/total counts on every
evaluation and keeps a bounded time-stamped ring of them, which is what
turns monotone counters into *windowed* error rates.

Alerting follows the multi-window burn-rate recipe: an objective is
burning when both a long window and a short confirmation window exceed the
same burn-rate factor (burn rate = windowed error rate divided by the
error budget ``1 - objective``).  The long window gives the alert
significance, the short one makes it stop quickly once the bleeding
stops.  Two standard windows are preconfigured: a fast page (1h/5m at
14.4x — budget gone in ~2 days) and a slow ticket (6h/30m at 6x).

The monitor takes an injectable clock so tests can replay hours of burn
in microseconds, and it never writes to the registry — evaluation is a
read-side concern the serving tier triggers lazily from ``healthz`` /
``readyz`` / ``stats``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLODefinition",
    "SLOMonitor",
    "SLOStatus",
    "default_slos",
]


@dataclass(frozen=True)
class BurnWindow:
    """One long/short burn-rate alert pair."""

    long_seconds: float
    short_seconds: float
    factor: float
    severity: str  # "page" | "ticket"


#: The standard SRE pairs: page on fast burn, ticket on slow burn.
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(long_seconds=3600.0, short_seconds=300.0, factor=14.4, severity="page"),
    BurnWindow(long_seconds=21600.0, short_seconds=1800.0, factor=6.0, severity="ticket"),
)

_SEVERITY_RANK = {"ok": 0, "ticket": 1, "page": 2}


@dataclass(frozen=True)
class SLODefinition:
    """One objective and the registry series that measure it.

    Exactly one source must be set:

    * ``histogram`` + ``threshold`` — a latency objective: an observation is
      *good* when it landed in a bucket whose upper bound is at most
      ``threshold``; total is the histogram's count.
    * ``counter`` + ``bad_label`` + ``bad_values`` — an availability
      objective: series whose ``bad_label`` value is in ``bad_values``
      count as bad, everything else as good.
    """

    name: str
    objective: float
    description: str = ""
    histogram: Optional[str] = None
    threshold: Optional[float] = None
    counter: Optional[str] = None
    bad_label: Optional[str] = None
    bad_values: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: objective must be in (0, 1), got {self.objective}"
            )
        latency = self.histogram is not None
        availability = self.counter is not None
        if latency == availability:
            raise ValueError(
                f"SLO {self.name!r}: set exactly one of histogram= or counter="
            )
        if latency and self.threshold is None:
            raise ValueError(f"SLO {self.name!r}: histogram SLOs need threshold=")
        if availability and (self.bad_label is None or not self.bad_values):
            raise ValueError(
                f"SLO {self.name!r}: counter SLOs need bad_label= and bad_values="
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction ``1 - objective``."""
        return 1.0 - self.objective


@dataclass(slots=True)
class SLOStatus:
    """One SLO's evaluated state."""

    name: str
    objective: float
    description: str
    good: float
    total: float
    error_rate: float
    budget_remaining: float
    severity: str
    burn: List[Dict[str, object]] = field(default_factory=list)

    @property
    def alerting(self) -> bool:
        return self.severity != "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective,
            "description": self.description,
            "good": self.good,
            "total": self.total,
            "error_rate": self.error_rate,
            "budget_remaining": self.budget_remaining,
            "severity": self.severity,
            "alerting": self.alerting,
            "burn": [dict(entry) for entry in self.burn],
        }


# Snapshots an SLOMonitor retains per objective.
HISTORY_CAPACITY = 2048


class SLOMonitor:
    """Evaluates a set of SLOs against one registry, remembering history.

    Args:
        registry: the metrics registry the objectives read from.
        slos: the objectives to track.
        windows: burn-rate alert pairs (default the standard page/ticket).
        clock: monotone seconds source (injectable for tests).

    :data:`HISTORY_CAPACITY` snapshots are retained per SLO; at one sample
    per ``healthz`` scrape this comfortably covers the longest default window.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        slos: Sequence[SLODefinition],
        *,
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._registry = registry
        self._slos = tuple(slos)
        self._windows = tuple(windows)
        self._clock = clock
        self._history: Dict[str, Deque[Tuple[float, float, float]]] = {
            slo.name: deque(maxlen=HISTORY_CAPACITY) for slo in self._slos
        }
        # Baseline snapshot: a monitor started against a warm registry must
        # measure burn from now on, not inherit the past as instant debt.
        self.sample()

    # -------------------------------------------------------------- sampling

    def _totals(self, slo: SLODefinition) -> Tuple[float, float]:
        """Cumulative (good, total) for ``slo`` right now."""
        if slo.histogram is not None:
            metric = self._registry.get(slo.histogram)
            if not isinstance(metric, Histogram):
                return (0.0, 0.0)
            good = total = 0.0
            threshold = float(slo.threshold)  # type: ignore[arg-type]
            for series in metric.series_dicts():
                counts = series["bucket_counts"]
                for upper, count in zip(metric.buckets, counts):
                    if upper <= threshold:
                        good += count
                total += series["count"]
            return (good, total)
        metric = self._registry.get(slo.counter)  # type: ignore[arg-type]
        if metric is None or slo.bad_label not in metric.labelnames:
            return (0.0, 0.0)
        good = total = 0.0
        for series in metric.series_dicts():
            value = float(series["value"])
            total += value
            if series["labels"].get(slo.bad_label) not in slo.bad_values:
                good += value
        return (good, total)

    def sample(self, now: Optional[float] = None) -> None:
        """Snapshot every SLO's cumulative counts at ``now``."""
        stamp = self._clock() if now is None else now
        for slo in self._slos:
            good, total = self._totals(slo)
            self._history[slo.name].append((stamp, good, total))

    # ------------------------------------------------------------ evaluation

    @staticmethod
    def _window_error_rate(
        samples: Deque[Tuple[float, float, float]], window: float
    ) -> float:
        """Error rate between the newest sample and the window's oldest."""
        newest = samples[-1]
        cutoff = newest[0] - window
        base = samples[0]
        for sample in samples:
            if sample[0] >= cutoff:
                base = sample
                break
        delta_total = newest[2] - base[2]
        if delta_total <= 0:
            return 0.0
        delta_good = newest[1] - base[1]
        return max(0.0, 1.0 - delta_good / delta_total)

    def evaluate(self, now: Optional[float] = None) -> Dict[str, SLOStatus]:
        """Sample, then return every SLO's status keyed by name."""
        self.sample(now)
        statuses: Dict[str, SLOStatus] = {}
        for slo in self._slos:
            samples = self._history[slo.name]
            _, good, total = samples[-1]
            error_rate = 1.0 - good / total if total > 0 else 0.0
            severity = "ok"
            burn_report: List[Dict[str, object]] = []
            for window in self._windows:
                long_rate = self._window_error_rate(samples, window.long_seconds)
                short_rate = self._window_error_rate(samples, window.short_seconds)
                long_burn = long_rate / slo.budget
                short_burn = short_rate / slo.budget
                firing = long_burn >= window.factor and short_burn >= window.factor
                burn_report.append(
                    {
                        "severity": window.severity,
                        "long_seconds": window.long_seconds,
                        "short_seconds": window.short_seconds,
                        "factor": window.factor,
                        "long_burn": long_burn,
                        "short_burn": short_burn,
                        "firing": firing,
                    }
                )
                if firing and _SEVERITY_RANK[window.severity] > _SEVERITY_RANK[severity]:
                    severity = window.severity
            statuses[slo.name] = SLOStatus(
                name=slo.name,
                objective=slo.objective,
                description=slo.description,
                good=good,
                total=total,
                error_rate=error_rate,
                budget_remaining=max(0.0, 1.0 - error_rate / slo.budget),
                severity=severity,
                burn=burn_report,
            )
        return statuses

    def worst_severity(self, statuses: Optional[Dict[str, SLOStatus]] = None) -> str:
        """The highest severity across SLOs ("ok" | "ticket" | "page")."""
        if statuses is None:
            statuses = self.evaluate()
        worst = "ok"
        for status in statuses.values():
            if _SEVERITY_RANK[status.severity] > _SEVERITY_RANK[worst]:
                worst = status.severity
        return worst

    def as_dict(self, statuses: Optional[Dict[str, SLOStatus]] = None) -> Dict[str, object]:
        """Plain-data summary for health endpoints and ``stats`` exports."""
        if statuses is None:
            statuses = self.evaluate()
        return {
            "severity": self.worst_severity(statuses),
            "objectives": [statuses[slo.name].as_dict() for slo in self._slos],
        }


#: The stock objectives: 99 % of queries within 100 ms (a bucket bound of
#: ``repro_query_latency_seconds``), 99.9 % of serving requests succeed.
LATENCY_THRESHOLD_SECONDS = 0.1
LATENCY_OBJECTIVE = 0.99
AVAILABILITY_OBJECTIVE = 0.999


def default_slos() -> Tuple[SLODefinition, ...]:
    """The serving tier's stock objectives.

    Latency reads the service's ``repro_query_latency_seconds`` histogram;
    availability reads the server's per-outcome
    ``repro_serving_requests_total`` counter.
    """
    return (
        SLODefinition(
            name="query_latency",
            objective=LATENCY_OBJECTIVE,
            description=(
                f"{LATENCY_OBJECTIVE:.1%} of queries complete within "
                f"{LATENCY_THRESHOLD_SECONDS * 1000:g}ms"
            ),
            histogram="repro_query_latency_seconds",
            threshold=LATENCY_THRESHOLD_SECONDS,
        ),
        SLODefinition(
            name="serving_availability",
            objective=AVAILABILITY_OBJECTIVE,
            description=(
                f"{AVAILABILITY_OBJECTIVE:.2%} of serving requests succeed"
            ),
            counter="repro_serving_requests_total",
            bad_label="outcome",
            bad_values=("error",),
        ),
    )
