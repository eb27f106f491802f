"""Labeled metrics: counters, gauges, and fixed-bucket histograms.

The serving stack needs more than a flat counter bag: latency is a
*distribution* (a mean hides the p99 the paper's batching is supposed to
protect), per-fragment and per-worker figures are *labeled series* of one
logical metric, and worker processes produce measurements that must be folded
into the coordinator's view without shared memory.  :class:`MetricsRegistry`
provides exactly that substrate:

* :class:`Counter` — monotone labeled totals (``repro_queries_total``),
* :class:`Gauge` — last-written labeled values (pool shape, cache capacity),
* :class:`Histogram` — fixed-bucket labeled distributions with
  :meth:`Histogram.quantile` estimation (p50/p90/p99) from the bucket counts,

all addressable by ``(name, labels)``, exportable as JSON
(:meth:`MetricsRegistry.as_dict`) and Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`), and **mergeable across processes**:
a worker keeps its own registry, ships :meth:`MetricsRegistry.drain`
payloads over its private result channel, and the coordinator folds them in
with :meth:`MetricsRegistry.merge_dict` — counters and histogram buckets
add, gauges take the maximum (the conservative reading for high-water
marks).  Buckets are fixed at registration, so two processes' histograms of
the same metric always merge bucket-for-bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]

# Default latency buckets in seconds: sub-millisecond kernels up to
# multi-second full-rebuild work, roughly 2.5x apart.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """Render a sample the way Prometheus expects (integers without ``.0``)."""
    if value == inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Metric:
    """Base of the three metric kinds: a named family of labeled series.

    Attributes:
        name: the metric's Prometheus-style name.
        help: one-line description (the ``# HELP`` text).
        labelnames: the label keys every series of this family carries.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _key(self, labels: Mapping[str, object]) -> LabelValues:
        # As many labels as names, each name among them: the same names.
        names = self.labelnames
        if len(labels) == len(names):
            try:
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name!r} expects labels {names}, got {tuple(sorted(labels))}"
        )

    def _labels_of(self, key: LabelValues) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    # Subclasses implement: series_dicts, merge_series, reset, recorded,
    # prometheus_lines.


class Counter(Metric):
    """A monotone labeled total.  ``inc`` adds; merging sums."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series named by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Return the series' current total (0.0 when never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        """Return every labeled series' value, keyed by label-value tuple."""
        return dict(self._values)

    def series_dicts(self) -> List[Dict[str, object]]:
        return [
            {"labels": self._labels_of(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def merge_series(self, series: Iterable[Mapping[str, object]]) -> None:
        for entry in series:
            labels = dict(entry["labels"])  # type: ignore[arg-type]
            key = self._key(labels)
            self._values[key] = self._values.get(key, 0.0) + float(entry["value"])  # type: ignore[arg-type]

    def reset(self) -> None:
        self._values.clear()

    def recorded(self) -> bool:
        """Whether any series holds a value."""
        return bool(self._values)

    def prometheus_lines(self) -> List[str]:
        lines = []
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_render_labels(self.labelnames, key)} {_format_value(value)}")
        return lines


class Gauge(Metric):
    """A labeled last-written value.  ``set`` overwrites; merging takes the max.

    The max-merge is deliberate: every gauge this stack ships across a
    process boundary is a high-water mark (queue depth peak, resident
    fragments), for which the conservative fold is the maximum.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Overwrite the series named by ``labels``."""
        self._values[self._key(labels)] = float(value)

    def max_of(self, value: float, **labels: object) -> None:
        """Raise the series to ``value`` when larger (high-water mark write)."""
        key = self._key(labels)
        self._values[key] = max(self._values.get(key, value), value)

    def value(self, **labels: object) -> float:
        """Return the series' current value (0.0 when never set)."""
        return self._values.get(self._key(labels), 0.0)

    def series_dicts(self) -> List[Dict[str, object]]:
        return [
            {"labels": self._labels_of(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def merge_series(self, series: Iterable[Mapping[str, object]]) -> None:
        for entry in series:
            key = self._key(dict(entry["labels"]))  # type: ignore[arg-type]
            value = float(entry["value"])  # type: ignore[arg-type]
            self._values[key] = max(self._values.get(key, value), value)

    def reset(self) -> None:
        self._values.clear()

    def recorded(self) -> bool:
        """Whether any series holds a value."""
        return bool(self._values)

    def prometheus_lines(self) -> List[str]:
        lines = []
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_render_labels(self.labelnames, key)} {_format_value(value)}")
        return lines


class _HistogramSeries:
    """One labeled series of a histogram: bucket counts + sum + count + max."""

    __slots__ = ("bucket_counts", "sum", "count", "max")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * bucket_count
        self.sum = 0.0
        self.count = 0
        self.max = 0.0


class Histogram(Metric):
    """A labeled fixed-bucket distribution with quantile estimation.

    Args:
        name / help / labelnames: as for any metric.
        buckets: strictly increasing finite upper bounds; an implicit
            ``+Inf`` bucket is always appended.  Fixed at registration so
            histograms of the same metric merge bucket-for-bucket across
            processes.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])) or bounds[-1] == inf:
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing finite "
                f"upper bounds, got {bounds}"
            )
        self.buckets: Tuple[float, ...] = bounds
        self._series: Dict[LabelValues, _HistogramSeries] = {}

    def _get(self, labels: Mapping[str, object]) -> _HistogramSeries:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
        return series

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the series named by ``labels``."""
        series = self._get(labels)
        index = bisect_left(self.buckets, value)
        series.bucket_counts[index] += 1
        series.sum += value
        series.count += 1
        if value > series.max:
            series.max = value

    def count(self, **labels: object) -> int:
        """Return the series' observation count (0 when never observed)."""
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        """Return the series' observation sum (0.0 when never observed)."""
        series = self._series.get(self._key(labels))
        return series.sum if series is not None else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the bucket counts.

        The estimate interpolates linearly inside the bucket holding the
        target rank (lower bound 0.0 for the first bucket); ranks landing in
        the ``+Inf`` bucket return the observed maximum.  Returns 0.0 for a
        series with no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = q * series.count
        cumulative = 0
        for index, bucket_count in enumerate(series.bucket_counts):
            if bucket_count == 0:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.buckets):
                    return series.max
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                within = (rank - (cumulative - bucket_count)) / bucket_count
                return min(lower + (upper - lower) * within, series.max or upper)
        return series.max

    def series_dicts(self) -> List[Dict[str, object]]:
        entries = []
        for key, series in sorted(self._series.items()):
            entries.append(
                {
                    "labels": self._labels_of(key),
                    "buckets": list(self.buckets),
                    "bucket_counts": list(series.bucket_counts),
                    "sum": series.sum,
                    "count": series.count,
                    "max": series.max,
                }
            )
        return entries

    def merge_series(self, series: Iterable[Mapping[str, object]]) -> None:
        for entry in series:
            if tuple(entry["buckets"]) != self.buckets:  # type: ignore[arg-type]
                raise ValueError(
                    f"histogram {self.name!r} bucket mismatch: cannot merge "
                    f"{entry['buckets']} into {list(self.buckets)}"
                )
            target = self._get(dict(entry["labels"]))  # type: ignore[arg-type]
            for index, bucket_count in enumerate(entry["bucket_counts"]):  # type: ignore[arg-type]
                target.bucket_counts[index] += int(bucket_count)
            target.sum += float(entry["sum"])  # type: ignore[arg-type]
            target.count += int(entry["count"])  # type: ignore[arg-type]
            target.max = max(target.max, float(entry["max"]))  # type: ignore[arg-type]

    def reset(self) -> None:
        self._series.clear()

    def recorded(self) -> bool:
        """Whether any series holds an observation."""
        return bool(self._series)

    def prometheus_lines(self) -> List[str]:
        lines = []
        for key, series in sorted(self._series.items()):
            cumulative = 0
            for bound, bucket_count in zip(
                list(self.buckets) + [inf], series.bucket_counts
            ):
                cumulative += bucket_count
                labels = _render_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(series.sum)}")
            lines.append(f"{self.name}_count{plain} {series.count}")
        return lines


def _render_labels(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + body + "}"


class MetricsRegistry:
    """A named collection of metrics, exportable and mergeable.

    Registration is get-or-create: asking twice for the same name returns
    the same metric object (so independent components can share one series
    family), but asking with a different kind, label set, or bucket layout
    raises — silent divergence between two writers is exactly the bug a
    registry exists to prevent.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ---------------------------------------------------------- registration

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed on creation)."""
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_compatible(existing, Histogram, labelnames)
            assert isinstance(existing, Histogram)
            if tuple(float(b) for b in buckets) != existing.buckets:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{list(existing.buckets)}"
                )
            if help and not existing.help:
                existing.help = help
            return existing
        metric = Histogram(name, help, labelnames, buckets)
        self._metrics[name] = metric
        return metric

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str]):
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_compatible(existing, cls, labelnames)
            # Backfill help on a metric first touched helplessly (a worker
            # drain or a bare pre-registration): without this, whichever
            # writer got there first decided forever whether the Prometheus
            # exposition carries a # HELP line.
            if help and not existing.help:
                existing.help = help
            return existing
        metric = cls(name, help, labelnames)
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _check_compatible(existing: Metric, cls, labelnames: Sequence[str]) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {existing.name!r} is already registered as a "
                f"{existing.kind}, not a {cls.kind}"
            )
        if tuple(labelnames) != existing.labelnames:
            raise ValueError(
                f"metric {existing.name!r} is already registered with labels "
                f"{existing.labelnames}, not {tuple(labelnames)}"
            )

    # ------------------------------------------------------------- accessors

    def get(self, name: str) -> Optional[Metric]:
        """Return the metric registered as ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Return the registered metric names, sorted."""
        return sorted(self._metrics)

    # --------------------------------------------------------------- export

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Return every metric's series as plain data (JSON-serialisable)."""
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": metric.series_dicts(),
            }
            for name, metric in sorted(self._metrics.items())
        }

    def to_prometheus(self) -> str:
        """Return the registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.prometheus_lines())
        return "\n".join(lines) + "\n"

    # --------------------------------------------------------------- merging

    def merge_dict(self, payload: Mapping[str, Mapping[str, object]]) -> None:
        """Fold an :meth:`as_dict` / :meth:`drain` payload into this registry.

        Metrics absent here are created from the payload's description;
        counters and histogram buckets add, gauges take the maximum.  This
        is how worker-process measurements reach the coordinator: the worker
        drains its registry into plain data, ships it over its result
        channel, and the coordinator merges.
        """
        for name, description in payload.items():
            kind = description["kind"]
            labelnames = tuple(description.get("labelnames", ()))  # type: ignore[arg-type]
            help_text = str(description.get("help", ""))
            if kind == "counter":
                metric: Metric = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                series = description.get("series") or []
                buckets = (
                    tuple(series[0]["buckets"])  # type: ignore[index]
                    if series
                    else DEFAULT_LATENCY_BUCKETS
                )
                metric = self.histogram(name, help_text, labelnames, buckets)
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            metric.merge_series(description.get("series", ()))  # type: ignore[arg-type]

    def drain(self) -> Dict[str, Dict[str, object]]:
        """Return :meth:`as_dict` and reset every series.

        The shipping primitive for worker processes: each drained payload
        holds only the observations since the previous drain, so repeated
        merges on the coordinator never double-count.
        """
        payload = self.as_dict()
        self.reset()
        return payload

    def drain_into(self, target: "MetricsRegistry") -> None:
        """:meth:`drain` into ``target`` (:meth:`merge_dict`), skipped when it would add nothing.

        Nothing to add: no series recorded since the last drain, and every
        metric here already registered in ``target``.
        """
        metrics = self._metrics
        if any(metric.recorded() for metric in metrics.values()) or any(
            name not in target._metrics for name in metrics
        ):
            target.merge_dict(self.drain())

    def reset(self) -> None:
        """Zero every registered metric (the metrics stay registered)."""
        for metric in self._metrics.values():
            metric.reset()
