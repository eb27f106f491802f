"""The structured query log: the service's first real workload signal.

The advisors so far read *structural* signals (border growth, cross-fragment
edge ratio, update skew) — they can see the layout erode but not what the
workload actually asks.  The workload-mined fragmentation literature ("Query
Workload-based RDF Graph Fragmentation and Allocation", PAPERS.md) needs
exactly what nobody recorded: which endpoints are queried, which fragments
their chains touch, how often, and how slowly.  :class:`QueryLog` records
that, bounded (oldest entries evicted first) and structured
(:class:`QueryLogEntry`), with a slow-query threshold that retains the
outliers even after the main window rolled past them.

The aggregation helpers (:meth:`QueryLog.fragment_frequencies`,
:meth:`QueryLog.query_skew`) are the interface the
:class:`~repro.placement.advisor.RebalanceAdvisor` and
:class:`~repro.refragmentation.advisor.RefragmentationAdvisor` consume —
notably, the log attributes *cached* answers to their fragments too, a load
signal the dispatch counters structurally cannot see (a hit dispatches
nothing).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

DEFAULT_CAPACITY = 256
DEFAULT_SLOW_THRESHOLD_SECONDS = 0.1


class QueryLogEntry:
    """One answered (or failed) query, as the workload model sees it.

    A plain slotted class rather than a (frozen) dataclass: one entry is
    built per answered query on the hot path, and frozen-dataclass
    construction pays ``object.__setattr__`` per field.

    Attributes:
        source / target: the queried endpoints.
        semiring: the path problem's name.
        fragments: the fragment ids the answer's chain involved (for cached
            answers, the fragments the cached entry depends on).
        latency: wall-clock seconds spent answering.
        cached: whether the result cache answered.
        batched: whether the query arrived through ``query_batch``.
        trace_id: the id of the trace covering this query (``None`` when
            tracing was off).
        error: the planning failure message, for failed batch queries.
        timestamp: wall-clock time of the answer (``time.time``).
    """

    __slots__ = (
        "source",
        "target",
        "semiring",
        "fragments",
        "latency",
        "cached",
        "batched",
        "trace_id",
        "error",
        "timestamp",
    )

    def __init__(
        self,
        source: Hashable,
        target: Hashable,
        semiring: str,
        fragments: Tuple[int, ...] = (),
        latency: float = 0.0,
        cached: bool = False,
        batched: bool = False,
        trace_id: Optional[str] = None,
        error: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.semiring = semiring
        self.fragments = fragments
        self.latency = latency
        self.cached = cached
        self.batched = batched
        self.trace_id = trace_id
        self.error = error
        self.timestamp = time.time() if timestamp is None else timestamp

    def __repr__(self) -> str:
        return (
            f"QueryLogEntry(source={self.source!r}, target={self.target!r}, "
            f"fragments={self.fragments!r}, latency={self.latency}, "
            f"cached={self.cached}, error={self.error!r})"
        )

    def as_dict(self) -> Dict[str, object]:
        """Return the entry as plain data (CLI / JSON reporting)."""
        return {
            "source": self.source,
            "target": self.target,
            "semiring": self.semiring,
            "fragments": list(self.fragments),
            "latency": self.latency,
            "cached": self.cached,
            "batched": self.batched,
            "trace_id": self.trace_id,
            "error": self.error,
            "timestamp": self.timestamp,
        }


class QueryLog:
    """A bounded, structured log of answered queries with a slow-query side car.

    Args:
        capacity: entries retained in the main window (0 disables the log
            entirely — every :meth:`push` is a no-op).

    An entry that took :data:`DEFAULT_SLOW_THRESHOLD_SECONDS` (0.1 s) or more
    is also retained in the slow-query window, which holds ``capacity``
    entries of its own, so a burst of fast traffic cannot evict the outliers
    an operator is hunting.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"query log capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        # Rows are stored as bare tuples (field order = QueryLogEntry's
        # positional parameters) and materialised into entry objects only on
        # read: the hot path pays one tuple per answered query, the ten
        # attribute stores of an object happen on the operator's time.
        self._entries: Deque[tuple] = deque(maxlen=capacity or None)
        self._slow: Deque[tuple] = deque(maxlen=capacity or None)
        self._enabled = capacity > 0
        self.recorded = 0
        self.slow_count = 0

    # ------------------------------------------------------------- recording

    @property
    def enabled(self) -> bool:
        """Whether entries are currently recorded (toggle with enable/disable)."""
        return self._enabled

    def enable(self) -> None:
        """Resume recording (a no-op on a capacity-0 log, which has no window)."""
        if self._capacity > 0:
            self._enabled = True

    def disable(self) -> None:
        """Pause recording; the retained window keeps serving reads."""
        self._enabled = False

    @property
    def capacity(self) -> int:
        """The main window's bound."""
        return self._capacity

    def push(
        self,
        source: Hashable,
        target: Hashable,
        semiring: str,
        fragments: Tuple[int, ...] = (),
        latency: float = 0.0,
        cached: bool = False,
        batched: bool = False,
        trace_id: Optional[str] = None,
        error: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Append one query as positional fields — the hot-path entry point.

        Argument order matches :class:`QueryLogEntry`'s constructor; the
        fields are retained as a tuple, evicting the oldest when the window
        is full.
        """
        if not self._enabled:
            return
        row = (
            source,
            target,
            semiring,
            fragments,
            latency,
            cached,
            batched,
            trace_id,
            error,
            time.time() if timestamp is None else timestamp,
        )
        self._entries.append(row)
        self.recorded += 1
        if latency >= DEFAULT_SLOW_THRESHOLD_SECONDS:
            self._slow.append(row)
            self.slow_count += 1

    def clear(self) -> int:
        """Drop every retained entry (counters keep their totals)."""
        dropped = len(self._entries) + len(self._slow)
        self._entries.clear()
        self._slow.clear()
        return dropped

    # ------------------------------------------------------------- windows

    def __len__(self) -> int:
        return len(self._entries)

    def recent(self, count: int = 10) -> List[QueryLogEntry]:
        """Return the newest ``count`` entries, newest first."""
        if count <= 0:
            return []
        window = list(self._entries)
        return [QueryLogEntry(*row) for row in window[-count:][::-1]]

    def slowest(self, count: int = 10) -> List[QueryLogEntry]:
        """Return the slowest retained queries, slowest first.

        Prefers the dedicated slow window (entries past the threshold);
        when nothing ever crossed the threshold, falls back to ranking the
        main window so the command is still useful on a fast service.
        """
        if count <= 0:
            return []
        pool = list(self._slow) or list(self._entries)
        ranked = sorted(pool, key=lambda row: row[4], reverse=True)[:count]
        return [QueryLogEntry(*row) for row in ranked]

    # ---------------------------------------------------- workload signals

    def fragment_frequencies(self) -> Dict[int, int]:
        """Return fragment id -> how many retained queries touched it.

        Cached answers count: their fragments carried real read traffic even
        though no dispatch happened — the signal the dispatch counters miss.
        """
        frequencies: Dict[int, int] = {}
        for row in self._entries:
            for fragment_id in row[3]:
                frequencies[fragment_id] = frequencies.get(fragment_id, 0) + 1
        return frequencies

    def query_skew(self) -> float:
        """Return max/mean fragment touch concentration (0.0 when idle)."""
        frequencies = self.fragment_frequencies()
        if not frequencies:
            return 0.0
        mean = sum(frequencies.values()) / len(frequencies)
        return max(frequencies.values()) / mean if mean else 0.0

    def cached_share(self) -> float:
        """Return the retained window's cache-hit share (0.0 when empty)."""
        if not self._entries:
            return 0.0
        return sum(1 for row in self._entries if row[5]) / len(self._entries)

    def error_count(self) -> int:
        """Return how many retained entries carry a planning error."""
        return sum(1 for row in self._entries if row[8] is not None)
