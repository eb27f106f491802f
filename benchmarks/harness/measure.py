"""Measurement helpers: percentiles, machine-speed calibration, set-up, memory.

**Why timings are speed-normalised.**  On the shared 2-core boxes this
benchmark runs on, the same pure-Python loop takes anywhere between 7 ms and
14 ms depending on what the neighbouring tenants are doing, and the slow
spells last seconds: ten runs of one workload on one seed spread by 15-25 %
around their median, more than any regression bound worth having.  Process
CPU time is no better (the core is slower, not preempted — except in the
spells :func:`wait_for_quiet` sits out).  So the closed
loop interleaves a fixed :func:`calibration kernel <_kernel>` with the ops —
one ~0.4 ms sample every 10 ms — and every latency is divided by the local
speed factor: the median kernel time within half a second of the op,
over the kernel's time on a quiet reference core.  A reported millisecond is
a millisecond *at reference speed*; the raw wall-clock numbers are printed
beside it.  Measured on recorded traces this cuts the run-to-run spread of a
median from 7-15 % to 1-5 %.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import resource
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

# A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
# The gated tail is the median of the tails of up to this many contiguous
# parts of the run, each at least MIN_SLICE_SAMPLES long.
TAIL_SLICES = 4
MIN_SLICE_SAMPLES = 40


# ---------------------------------------------------------------- calibration

# The kernel's duration on a quiet core of the box the baseline was taken on.
# It only fixes the scale of "reference speed"; both sides of a comparison
# use the same constant.
REFERENCE_SECONDS = 0.00035
SAMPLE_EVERY_SECONDS = 0.010
LONG_OP_SECONDS = 0.1  # an op this long is bracketed by bursts, not interleaved samples
WINDOW_SECONDS = 0.5  # samples this close to a short op set its speed factor
LONG_WINDOW_SECONDS = 2.0  # a long op only has the bursts around it: look further
BURST = 7
MIN_INSIDE_SAMPLES = 8  # fewer ticks than this inside a call: use the samples around it

QUIET_WINDOW_SECONDS = 0.3
QUIET_SHARE = 0.02  # of both CPUs' jiffies in the window: one stolen jiffy of 60
QUIET_PATIENCE_SECONDS = 60.0  # per wait; a run waits twice and must end within 180 s

_KEYS = [(i, i * 7 % 251) for i in range(400)]
_ADJACENCY = [[(j * 37 + i) % 300 for j in range(3)] for i in range(300)]


class _Box:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _kernel() -> float:
    """Fixed work shaped like the program's: arithmetic, dict/object churn, a heap search."""
    total = 0
    for i in range(6000):
        total += i * i
    table = {}
    for key in _KEYS:
        table[key] = _Box(key[0], total)
    for key in _KEYS:
        total += table[key].a + len(key)
    distance = [1e18] * len(_ADJACENCY)
    distance[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > distance[u]:
            continue
        for v in _ADJACENCY[u]:
            candidate = d + 1.0 + (v & 3)
            if candidate < distance[v]:
                distance[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return total + distance[-1]


class Calibrator:
    """Samples of the calibration kernel over time, and the speed factor they imply."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self.last = 0.0
        self._factors: Dict[int, float] = {}

    def sample(self) -> None:
        started = perf_counter()
        _kernel()
        self.last = perf_counter()
        self.times.append(started)
        self.durations.append(self.last - started)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def tick(self) -> None:
        """Sample when one is due; called between the pieces of a long set-up."""
        if perf_counter() - self.last >= SAMPLE_EVERY_SECONDS:
            self.sample()

    def after_op(self, now: float, latency: float) -> None:
        """Called by the closed loop after each op: sample when one is due."""
        if latency > LONG_OP_SECONDS:
            self.burst()
        elif now - self.last >= SAMPLE_EVERY_SECONDS:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Machine slowness over ``[start, end]``: 1.0 = reference speed, 1.3 = 30 % slower."""
        if end - start < SAMPLE_EVERY_SECONDS:
            bucket = int(start * 10)
            found = self._factors.get(bucket)
            if found is None:
                found = self._factors[bucket] = self._factor(bucket / 10.0, bucket / 10.0 + 0.1)
            return found
        return self._factor(start, end)

    def _factor(self, start: float, end: float) -> float:
        window = LONG_WINDOW_SECONDS if end - start > LONG_OP_SECONDS else WINDOW_SECONDS
        low = bisect.bisect_left(self.times, start - window)
        high = bisect.bisect_right(self.times, end + window)
        if high - low < 3:  # too few nearby: widen to the nearest few
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            low, high = max(0, middle - 3), min(len(self.times), middle + 3)
        return statistics.median(self.durations[low:high]) / REFERENCE_SECONDS

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds at reference speed of one long call that ran over ``[start, end]``.

        A call that :meth:`tick`-ed often enough while it ran is judged by the
        samples inside it: their own time is taken off the wall clock, and
        the rest is divided by their *mean* slowness (work done at speed
        ``v`` for a share ``w`` of the time costs ``sum(w * v)``).  Samples
        at the two ends alone miss a slow spell inside a 1-2 s build and
        left its time with a wider spread than the raw wall clock.
        """
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_left(self.times, end)
        inside = self.durations[low:high]
        if len(inside) < MIN_INSIDE_SAMPLES:
            return (end - start) / self.factor(start, end)
        return (end - start - sum(inside)) / (statistics.fmean(inside) / REFERENCE_SECONDS)

    def speed(self) -> float:
        """The run's median machine speed relative to the reference (1.0 = equal)."""
        return REFERENCE_SECONDS / statistics.median(self.durations)


def percentile(samples: Sequence[float], percent: float) -> float:
    """Linear-interpolated percentile of ``samples`` (which need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * percent / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(sample_count: int, percent: float) -> bool:
    """Are there at least ten samples beyond this percentile?"""
    return sample_count * (100 - percent) / 100.0 >= MIN_SAMPLES_BEYOND


def steady_tail(samples: Sequence[float], percent: float) -> float:
    """Median over contiguous quarters of the run of each quarter's percentile.

    ``samples`` are in issue order.  One slow spell of the machine (they last
    from half a second to a few seconds) puts a twentieth of a run's samples
    beyond any honest p95 and moved the whole-run percentile by 2-3x in one
    run out of five; it lands in one quarter here, and the median of the
    quarters leaves it out.  The whole-run percentile stays in the report.
    """
    slices = max(1, min(TAIL_SLICES, len(samples) // MIN_SLICE_SAMPLES))
    size = len(samples) / slices
    parts = [samples[round(i * size) : round((i + 1) * size)] for i in range(slices)]
    return statistics.median(percentile(part, percent) for part in parts)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def repeat_setup(
    build: Callable[..., T],
    dispose: Callable[[T], None],
    calibrator: Calibrator,
    *,
    minimum: int = 3,
    cheap_budget_seconds: float = 1.0,
    maximum: int = 25,
) -> Tuple[T, List[Tuple[float, float]]]:
    """Run ``build`` several times; return the last result and every duration.

    Durations are ``(raw_seconds, seconds_at_reference_speed)``: each build is
    bracketed by calibration bursts and is handed ``calibrator.tick`` to call
    between its pieces (see :meth:`Calibrator.at_reference_speed`).

    Set-up is repeated at least ``minimum`` times, and a set-up so cheap that
    three repetitions are over within ``cheap_budget_seconds`` keeps going
    (up to ``maximum``) so its median is not three samples of timer noise.
    Every result but the last is disposed of before the next build starts.
    """
    durations: List[Tuple[float, float]] = []
    result: Optional[T] = None
    while len(durations) < minimum or (
        sum(raw for raw, _ in durations) < cheap_budget_seconds and len(durations) < maximum
    ):
        if result is not None:
            dispose(result)
            result = None
            gc.collect()  # or the next build's peak memory depends on when the cycles go
        calibrator.burst()
        started = perf_counter()
        result = build(tick=calibrator.tick)
        ended = perf_counter()
        calibrator.burst()
        durations.append((ended - started, calibrator.at_reference_speed(started, ended)))
    assert result is not None
    return result, durations


def stolen_share(since: Tuple[int, int] = (0, 0)) -> Tuple[float, Tuple[int, int]]:
    """Share of the box's CPU time the hypervisor gave to others, and the new reading.

    ``/proc/stat`` counts the jiffies a vCPU was runnable but not run.  The
    calibration kernel's median cannot see them (a stolen slice hits one
    sample in many), yet a spell of 20-25 % steal triples ``net-closure``'s
    latencies; the share is reported so such a run can be recognised.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [int(field) for field in stream.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, since
    now = (fields[7], sum(fields))
    elapsed = now[1] - since[1]
    return ((now[0] - since[0]) / elapsed if elapsed else 0.0), now


def wait_for_quiet(patience: float = QUIET_PATIENCE_SECONDS) -> float:
    """Hold a run back while the hypervisor is stealing CPU; returns the seconds waited.

    Spells of 20-25 % steal come a few times an hour and last one to five
    minutes.  A timed phase that starts inside one measures the neighbours
    (``net-closure``, whose two processes must both be running for a request
    to move, came out 3-6x slower), so the run keeps a core busy for a third
    of a second at a time until a window passes with at most one stolen
    jiffy, or ``patience`` runs out.  A quiet box costs one window.
    """
    started = perf_counter()
    while True:
        _, before = stolen_share()
        window_end = perf_counter() + QUIET_WINDOW_SECONDS
        while perf_counter() < window_end:  # steal is only counted against a vCPU that wants to run
            _kernel()
        share, _ = stolen_share(before)
        waited = perf_counter() - started
        if share <= QUIET_SHARE or waited > patience:
            return waited


def peak_rss_mb() -> float:
    """Max resident set of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports kilobytes
