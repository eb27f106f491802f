"""Continuous sampling profiler tagging hot frames with trace and backend.

A daemon thread wakes every ``interval`` seconds, grabs the target
thread's current stack via ``sys._current_frames()``, and records the leaf
frame together with two tags read racily from the serving thread:

* the tracer's innermost open span (trace id + span name), so a hot frame
  points back at the requests burning in it;
* the kernel backend currently executing (published by
  ``repro.closure.kernels.reachability_rows`` around each dispatch), so a
  ``chain``-vs-``bigint`` selection regression shows up as a shifted
  backend column in the profile, not a vibe.

Frames aggregate by ``function (module:first_line)`` — the *defining* line,
not the executing line, so one hot loop is one row.  The profiler keeps
bounded state only: a frame×backend count table, a span-name×backend
table, and a small ring of recent trace-tagged samples linking profile
rows back to assembled traces.

Both tag reads are deliberately unsynchronised — worst case a sample lands
on the wrong side of a span boundary and is mis-tagged once.  The
profiler must never make the serving thread slower; it takes no locks the
serving thread could contend on, and :meth:`pause` / :meth:`resume` gate
sampling without thread churn so benchmarks can price the on/off delta
honestly.

``backend_probe`` is injected (defaulting to lazily importing
``repro.closure.backends.active_backend``) to keep this module free of an
import cycle with the closure package.
"""

from __future__ import annotations

import os.path
import sys
import threading
from collections import Counter as TallyCounter
from collections import deque
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .tracing import Tracer

__all__ = ["SamplingProfiler"]

DEFAULT_INTERVAL_SECONDS = 0.005
# Trace-tagged samples retained for trace linkage.
RECENT_CAPACITY = 512


def _default_backend_probe() -> Optional[str]:
    from ..closure.backends import active_backend

    return active_backend()


def _frame_key(frame) -> str:
    code = frame.f_code
    return f"{code.co_name} ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"


class SamplingProfiler:
    """Wall-clock sampler for one target thread.

    Args:
        interval: seconds between samples (wall-clock resolution).
        tracer: the tracer whose current span tags samples (optional).
        backend_probe: zero-arg callable returning the active kernel
            backend name or ``None`` (default: the closure package's
            published active backend).

    The last :data:`RECENT_CAPACITY` trace-tagged samples are retained.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL_SECONDS,
        *,
        tracer: Optional[Tracer] = None,
        backend_probe: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"profiler interval must be positive, got {interval}")
        self.interval = interval
        self._tracer = tracer
        self._backend_probe = backend_probe or _default_backend_probe
        self._frame_counts: TallyCounter = TallyCounter()
        self._span_counts: TallyCounter = TallyCounter()
        self._recent: Deque[Tuple[str, str, str, str]] = deque(maxlen=RECENT_CAPACITY)
        self._samples = 0
        self._errors = 0
        self._started_at: Optional[float] = None
        self._target_ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._sampling = threading.Event()

    # ------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        """Whether the sampler thread is alive (paused still counts)."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def sampling(self) -> bool:
        """Whether samples are currently being taken (running and not paused)."""
        return self.running and self._sampling.is_set()

    @property
    def samples(self) -> int:
        """Samples recorded so far."""
        return self._samples

    def start(self, target_ident: Optional[int] = None) -> None:
        """Start sampling ``target_ident`` (default: the calling thread).

        Idempotent while running — a second start against the same target
        is a no-op, so the CLI and server can both request profiling.
        """
        if self.running:
            return
        self._target_ident = (
            target_ident if target_ident is not None else threading.get_ident()
        )
        self._stop_event.clear()
        self._sampling.set()
        self._started_at = perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread (recorded aggregates are kept)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=2.0)
        self._thread = None

    def pause(self) -> None:
        """Suspend sampling without stopping the thread."""
        self._sampling.clear()

    def resume(self) -> None:
        """Resume sampling after :meth:`pause`."""
        self._sampling.set()

    def reset(self) -> None:
        """Drop every recorded aggregate (the sampler keeps running)."""
        self._frame_counts.clear()
        self._span_counts.clear()
        self._recent.clear()
        self._samples = 0
        self._errors = 0
        self._started_at = perf_counter() if self.running else None

    # -------------------------------------------------------------- sampling

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            if not self._sampling.is_set():
                continue
            try:
                self._sample_once()
            except Exception:
                # A sample must never take the process down; a frame can
                # vanish between the _current_frames snapshot and our walk.
                self._errors += 1

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return
        leaf = _frame_key(frame)
        backend = self._backend_probe() or "-"
        trace_id = ""
        span_name = "-"
        tracer = self._tracer
        if tracer is not None:
            span = tracer.current_span
            if span is not None:
                trace_id = span.trace_id
                span_name = span.name
        self._samples += 1
        self._frame_counts[(leaf, backend)] += 1
        self._span_counts[(span_name, backend)] += 1
        if trace_id:
            self._recent.append((trace_id, span_name, leaf, backend))

    # ------------------------------------------------------------- reporting

    def top_offenders(self, count: int = 10) -> List[Dict[str, object]]:
        """The hottest ``(frame, backend)`` rows, by sample share."""
        total = self._samples or 1
        rows = []
        for (frame, backend), hits in self._frame_counts.most_common(max(count, 0)):
            rows.append(
                {
                    "frame": frame,
                    "backend": backend,
                    "samples": hits,
                    "share": hits / total,
                }
            )
        return rows

    def span_breakdown(self) -> List[Dict[str, object]]:
        """Samples by (span name, backend) — where request time concentrates."""
        total = self._samples or 1
        return [
            {"span": span, "backend": backend, "samples": hits, "share": hits / total}
            for (span, backend), hits in self._span_counts.most_common()
        ]

    def backend_shares(self) -> Dict[str, float]:
        """Fraction of samples landing in each kernel backend."""
        total = self._samples or 1
        shares: Dict[str, float] = {}
        for (_, backend), hits in self._frame_counts.items():
            shares[backend] = shares.get(backend, 0.0) + hits / total
        return shares

    def recent_traced_samples(self, count: int = 20) -> List[Dict[str, object]]:
        """The newest trace-tagged samples (profile row -> trace id linkage)."""
        rows = list(self._recent)[-max(count, 0):]
        return [
            {"trace": trace_id, "span": span, "frame": frame, "backend": backend}
            for trace_id, span, frame, backend in reversed(rows)
        ]

    def report(self, *, top: int = 10) -> Dict[str, object]:
        """The full plain-data profile (the ``profile`` command's payload)."""
        elapsed = (
            perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "running": self.running,
            "sampling": self.sampling,
            "interval_seconds": self.interval,
            "elapsed_seconds": elapsed,
            "samples": self._samples,
            "errors": self._errors,
            "top_offenders": self.top_offenders(top),
            "span_breakdown": self.span_breakdown(),
            "backend_shares": self.backend_shares(),
            "recent_traced_samples": self.recent_traced_samples(),
        }
