"""Request tracing: one trace id per service call, spans per pipeline stage.

Every ``QueryService`` entry point (``query`` / ``query_batch`` /
``update_edge`` / ``refragment``) opens a root span; the stages it passes
through — cache lookup, batch planning, owner routing, per-worker evaluation,
kernel execution — open child spans under it, so one answer's wall-clock
decomposes into exactly the layers the ROADMAP's cost models need.

Two span flavours exist:

* **in-process spans** (:meth:`Tracer.span`): a context manager timing the
  enclosed block with ``perf_counter``;
* **remote spans** (:meth:`Tracer.remote_span`): a worker process timed the
  work *in-process* and shipped the duration back over its private result
  channel; the coordinator attaches it under the current (or an explicit)
  parent.  Remote spans are how routed evaluation is attributed per owner
  worker and per fragment without any cross-process clock agreement — only
  durations cross the boundary, never timestamps.

The tracer keeps a bounded ring of finished traces (:meth:`Tracer.recent`)
and can be toggled live (``trace on|off`` in the serve loop); when disabled,
``span`` yields a shared no-op span and the hot path pays one attribute
check.  The tracer is deliberately single-threaded — the service answers one
call at a time — so the active-span stack needs no context variables.

Distributed propagation builds on one rule the asyncio serving tier must
obey: a span never stays open across an ``await`` (interleaved connection
handlers share this one stack).  Instead each synchronous segment of a
request — opening the iterator, every evaluation quantum, a resumed
continuation — opens its own *root* span that adopts the request's
:class:`TraceContext` via :meth:`Tracer.request_span`, so the segments file
separate :class:`Trace` records sharing one trace id.  The context travels
as a W3C ``traceparent`` string on the wire, as a plain tuple inside pickled
``SavedQueryState``\\ s, and as a bare trace id over the pool's task queues;
:meth:`Tracer.assemble` merges the filed segments back into the one logical
trace.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple, Union

_HEX_DIGITS = frozenset("0123456789abcdef")

#: Span ids are ints locally; a parent adopted from the wire is a 16-hex
#: string — the two never collide, which is what lets :meth:`Tracer.assemble`
#: tell a local edge from a remote one.
SpanId = Union[int, str]


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of one request's trace.

    ``trace_id`` names the trace every segment of the request joins;
    ``parent_span_id`` is the span the next segment's root should hang
    under — ``None`` for a brand-new request, a local span id when hopping
    between segments in one process, or a 16-hex string when adopted from a
    client's ``traceparent`` header.
    """

    trace_id: str
    parent_span_id: Optional[SpanId] = None

    @classmethod
    def from_traceparent(cls, header: object) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` value; tolerant — malformed input is ``None``.

        A bad header from a client must never fail the request, only drop
        the propagation (the server then starts a fresh trace).
        """
        if not isinstance(header, str):
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id = parts[0], parts[1], parts[2]
        if len(version) != 2 or not set(version) <= _HEX_DIGITS or version == "ff":
            return None
        if len(trace_id) != 32 or not set(trace_id) <= _HEX_DIGITS:
            return None
        if len(span_id) != 16 or not set(span_id) <= _HEX_DIGITS:
            return None
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id=trace_id, parent_span_id=span_id)

    def as_tuple(self) -> Tuple[str, Optional[SpanId]]:
        """Plain-data form, safe to pickle into a ``SavedQueryState``."""
        return (self.trace_id, self.parent_span_id)


class Span:
    """One timed stage of a traced service call.

    A plain slotted class, not a dataclass, and its own context manager —
    the hot path opens six spans per query, so each span is exactly one
    allocation and the ``contextlib`` generator machinery (several
    microseconds per use) is avoided entirely.

    Attributes:
        name: the stage ("query", "cache_lookup", "kernel", ...).
        trace_id: the trace every span of one call shares.
        span_id: this span's id, unique within the trace.
        parent_id: the enclosing span's id (``None`` for the root).
        start: coordinator ``perf_counter`` at entry (for remote spans, the
            attach time minus the shipped duration — ordering only, the
            duration is the measurement).
        duration: seconds spent in the stage.
        attributes: free-form labels (fragment id, owner worker, task count).
        remote: ``True`` when the duration was measured inside a worker
            process and shipped back, rather than timed here.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attributes",
        "remote",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: int,
        parent_id: Optional[SpanId],
        start: float,
        duration: float = 0.0,
        attributes: Optional[Dict[str, object]] = None,
        remote: bool = False,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.attributes = {} if attributes is None else attributes
        self.remote = remote
        self._tracer: Optional["Tracer"] = None

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, trace_id={self.trace_id!r}, "
            f"span_id={self.span_id}, parent_id={self.parent_id}, "
            f"duration={self.duration}, remote={self.remote})"
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.duration = perf_counter() - self.start
        tracer = self._tracer
        if tracer is not None:
            tracer._stack.pop()
            if not tracer._stack:
                tracer._finish(self)
        return False

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def as_dict(self) -> Dict[str, object]:
        """Return the span as plain data (reporting / assertions)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "remote": self.remote,
        }


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """The shared no-op context manager for a disabled tracer's hot path."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


@dataclass(slots=True)
class Trace:
    """One finished trace: the root span plus every descendant, in open order.

    Slotted and unfrozen: one is built per service call on the hot path, and
    a frozen dataclass pays ``object.__setattr__`` per field at construction.
    """

    trace_id: str
    root_name: str
    duration: float
    spans: List[Span]

    def span_names(self) -> List[str]:
        """Return every span name, root first."""
        return [span.name for span in self.spans]

    def as_dict(self) -> Dict[str, object]:
        """Return the trace as plain data."""
        return {
            "trace_id": self.trace_id,
            "root_name": self.root_name,
            "duration": self.duration,
            "spans": [span.as_dict() for span in self.spans],
        }


# Finished traces a Tracer retains.
TRACE_CAPACITY = 256


class Tracer:
    """Produces and retains traces for the query service's calls.

    Args:
        enabled: start with tracing on (the serve loop toggles it live).

    The last :data:`TRACE_CAPACITY` finished traces are retained (oldest
    evicted first).

    The first :meth:`span` opened while no span is active becomes a trace's
    root; closing it files the whole trace into the bounded ring.  Spans
    opened while a root is active nest under the innermost open span.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self._enabled = enabled
        self._traces: Deque[Trace] = deque(maxlen=TRACE_CAPACITY)
        self._stack: List[Span] = []
        self._live: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        # Generated ids are valid 32-hex W3C trace ids: the pid makes them
        # unique across the pool's processes, the counter within one.
        self._prefix = f"{os.getpid() & 0xFFFFFFFF:08x}"
        self.traces_finished = 0
        self.traces_dropped = 0

    # ------------------------------------------------------------- toggling

    @property
    def enabled(self) -> bool:
        """Whether spans are currently being produced."""
        return self._enabled

    def enable(self) -> None:
        """Turn span production on (from the next root span)."""
        self._enabled = True

    def disable(self) -> None:
        """Turn span production off; an in-flight trace still completes."""
        self._enabled = False

    # -------------------------------------------------------------- spanning

    @property
    def current_trace_id(self) -> Optional[str]:
        """The active trace's id, or ``None`` outside any span."""
        return self._stack[-1].trace_id if self._stack else None

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: object) -> object:
        """Open a timed span named ``name`` under the current span (or as root).

        A context manager yielding the :class:`Span` (or a shared no-op when
        tracing is off — callers may ``set`` attributes on either without
        checking).
        """
        return self._open(name, None, None, attributes)

    def new_trace_id(self) -> str:
        """Mint a fresh 32-hex trace id without opening a span."""
        return f"{self._prefix}{next(self._trace_ids):024x}"

    def new_context(self) -> TraceContext:
        """Mint a fresh request context (no parent — the next root is root)."""
        return TraceContext(trace_id=self.new_trace_id())

    def current_context(self) -> Optional[TraceContext]:
        """A context parenting under the innermost open span, or ``None``."""
        if not self._stack:
            return None
        current = self._stack[-1]
        return TraceContext(trace_id=current.trace_id, parent_span_id=current.span_id)

    def request_span(
        self, name: str, *, context: Optional[TraceContext] = None, **attributes: object
    ) -> object:
        """Open a span that adopts ``context`` when it becomes a root.

        The serving tier's entry point: each synchronous segment of a
        network request opens one of these, so the segment's spans carry the
        request's trace id (and hang under its ``parent_span_id``) instead
        of minting a fresh trace.  Nested calls (a span already open) ignore
        the context and behave exactly like :meth:`span`.
        """
        if context is None or self._stack:
            return self._open(name, None, None, attributes)
        return self._open(name, context.trace_id, context.parent_span_id, attributes)

    def _open(
        self,
        name: str,
        trace_id: Optional[str],
        parent_id: Optional[SpanId],
        attributes: Dict[str, object],
    ) -> object:
        stack = self._stack
        if not stack:
            if not self._enabled:
                return _NULL_SPAN_CONTEXT
            if trace_id is None:
                trace_id = self.new_trace_id()
            self._live = []
        else:
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name,
            trace_id,
            next(self._span_ids),
            parent_id,
            perf_counter(),
            attributes=attributes,
        )
        span._tracer = self
        stack.append(span)
        self._live.append(span)
        return span

    def attach_span(
        self,
        name: str,
        duration: float,
        *,
        parent: Optional[Span] = None,
        remote: bool = False,
        **attributes: object,
    ) -> Optional[Span]:
        """Attach an already-timed span under ``parent`` (default: current span).

        The duration was measured elsewhere — by a kernel's own in-process
        timer, or (``remote=True``) inside a worker process and shipped back
        over its result channel; only the duration is trusted, the start is
        back-dated locally for ordering.  Returns the attached span, or
        ``None`` when no trace is active (tracing off, or called outside any
        service call).
        """
        anchor = parent if parent is not None else (self._stack[-1] if self._stack else None)
        if anchor is None:
            return None
        span = Span(
            name,
            anchor.trace_id,
            next(self._span_ids),
            anchor.span_id,
            perf_counter() - duration,
            duration=duration,
            attributes=attributes,
            remote=remote,
        )
        self._live.append(span)
        return span

    def remote_span(
        self,
        name: str,
        duration: float,
        *,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Optional[Span]:
        """Attach a worker-timed span (``attach_span`` with ``remote=True``)."""
        return self.attach_span(
            name, duration, parent=parent, remote=True, **attributes
        )

    def _finish(self, root: Span) -> None:
        if len(self._traces) == self._traces.maxlen:
            self.traces_dropped += 1
        # The live list is handed to the Trace, not copied: the next root
        # span starts a fresh one.
        self._traces.append(
            Trace(
                trace_id=root.trace_id,
                root_name=root.name,
                duration=root.duration,
                spans=self._live,
            )
        )
        self._live = []
        self.traces_finished += 1

    # ------------------------------------------------------------- retrieval

    def recent(self, count: int = 10) -> List[Trace]:
        """Return the most recent finished traces, newest first."""
        if count <= 0:
            return []
        return list(itertools.islice(reversed(self._traces), count))

    def spans_of(self, trace_id: str) -> List[Span]:
        """Every retained span carrying ``trace_id``, oldest segment first.

        A propagated request files one :class:`Trace` record per
        synchronous segment (open, each quantum, resume); this gathers them
        back into one flat list.
        """
        spans: List[Span] = []
        for trace in self._traces:
            if trace.trace_id == trace_id:
                spans.extend(trace.spans)
        return spans

    def assemble(self, trace_id: str) -> Optional[Trace]:
        """Merge every retained segment of ``trace_id`` into one trace.

        Segment roots whose parent span lives in another segment become
        interior nodes of the merged tree; a parent id that matches no
        retained span (``None``, or a client's 16-hex wire span) marks a
        top-level span.  The merged duration sums the top-level spans'
        durations — time the request actually ran, suspension gaps
        excluded.  Returns ``None`` when nothing with ``trace_id`` is
        retained.
        """
        spans = self.spans_of(trace_id)
        if not spans:
            return None
        local_ids = {span.span_id for span in spans}
        top_level = [
            span
            for span in spans
            if span.parent_id is None or span.parent_id not in local_ids
        ]
        anchors = top_level or spans
        return Trace(
            trace_id=trace_id,
            root_name=anchors[0].name,
            duration=sum(span.duration for span in anchors),
            spans=spans,
        )

    def clear(self) -> int:
        """Drop every retained trace; returns how many were dropped."""
        dropped = len(self._traces)
        self._traces.clear()
        return dropped
