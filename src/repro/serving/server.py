"""The preemptive network serving tier: asyncio TCP over ``QueryService``.

:class:`ClosureServer` is the network front-end of the serving layer.  It
speaks a newline-delimited JSON protocol (one request object in, one or more
response objects out, every object on its own line) over plain TCP, and
composes the serving subsystem's parts:

* the shared grammar of :mod:`repro.serving.protocol` and the one verb
  table of :mod:`repro.serving.verbs` — the same commands, validated and
  executed by the same code, as the ``repro serve`` stdin loop;
* :class:`~repro.serving.admission.AdmissionController` — bounded quantum
  slots, a bounded wait queue with deadline enforcement, and per-client
  token buckets, so saturation answers *reject with retry-after* instead of
  collapsing, and one heavy client throttles only itself;
* :class:`~repro.serving.preemption.PreemptableClosureIterator` — ``closure``
  requests (single-source or whole-graph ``closure *``) run in bounded
  quanta over the whole-graph compact mirror, stream result pages as they
  are produced, and after the per-call quantum budget (or the request
  deadline) suspend into a :class:`~repro.serving.preemption.SavedQueryState`
  parked in the :class:`~repro.serving.continuations.ContinuationStore`;
  the client resumes with the returned continuation token — possibly on a
  new connection — and the concatenated pages are identical to an
  uninterrupted run;
* the existing :class:`~repro.service.server.QueryService` — point queries,
  batches, updates and the operator verbs reach it only through
  :func:`~repro.serving.verbs.execute`, so they keep the result cache, the
  batch planner, and placement-aware dispatch through the routed
  :class:`~repro.service.pool.PlacedWorkerPool`.  What this module adds is
  what only a network front has: identity (``hello`` / ``ping`` /
  ``cancel``), streaming, admission, trace-context adoption, the queue and
  saved-state fields of the health and stats documents, and the one
  counter of requests by op and outcome.

Because the server is a single cooperative event loop, the quantum *is* the
fairness mechanism: a whole-graph closure occupies the loop for at most one
quantum before control returns to waiting point queries — exactly the
web-preemption contract (SaGe) that keeps tail latency bounded under a mixed
heavy/light workload.

Everything observable lands in the service's shared metrics registry under
``repro_serving_*`` (request/quanta/page counters, quantum-duration and
quanta-per-call histograms, live queue-depth and active-request gauges,
per-client dispatch counters) and every quantum runs under a tracer span.

Every request also carries a **distributed trace context**: the server
adopts a client ``traceparent`` option (or mints a fresh W3C trace id),
opens a per-segment root span that the admission wait, the service's own
spans, and the pool's worker kernel spans all land under, stamps the
context into suspended ``SavedQueryState``\\ s so a resumed continuation
rejoins its original trace, and echoes the trace id on every response.
Spans never stay open across an ``await`` — the tracer's stack is shared
by every connection handler on the loop — so each synchronous segment
(request open, each quantum) files its own trace record and
``Tracer.assemble`` merges them.

``healthz`` / ``readyz`` report pool liveness, queue saturation, the
catalog version, and the :class:`~repro.observability.slo.SLOMonitor`'s
burn-rate state; ``profile`` exposes the continuous sampling profiler
(enabled with ``ServingConfig.profile_interval``).

With ``idle_assess_seconds`` set, the server also moves auto-refragmentation
assessment off the update hot path: a background task calls
:meth:`QueryService.auto_refragment_now` only while no request is active —
redraws happen in quiet moments, never inside an update.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from ..graph.compact import CompactGraph
from ..observability import SamplingProfiler, SLOMonitor, TraceContext, default_slos
from ..service import QueryService
from .admission import (
    DEFAULT_DEADLINE_SECONDS,
    HEAVY_COST,
    LIGHT_COST,
    AdmissionConfig,
    AdmissionController,
)
from .continuations import ContinuationStore
from .preemption import (
    ALL_SOURCES,
    PreemptableClosureIterator,
    SavedQueryState,
    StaleStateError,
)
from .protocol import NETWORK, ProtocolError, Request, parse_json_request
from .verbs import SERVICE_ERRORS, execute

__all__ = ["ClosureServer", "ServingConfig"]

# The evaluating verbs: they pay admission and run under the request's trace
# context.  Everything else skips admission deliberately — an operator
# inspecting or repairing a saturated server must not queue behind the
# saturation, and probing must not consume admission tokens.
_ADMITTED = frozenset(("query", "batch", "update", "delete"))

_QUANTA_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the network serving tier.

    Attributes:
        host / port: bind address (port 0 picks an ephemeral port).
        quantum_seconds: wall-clock budget of one evaluation quantum.
        page_size: maximum result rows per streamed page.
        quanta_per_call: quanta one ``closure``/``resume`` call may run
            before suspending into a continuation token (the web-preemption
            unit of work).
        idle_assess_seconds: when set, run the auto-refragmentation
            assessment on this background cadence while the server is idle
            (pair with ``QueryService(refragment_cadence="background")``).
        admission: the admission-control knobs.
        profile_interval: when set, run the continuous sampling profiler at
            this interval (seconds) against the serving thread; the
            ``profile`` command reports it.

    The server parks as many suspended states as a default
    :class:`~repro.serving.continuations.ContinuationStore` holds (256), and
    ``healthz`` / ``readyz`` evaluate
    :func:`~repro.observability.slo.default_slos`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    quantum_seconds: float = 0.02
    page_size: int = 256
    quanta_per_call: int = 2
    idle_assess_seconds: Optional[float] = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    profile_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.quantum_seconds <= 0:
            raise ValueError(f"quantum_seconds must be positive, got {self.quantum_seconds}")
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.quanta_per_call <= 0:
            raise ValueError(f"quanta_per_call must be positive, got {self.quanta_per_call}")
        if self.profile_interval is not None and self.profile_interval <= 0:
            raise ValueError(
                f"profile_interval must be positive, got {self.profile_interval}"
            )


class _Connection:
    """Per-connection state: the client identity continuations follow."""

    __slots__ = ("identity", "identified")

    def __init__(self, identity: str) -> None:
        self.identity = identity
        self.identified = False


class ClosureServer:
    """An asyncio TCP front-end serving one :class:`QueryService`.

    Args:
        service: the prepared query service to serve.
        config: the :class:`ServingConfig` knobs.
    """

    def __init__(self, service: QueryService, config: Optional[ServingConfig] = None) -> None:
        self.service = service
        self.config = config or ServingConfig()
        registry = service.registry
        self.admission = AdmissionController(self.config.admission, registry=registry)
        self.continuations = ContinuationStore()
        self.slo_monitor = SLOMonitor(registry, default_slos())
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler(self.config.profile_interval, tracer=service.tracer)
            if self.config.profile_interval is not None
            else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._idle_task: Optional[asyncio.Task] = None
        self._waiters: Deque[Tuple[asyncio.Future, str]] = deque()
        self._connection_tasks: set = set()
        self._connection_seq = 0
        # ------------------------------------------------------- telemetry
        self._requests = registry.counter(
            "repro_serving_requests_total",
            "Network requests served, by op and outcome.",
            labelnames=("op", "outcome"),
        )
        self._connections = registry.counter(
            "repro_serving_connections_total", "TCP connections accepted."
        )
        self._disconnects = registry.counter(
            "repro_serving_disconnects_total",
            "Connections that dropped mid-request or mid-stream.",
        )
        self._active_connections = registry.gauge(
            "repro_serving_active_connections", "Connections currently open."
        )
        self._quanta = registry.counter(
            "repro_serving_quanta_total", "Evaluation quanta executed."
        )
        self._quantum_seconds = registry.histogram(
            "repro_serving_quantum_seconds",
            "Wall-clock duration of each evaluation quantum.",
        )
        self._call_quanta = registry.histogram(
            "repro_serving_call_quanta",
            "Quanta one closure/resume call ran before finishing or suspending.",
            buckets=_QUANTA_BUCKETS,
        )
        self._pages = registry.counter(
            "repro_serving_pages_total", "Result pages streamed to clients."
        )
        self._rows = registry.counter(
            "repro_serving_rows_total", "Closure result rows streamed to clients."
        )
        self._suspends = registry.counter(
            "repro_serving_suspends_total",
            "Closure calls suspended into a continuation token, by reason.",
            labelnames=("reason",),
        )
        self._resumes = registry.counter(
            "repro_serving_resumes_total", "Suspended queries resumed from a token."
        )
        self._stale = registry.counter(
            "repro_serving_stale_continuations_total",
            "Resume attempts rejected because the catalog version moved.",
        )
        self._saved_states = registry.gauge(
            "repro_serving_saved_states", "Suspended query states currently parked."
        )
        self._idle_assessments = registry.counter(
            "repro_serving_idle_assessments_total",
            "Background auto-refragmentation assessments run while idle, by outcome.",
            labelnames=("outcome",),
        )
        # The verbs only a network front has, and what it adds to the shared
        # documents of verbs.execute.
        self._local_verbs = {
            "hello": self._hello,
            "ping": self._ping,
            "cancel": self._cancel,
        }
        self._network_fields = {
            "stats": self._add_serving_stats,
            "healthz": self._add_queue_checks,
            "readyz": self._add_queue_checks,
        }
        # Whole-graph compact mirror, rebuilt lazily per catalog version.
        self._mirror: Optional[CompactGraph] = None
        self._mirror_version: Optional[str] = None

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        if self._server is not None:
            raise RuntimeError("the server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.idle_assess_seconds is not None:
            self._idle_task = asyncio.get_running_loop().create_task(self._idle_loop())
        if self.profiler is not None:
            # The event loop's thread is where every quantum runs.
            self.profiler.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("the server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Run until cancelled (:meth:`start` first when not yet started)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def aclose(self) -> None:
        """Stop accepting and shut the listener down (idempotent)."""
        if self.profiler is not None:
            self.profiler.stop()
        if self._idle_task is not None:
            self._idle_task.cancel()
            try:
                await self._idle_task
            except asyncio.CancelledError:
                pass
            self._idle_task = None
        if self._server is not None:
            self._server.close()
            # Reap live connection handlers: without this, shutting the loop
            # down mid-conversation leaves cancelled handler tasks whose
            # exceptions the streams machinery logs as noise.
            for task in list(self._connection_tasks):
                task.cancel()
            if self._connection_tasks:
                await asyncio.gather(*self._connection_tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ClosureServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------ connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connection_seq += 1
        peer = writer.get_extra_info("peername")
        identity = (
            f"{peer[0]}:{peer[1]}"
            if isinstance(peer, tuple) and len(peer) >= 2
            else f"conn-{self._connection_seq}"
        )
        connection = _Connection(identity)
        self._connection_tasks.add(asyncio.current_task())
        self._connections.inc()
        self._active_connections.set(self._active_connections.value() + 1)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    request = parse_json_request(json.loads(text), surface=NETWORK)
                except json.JSONDecodeError as error:
                    await self._send(writer, {"ok": False, "error": f"bad JSON: {error}"})
                    continue
                except ProtocolError as error:
                    await self._send(writer, {"ok": False, "error": str(error)})
                    continue
                if request.op in ("closure", "resume"):
                    outcome, response = await self._serve_closure(
                        request, connection, writer
                    )
                else:
                    outcome, response = await self._serve_simple(request, connection)
                # The one place requests are counted, as the reply (for a
                # closure: its terminal line) goes out.
                self._requests.inc(op=request.op, outcome=outcome)
                response.setdefault("id", request.option("id"))
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self._disconnects.inc()
        except asyncio.CancelledError:
            # Server shutdown while this connection was live: swallow the
            # cancellation so the streams machinery's completion callback
            # finds a cleanly-finished task, and fall through to cleanup.
            pass
        finally:
            if not connection.identified:
                # An anonymous client's parked suspensions die with its
                # connection — saved state never outlives a client the
                # server cannot recognise again.
                self.continuations.drop_client(connection.identity)
                self._saved_states.set(float(len(self.continuations)))
            self._active_connections.set(
                max(0.0, self._active_connections.value() - 1)
            )
            self._connection_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: Dict[str, object]) -> None:
        writer.write(json.dumps(payload, default=str).encode("utf-8") + b"\n")
        await writer.drain()

    # -------------------------------------------------------------- admission

    async def _acquire_slot(
        self, connection: _Connection, *, cost: float, deadline: float
    ) -> Optional[Dict[str, object]]:
        """Take an evaluation slot; returns a rejection response, or ``None``.

        A queued request waits on a future the next :meth:`_release_slot`
        resolves; waiting past the request deadline rejects with reason
        ``deadline`` (the queue spot is freed either way).
        """
        decision = self.admission.admit(connection.identity, cost=cost)
        if decision.status == "run":
            return None
        if decision.status == "reject":
            return {
                "ok": False,
                "rejected": True,
                "reason": decision.reason,
                "retry_after": round(decision.retry_after, 4),
                "error": f"admission rejected ({decision.reason}); "
                f"retry after {decision.retry_after:.3f}s",
            }
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append((future, connection.identity))
        try:
            await asyncio.wait_for(future, timeout=max(0.0, deadline - time.monotonic()))
        except asyncio.TimeoutError:
            self.admission.abandon_queued(connection.identity, reason="deadline")
            return {
                "ok": False,
                "rejected": True,
                "reason": "deadline",
                "retry_after": self.config.admission.retry_after,
                "error": "deadline expired while waiting for an evaluation slot",
            }
        return None

    def _release_slot(self, connection: _Connection) -> None:
        self.admission.finish(connection.identity)
        while self._waiters and self.admission.free_slots > 0:
            future, identity = self._waiters.popleft()
            if future.done():
                continue
            self.admission.start_queued(identity)
            future.set_result(None)
            break

    def _deadline_of(self, request: Request) -> float:
        timeout = request.option("timeout")
        seconds = (
            float(timeout)
            if isinstance(timeout, (int, float)) and float(timeout) > 0
            else DEFAULT_DEADLINE_SECONDS
        )
        return time.monotonic() + seconds

    def _context_of(self, request: Request) -> TraceContext:
        """The request's trace context: adopted from ``traceparent``, or fresh.

        A malformed header degrades to a fresh trace — propagation is
        best-effort, never a reason to fail the request.
        """
        context = TraceContext.from_traceparent(request.option("traceparent"))
        return context if context is not None else self.service.tracer.new_context()

    # ---------------------------------------------------------- simple verbs

    async def _serve_simple(
        self, request: Request, connection: _Connection
    ) -> Tuple[str, Dict[str, object]]:
        """Serve one single-reply verb; returns ``(outcome, response)``."""
        if request.op not in _ADMITTED:
            return self._run(request, connection)
        context = self._context_of(request)
        deadline = self._deadline_of(request)
        wait_started = time.monotonic()
        rejection = await self._acquire_slot(
            connection, cost=LIGHT_COST, deadline=deadline
        )
        if rejection is not None:
            rejection["trace"] = context.trace_id
            return "rejected", rejection
        waited = time.monotonic() - wait_started
        tracer = self.service.tracer
        try:
            # The root span closes before the response is awaited out:
            # spans must never straddle an await (the tracer stack is
            # shared by every handler on the loop).
            with tracer.request_span(
                "request", context=context, op=request.op, client=connection.identity
            ):
                tracer.attach_span("admission_wait", waited)
                outcome, response = self._run(request, connection)
        finally:
            self._release_slot(connection)
        response["trace"] = context.trace_id
        return outcome, response

    def _run(
        self, request: Request, connection: _Connection
    ) -> Tuple[str, Dict[str, object]]:
        """One verb, synchronously: a failing one is an error reply, never an
        exception out of the connection handler."""
        try:
            local = self._local_verbs.get(request.op)
            if local is not None:
                return "ok", local(request, connection)
            response = execute(
                self.service, request, monitor=self.slo_monitor, profiler=self.profiler
            )
            extend = self._network_fields.get(request.op)
            if extend is not None:
                extend(request, response)
            return "ok", response
        except SERVICE_ERRORS as error:
            return "error", {"ok": False, "error": str(error)}

    def _hello(self, request: Request, connection: _Connection) -> Dict[str, object]:
        previous = connection.identity
        connection.identity = request.text(0)
        connection.identified = True
        # States parked before the hello follow the client to its durable
        # identity, so an early suspension is not orphaned.
        if previous != connection.identity:
            self.continuations.adopt(previous, connection.identity)
        return {"ok": True, "client": connection.identity}

    def _ping(self, request: Request, connection: _Connection) -> Dict[str, object]:
        return {"ok": True, "pong": True}

    def _cancel(self, request: Request, connection: _Connection) -> Dict[str, object]:
        dropped = self.continuations.discard(request.text(0), client=connection.identity)
        self._saved_states.set(float(len(self.continuations)))
        return {"ok": True, "cancelled": dropped}

    def _add_serving_stats(self, request: Request, document: Dict[str, object]) -> None:
        if "stats" in document:
            document["serving"] = {
                "active_requests": self.admission.active,
                "queue_depth": self.admission.queued,
                "saved_states": len(self.continuations),
                "clients": self.admission.client_stats(),
            }

    def _add_queue_checks(self, request: Request, document: Dict[str, object]) -> None:
        """Readiness over the network additionally requires a non-saturated
        admission queue (stdin serves one command at a time: no queue)."""
        capacity = self.config.admission.max_queue
        document["checks"].update(
            queue_depth=self.admission.queued,
            queue_capacity=capacity,
            active_requests=self.admission.active,
            saved_states=len(self.continuations),
        )
        if request.op == "readyz" and self.admission.queued >= capacity:
            document.update(
                ok=False,
                status="not_ready",
                reasons=sorted(document["reasons"] + ["queue_saturated"]),
            )

    # ------------------------------------------------------- closure streaming

    def _mirror_for(self, version: str) -> CompactGraph:
        """The whole-graph compact mirror, rebuilt only when the version moves."""
        if self._mirror is None or self._mirror_version != version:
            self._mirror = CompactGraph.from_digraph(self.service.database.graph)
            self._mirror_version = version
        return self._mirror

    async def _serve_closure(
        self, request: Request, connection: _Connection, writer: asyncio.StreamWriter
    ) -> Tuple[str, Dict[str, object]]:
        """Stream one closure/resume call's pages; returns ``(outcome,
        terminal line)`` for the connection loop to count and send."""
        deadline = self._deadline_of(request)
        wait_started = time.monotonic()
        rejection = await self._acquire_slot(
            connection, cost=HEAVY_COST, deadline=deadline
        )
        if rejection is not None:
            return "rejected", rejection
        waited = time.monotonic() - wait_started
        try:
            version = self.service.catalog_version
            mirror = self._mirror_for(version)
            try:
                iterator, context = self._open_iterator(
                    request, connection, mirror, version
                )
            except StaleStateError as error:
                self._stale.inc()
                return "stale", {"ok": False, "stale": True, "error": str(error)}
            except SERVICE_ERRORS as error:
                return "error", {"ok": False, "error": str(error)}
            # One root segment per call: admission wait and call metadata
            # live here, every quantum of this call parents under it, and a
            # later resume's segment parents under it too (via the context
            # stamped into the saved state).  Closed before the first send —
            # spans never straddle an await.
            tracer = self.service.tracer
            quantum_context = context
            with tracer.request_span(
                "request",
                context=context,
                op=request.op,
                client=connection.identity,
                kind=iterator.kind,
            ):
                tracer.attach_span("admission_wait", waited)
                inner = tracer.current_context()
                if inner is not None:
                    quantum_context = inner
            return await self._stream(
                iterator, request, connection, writer, deadline, quantum_context
            )
        finally:
            self._release_slot(connection)

    def _open_iterator(
        self,
        request: Request,
        connection: _Connection,
        mirror: CompactGraph,
        version: str,
    ) -> Tuple[PreemptableClosureIterator, TraceContext]:
        if request.op == "resume":
            state = self.continuations.take(request.text(0), client=connection.identity)
            self._saved_states.set(float(len(self.continuations)))
            iterator = PreemptableClosureIterator.from_state(
                mirror, state, catalog_version=version
            )
            self._resumes.inc()
            # The pickled context wins over anything on the resume request:
            # the continuation rejoins the trace it suspended under.
            if state.trace_context is not None:
                trace_id, parent_span_id = state.trace_context
                return iterator, TraceContext(trace_id, parent_span_id)
            return iterator, self._context_of(request)
        source = request.args[0]
        sources: object = ALL_SOURCES if source == ALL_SOURCES else request.node(0)
        iterator = PreemptableClosureIterator(
            mirror,
            sources,
            kind=self.service.semiring.name,
            catalog_version=version,
        )
        return iterator, self._context_of(request)

    async def _stream(
        self,
        iterator: PreemptableClosureIterator,
        request: Request,
        connection: _Connection,
        writer: asyncio.StreamWriter,
        deadline: float,
        context: TraceContext,
    ) -> Tuple[str, Dict[str, object]]:
        config = self.config
        tracer = self.service.tracer
        request_id = request.option("id")
        quanta_run = 0
        seq = 0
        suspend_reason: Optional[str] = None
        while not iterator.exhausted:
            if quanta_run >= config.quanta_per_call:
                suspend_reason = "quanta_budget"
                break
            if time.monotonic() >= deadline:
                suspend_reason = "deadline"
                break
            # Each quantum is its own root segment under the call's
            # context — the span (and any kernel spans the evaluation
            # attaches) carries the client's trace id and closes before
            # the pages are awaited out.
            with tracer.request_span(
                "serving_quantum",
                context=context,
                op=request.op,
                client=connection.identity,
                kind=iterator.kind,
            ) as span:
                report = iterator.run_quantum(
                    config.quantum_seconds, max_rows=config.page_size
                )
                span.set("rows", len(report.rows))
                span.set("exhausted", report.exhausted)
            quanta_run += 1
            self._quanta.inc()
            self._quantum_seconds.observe(report.seconds)
            for start in range(0, len(report.rows), config.page_size):
                page = report.rows[start : start + config.page_size]
                seq += 1
                self._pages.inc()
                self._rows.inc(len(page))
                await self._send(
                    writer,
                    {
                        "id": request_id,
                        "ok": True,
                        "seq": seq,
                        "page": [list(row) for row in page],
                        "done": False,
                    },
                )
            if not report.exhausted:
                # Yield the loop between quanta: this is the preemption
                # point where queued point queries get served.
                await asyncio.sleep(0)
        self._call_quanta.observe(float(max(1, quanta_run)))
        if iterator.exhausted:
            return "ok", {
                "id": request_id,
                "ok": True,
                "done": True,
                "produced": iterator.produced,
                "pages": seq,
                "trace": context.trace_id,
            }
        state = iterator.save()
        # A resumed continuation rejoins this trace: the context rides the
        # (picklable) saved state, parenting the resume segment under this
        # call's root span.
        state.trace_context = context.as_tuple()
        token = self.continuations.put(state, client=connection.identity)
        self._saved_states.set(float(len(self.continuations)))
        self._suspends.inc(reason=suspend_reason or "quanta_budget")
        return "suspended", {
            "id": request_id,
            "ok": True,
            "done": False,
            "suspended": True,
            "reason": suspend_reason,
            "continuation": token,
            "produced": iterator.produced,
            "pages": seq,
            "trace": context.trace_id,
        }

    # ------------------------------------------------------------- background

    async def _idle_loop(self) -> None:
        """Run auto-refragmentation assessment in quiet moments only."""
        assert self.config.idle_assess_seconds is not None
        while True:
            await asyncio.sleep(self.config.idle_assess_seconds)
            if self.admission.active > 0 or self._waiters:
                self._idle_assessments.inc(outcome="busy")
                continue
            outcome = self.service.auto_refragment_now()
            self._idle_assessments.inc(outcome=outcome)
