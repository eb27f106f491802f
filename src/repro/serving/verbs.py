"""The serving verbs, implemented once for every front-end.

:mod:`repro.serving.protocol` says what a command looks like; this module
says what it *does*.  Each verb that reaches :class:`QueryService` is one
function returning a plain-data document, and :func:`execute` is the single
dispatcher both surfaces call: :class:`~repro.serving.server.ClosureServer`
sends the document as a JSON line (adding only its own queue fields), the
``repro serve`` console renders it as text.  Neither front-end calls the
service itself, so a verb cannot behave differently per surface — which also
keeps the one ``QueryLog`` both surfaces feed a faithful workload record.

A failing verb raises; :data:`SERVICE_ERRORS` is everything a bad request
may legitimately raise, and both fronts catch exactly that set (anything
else is a bug and must surface).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..exceptions import ReproError
from ..observability import SamplingProfiler, SLOMonitor
from ..refragmentation import RefragmentationAdvisor
from ..service import QueryService, ServiceAnswer, WorkerPoolError
from .protocol import ProtocolError, Request

__all__ = ["HANDLERS", "SERVICE_ERRORS", "execute"]

SERVICE_ERRORS = (ReproError, ValueError, OSError, WorkerPoolError)

Document = Dict[str, object]


def _answer(answer: ServiceAnswer) -> Document:
    return {
        "source": answer.source,
        "target": answer.target,
        "value": answer.value,
        "chain": list(answer.chain) if answer.chain is not None else None,
        "cached": answer.cached,
        "error": answer.error,
    }


def _query(service: QueryService, request: Request, **_: object) -> Document:
    return {"ok": True, "answer": _answer(service.query(request.node(0), request.node(1)))}


def _batch(service: QueryService, request: Request, **_: object) -> Document:
    answers = service.query_batch(request.pairs())
    return {"ok": True, "answers": [_answer(answer) for answer in answers]}


def _update(service: QueryService, request: Request, **_: object) -> Document:
    owner = service.update_edge(request.node(0), request.node(1), request.number(2, 1.0))
    return {"ok": True, "fragment": owner, "version": service.catalog_version}


def _delete(service: QueryService, request: Request, **_: object) -> Document:
    owner = service.update_edge(request.node(0), request.node(1), delete=True)
    return {"ok": True, "fragment": owner, "version": service.catalog_version}


def _stats(
    service: QueryService, request: Request, *, monitor: SLOMonitor, **_: object
) -> Document:
    """``prometheus``: the exposition text; ``json``: everything
    ``QueryService.metrics`` exports; anything else: the flat counters."""
    fmt = request.text(0, "text").lower()
    if fmt == "prometheus":
        return {"ok": True, "prometheus": service.metrics("prometheus")}
    if fmt == "json":
        return {"ok": True, **service.metrics("json"), "slo": monitor.as_dict()}
    return {
        "ok": True,
        "stats": service.stats.as_dict(),
        "latency_quantiles": {
            outcome: service.stats.latency_quantiles(outcome=outcome)
            for outcome in ("evaluated", "cached")
        },
        "slo": monitor.as_dict(),
    }


def _slowlog(service: QueryService, request: Request, **_: object) -> Document:
    entries = [
        {
            "source": entry.source,
            "target": entry.target,
            "latency": entry.latency,
            "fragments": list(entry.fragments),
            "cached": entry.cached,
            # The link into the tracing layer: the tracer's retained traces
            # hold this query's full span tree under this id.
            "trace": entry.trace_id,
            "error": entry.error,
        }
        for entry in service.query_log.slowest(request.integer(0, 10) or 10)
    ]
    return {"ok": True, "slowlog": entries}


def _trace(service: QueryService, request: Request, **_: object) -> Document:
    if request.text(0).lower() == "on":
        service.tracer.enable()
    else:
        service.tracer.disable()
    return {"ok": True, "tracing": service.tracer.enabled}


def _health(
    service: QueryService, request: Request, *, monitor: SLOMonitor, **_: object
) -> Document:
    """The ``healthz`` (liveness) / ``readyz`` (traffic-worthiness) document.

    Liveness fails only when the pool lost workers.  Readiness additionally
    requires no page-severity SLO burn — the signal a load balancer should
    drain on before the failure becomes an outage.  ``reasons`` is sorted.
    """
    pool = service.pool_health()
    slo = monitor.as_dict()
    healthy = bool(pool.get("healthy", True))
    checks = {"pool": pool, "catalog_version": service.catalog_version, "slo": slo}
    if request.op == "healthz":
        return {"ok": healthy, "status": "ok" if healthy else "degraded", "checks": checks}
    reasons = []
    if not healthy:
        reasons.append("pool_degraded")
    if slo["severity"] == "page":
        reasons.append("slo_burn")
    return {
        "ok": not reasons,
        "status": "not_ready" if reasons else "ready",
        "reasons": reasons,
        "checks": checks,
    }


def _profile(
    service: QueryService,
    request: Request,
    *,
    profiler: Optional[SamplingProfiler],
    **_: object,
) -> Document:
    top = request.integer(0, 10) or 10
    if profiler is None:
        return {
            "ok": False,
            "error": "profiling disabled (start with --profile-interval / profile_interval)",
        }
    return {"ok": True, "profile": profiler.report(top=top)}


def _placement(service: QueryService, request: Request, **_: object) -> Document:
    plan = service.placement_plan
    mode = service.pool_health()["mode"]
    if plan is None:
        return {"ok": True, "mode": mode, "placement": None}
    workers = {}
    for worker in range(plan.worker_count):
        owned = plan.owned_by(worker)
        replicas = sorted(set(plan.fragments_on(worker)) - set(owned))
        workers[str(worker)] = {"owns": owned, "replicas": replicas}
    return {"ok": True, "mode": mode, "placement": {"policy": plan.policy, "workers": workers}}


def _migrate(service: QueryService, request: Request, **_: object) -> Document:
    fragment, worker = request.integer(0), request.integer(1)
    moved = service.migrate(fragment, worker)
    return {"ok": True, "fragment": fragment, "worker": worker, "moved": moved}


def _rebalance(service: QueryService, request: Request, **_: object) -> Document:
    return {
        "ok": True,
        "migrations": [
            {
                "fragment": migration.fragment_id,
                "from_worker": migration.from_worker,
                "to_worker": migration.to_worker,
                "reason": migration.reason,
            }
            for migration in service.rebalance()
        ],
    }


def _refragment(service: QueryService, request: Request, **_: object) -> Document:
    # ``refragment`` returns None both for a full rebuild and for "the
    # advisor found nothing worthwhile"; the redraw counter tells them apart.
    redraws_before = service.stats.refragments.value()
    result = service.refragment(request.text(0))
    document: Document = {
        "ok": True,
        "refragmented": result is not None or service.stats.refragments.value() > redraws_before,
        "scoped": result is not None,
        "version": service.catalog_version,
    }
    if result is not None:
        document.update(
            changed=len(result.changed),
            unchanged=len(result.unchanged),
            border_nodes_recovered=result.border_nodes_recovered(),
        )
    return document


def _advise(service: QueryService, request: Request, **_: object) -> Document:
    advisor = service.refragment_advisor or RefragmentationAdvisor()
    fragmentation = service.database.fragmentation()
    assessment = advisor.assess(
        fragmentation,
        version_vector=service.version_vector,
        delta_log=service.database.delta_log,
        query_log=service.query_log,
    )
    return {
        "ok": True,
        "signals": assessment.signals.as_dict(),
        "update_skew": assessment.update_skew,
        "rationale": list(advisor.recommend(fragmentation).rationale),
    }


def _snapshot(service: QueryService, request: Request, **_: object) -> Document:
    directory = request.text(0)
    manifest = service.snapshot(directory)
    return {"ok": True, "directory": directory, "version": manifest.version}


HANDLERS: Dict[str, Callable[..., Document]] = {
    "query": _query,
    "batch": _batch,
    "update": _update,
    "delete": _delete,
    "stats": _stats,
    "slowlog": _slowlog,
    "trace": _trace,
    "healthz": _health,
    "readyz": _health,
    "profile": _profile,
    "placement": _placement,
    "migrate": _migrate,
    "rebalance": _rebalance,
    "refragment": _refragment,
    "advise": _advise,
    "snapshot": _snapshot,
}


def execute(
    service: QueryService,
    request: Request,
    *,
    monitor: SLOMonitor,
    profiler: Optional[SamplingProfiler],
) -> Document:
    """Run one validated request against ``service``; return its document.

    ``monitor`` must live as long as the session: a throwaway one would
    baseline at the current counters and report zero burn forever.

    Raises:
        ProtocolError: an argument of the wrong type, or a verb that is not
            a service verb (``quit``, ``hello``, ``closure``, ...).
        SERVICE_ERRORS: whatever the service raises for the request.
    """
    handler = HANDLERS.get(request.op)
    if handler is None:
        raise ProtocolError(f"unrecognised command {request.op!r}")
    return handler(service, request, monitor=monitor, profiler=profiler)
