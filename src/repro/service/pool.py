"""Placed worker pool: fragment sites pinned in long-lived owner processes.

Spawning a fresh ``multiprocessing.Pool`` for every query would re-ship every
fragment site each time; for a serving workload that start-up cost dwarfs the
local evaluation the paper parallelises.  :class:`PlacedWorkerPool` keeps the
workers alive for the lifetime of the service: each worker receives its
fragment sites exactly once at start-up — in their *compact* form
(:class:`~repro.disconnection.catalog.CompactFragmentSite`: augmented CSR
arrays plus the interned node list, which pickle as flat buffers instead of
dict-of-dicts adjacency) — and per-query messages carry only the
``(fragment, entry, exit)`` specs and the per-fragment path relations coming
back, which is what the paper's final joins consume.  Workers evaluate
directly with the compact kernels; no ``DiGraph`` is ever rebuilt inside a
worker.

The pool is the paper's shared-nothing placement: a
:class:`~repro.placement.plan.PlacementPlan` names one *owner* worker per
fragment (plus optional replicas — full replication is one allocation a plan
can express, not a second runtime), each worker pins **only** the fragments
placed on it, every worker has its own routed task queue, re-pins go to the
dirty fragment's owner only, and :meth:`PlacedWorkerPool.migrate` moves a
fragment's compact state between live workers without a restart.  Per-worker
resident memory is ``O(fragments / workers)``.

Only the two standard semirings are supported because semiring callables do
not pickle; the in-process evaluation of the service handles arbitrary
semirings.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..closure import (
    ClosureStatistics,
    Semiring,
    merge_selection_metrics,
    reachability_semiring,
    shortest_path_semiring,
)
from ..disconnection import LocalQueryEvaluator, LocalQueryResult
from ..disconnection.catalog import CompactFragmentSite, DistributedCatalog
from ..disconnection.local_query import border_rows_held
from ..disconnection.planner import LocalQuerySpec
from ..graph.compact import CompactDelta, merge_overlay_metrics
from ..observability import MetricsRegistry
from ..placement import PlacementError, PlacementPlan
from .stats import border_row_lookups_counter

Node = Hashable
TaskKey = Tuple[int, FrozenSet[Node], FrozenSet[Node]]

PICKLABLE_SEMIRINGS = ("shortest_path", "reachability")

# Metric names for the routed workers' in-process registries; the coordinator
# merges the drained payloads under the same names.
WORKER_KERNEL_HISTOGRAM = "repro_worker_kernel_seconds"
WORKER_TUPLES_COUNTER = "repro_worker_kernel_tuples_total"

# Seconds to wait for a routed worker's reply before declaring the request
# failed (dead workers are detected and respawned much sooner).
ROUTED_REPLY_TIMEOUT_SECONDS = 60.0
_POLL_SECONDS = 0.2

@dataclass(frozen=True)
class PinUpdate:
    """One fragment's re-pin message after an incremental update.

    The scoped alternative to restarting the pool: only the dirty fragment
    crosses the process boundary, and when the coordinator knows the exact
    compact delta, only the delta does.

    Attributes:
        fragment_id: the fragment to refresh.
        estimated_iterations: the fragment's new iteration estimate.
        delta: the augmented graph's edge delta (applied in place to the
            worker's pinned replica); when present, only the delta crosses
            the process boundary.
        payload: the fragment's full refreshed compact site.  Live workers
            receive it only when no delta is available, but the pool always
            folds it into its parent-side pinned list so a worker process
            respawned later (after a crash) re-initialises from current
            state, not from the sites captured at pool start.
        remove: the fragment no longer exists (a refragmentation dropped
            it); workers discard their pinned copy instead of refreshing it.
        border_nodes: the fragment's border nodes after the write, applied
            with ``delta`` (a payload carries its own); ``None`` leaves the
            worker's border hint as it is.
    """

    fragment_id: int
    estimated_iterations: int
    delta: Optional[CompactDelta] = None
    payload: Optional[CompactFragmentSite] = None
    remove: bool = False
    border_nodes: Optional[FrozenSet[Node]] = None

    def wire(self) -> "PinUpdate":
        """Return the copy that crosses the process boundary.

        Live workers get the small delta when one exists; the full payload
        only ships when a replica must be replaced wholesale.
        """
        return PinUpdate(
            fragment_id=self.fragment_id,
            estimated_iterations=self.estimated_iterations,
            delta=self.delta,
            payload=None if self.delta is not None else self.payload,
            remove=self.remove,
            border_nodes=self.border_nodes,
        )


def apply_pin_updates(
    sites: Dict[int, CompactFragmentSite], updates: Sequence[PinUpdate]
) -> int:
    """Apply pin updates to a worker's pinned-site map; returns the count refreshed.

    The worker-side interpretation of the delta-vs-payload protocol.
    """
    refreshed = 0
    for update in updates:
        if update.remove:
            if sites.pop(update.fragment_id, None) is not None:
                refreshed += 1
        elif update.delta is not None and update.fragment_id in sites:
            sites[update.fragment_id].apply_delta(
                update.delta, update.estimated_iterations, update.border_nodes
            )
            refreshed += 1
        elif update.payload is not None:
            sites[update.fragment_id] = update.payload
            refreshed += 1
    return refreshed


def semiring_from_name(name: str) -> Semiring:
    """Reconstruct one of the standard (picklable / serialisable) semirings.

    Raises:
        ValueError: for a non-standard semiring name; those carry callables
            that cannot cross a process or snapshot boundary.
    """
    if name == "reachability":
        return reachability_semiring()
    if name == "shortest_path":
        return shortest_path_semiring()
    raise ValueError(
        f"semiring {name!r} is not one of the standard semirings {PICKLABLE_SEMIRINGS}"
    )


def result_payload(result: LocalQueryResult) -> Dict:
    """A worker's wire form of one result.

    A plain dict: LocalQueryResult contains only picklable data but keeping
    the wire format explicit makes the message size obvious.
    """
    return {
        "values": dict(result.values),
        "tuples": result.statistics.tuples_produced,
        "elapsed": result.statistics.elapsed_seconds,
        "backend": result.backend,
        "overlay": result.overlay,
        "searches": result.searches,
        "backward": result.backward,
        "memoized": result.memoized,
        "rows_read": result.rows_read,
        "rows_filled": result.rows_filled,
    }


def result_from_payload(key: TaskKey, payload: Dict) -> LocalQueryResult:
    """Rebuild a :class:`LocalQueryResult` from a worker's wire payload."""
    statistics = ClosureStatistics()
    statistics.tuples_produced = payload["tuples"]
    statistics.elapsed_seconds = payload.get("elapsed", 0.0)
    return LocalQueryResult(
        fragment_id=key[0],
        values=dict(payload["values"]),
        statistics=statistics,
        backend=payload.get("backend"),
        overlay=payload.get("overlay", False),
        searches=payload.get("searches", 0),
        backward=payload.get("backward", False),
        memoized=payload.get("memoized", False),
        rows_read=payload.get("rows_read", 0),
        rows_filled=payload.get("rows_filled", 0),
    )


def _routed_worker_loop(
    worker_index: int,
    semiring_name: str,
    task_queue: "multiprocessing.queues.Queue",
    result_conn: "multiprocessing.connection.Connection",
    initial_sites: List[CompactFragmentSite],
) -> None:
    """The owner-worker main loop: serve one routed task queue until ``stop``.

    The worker pins only ``initial_sites`` (its owned/replicated fragments)
    plus whatever later ``pin`` messages hand it.  Replies travel over the
    worker's *private* result pipe — deliberately not a queue shared with
    the siblings: a worker terminated mid-write can only ever corrupt its
    own channel, which the coordinator discards (with the process) on
    respawn.  Every reply carries the request id so the coordinator can
    match out-of-order completions.

    The worker keeps a local :class:`MetricsRegistry` and times every kernel
    in-process; each ``evaluated`` reply ships the registry's drained delta
    alongside the result payloads, so the coordinator's merged view never
    double-counts and needs no cross-process clock agreement.
    """
    sites: Dict[int, CompactFragmentSite] = {site.fragment_id: site for site in initial_sites}
    evaluator = LocalQueryEvaluator(semiring=semiring_from_name(semiring_name))
    registry = MetricsRegistry()
    kernel_seconds = registry.histogram(
        WORKER_KERNEL_HISTOGRAM,
        "In-process kernel execution time per routed task.",
        labelnames=("worker", "fragment"),
    )
    kernel_tuples = registry.counter(
        WORKER_TUPLES_COUNTER,
        "Tuples produced by routed kernel executions.",
        labelnames=("worker", "fragment"),
    )
    border_row_lookups = border_row_lookups_counter(registry)

    def pinned_site(fragment_id: int) -> CompactFragmentSite:
        try:
            return sites[fragment_id]
        except KeyError:
            raise KeyError(
                f"fragment {fragment_id} is not pinned on worker {worker_index}"
            ) from None

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        request_id = message[1]
        try:
            if kind == "evaluate":
                tasks: Sequence[TaskKey] = message[2]
                # The coordinator's distributed trace id rides the message as
                # an optional fourth element (older coordinators omit it); the
                # worker echoes it back so the coordinator can prove which
                # trace each worker's kernel spans were timed under.
                trace_id = message[3] if len(message) > 3 else None
                specs = [LocalQuerySpec(*task) for task in tasks]
                results = evaluator.evaluate_many(pinned_site, specs)
                for outcome, count in (
                    ("read", sum(result.rows_read for result in results)),
                    ("fill", sum(result.rows_filled for result in results)),
                ):
                    if count:  # a zero would still ship an empty series
                        border_row_lookups.inc(count, outcome=outcome)
                payloads = []
                for task, result in zip(tasks, results):
                    kernel_seconds.observe(
                        result.statistics.elapsed_seconds,
                        worker=worker_index,
                        fragment=task[0],
                    )
                    kernel_tuples.inc(
                        result.statistics.tuples_produced,
                        worker=worker_index,
                        fragment=task[0],
                    )
                    payloads.append((task, result_payload(result)))
                # Fold this worker's kernel-selection and overlay counters
                # into its local registry so the drained delta carries them
                # to the coordinator alongside the timing series.
                merge_selection_metrics(registry)
                merge_overlay_metrics(registry)
                result_conn.send(
                    (
                        request_id,
                        worker_index,
                        "evaluated",
                        {
                            "payloads": payloads,
                            "metrics": registry.drain(),
                            "trace_id": trace_id,
                        },
                    )
                )
            elif kind == "pin":
                for site in message[2]:
                    sites[site.fragment_id] = site
                result_conn.send((request_id, worker_index, "pinned", len(message[2])))
            elif kind == "unpin":
                for fragment_id in message[2]:
                    sites.pop(fragment_id, None)
                result_conn.send((request_id, worker_index, "unpinned", len(message[2])))
            elif kind == "repin":
                refreshed = apply_pin_updates(sites, message[2])
                result_conn.send((request_id, worker_index, "repinned", refreshed))
            elif kind == "census":
                # fragment -> (border rows held, their bytes), in pinned order
                census = {fid: border_rows_held(sites[fid]) for fid in sorted(sites)}
                result_conn.send((request_id, worker_index, "census", census))
            else:
                raise ValueError(f"unknown worker message kind {kind!r}")
        except Exception:
            result_conn.send((request_id, worker_index, "error", traceback.format_exc()))


@dataclass
class _WorkerHandle:
    """The coordinator's view of one owner worker.

    ``pinned`` mirrors the worker's resident sites so a crashed process can
    be respawned with its *current* state (post-repin, post-migration), not
    the state captured at pool start.  ``reader`` is the coordinator's end
    of the worker's private result pipe — per-worker by design, so a worker
    terminated mid-reply corrupts only a channel that dies with it.
    """

    index: int
    process: multiprocessing.Process
    queue: "multiprocessing.queues.Queue"
    reader: "multiprocessing.connection.Connection"
    pinned: Dict[int, CompactFragmentSite] = field(default_factory=dict)

    def is_alive(self) -> bool:
        return self.process.is_alive()


class WorkerPoolError(RuntimeError):
    """A routed worker failed, timed out, or was asked the impossible."""


class PlacedWorkerPool:
    """Shared-nothing worker pool: per-owner routed task queues.

    Args:
        catalog: the distributed catalog whose sites the workers pin.
        plan: the fragment -> owner-worker placement to execute; every
            fragment of the catalog must be placed.

    Each worker is a dedicated process draining its own queue and pinning
    only the fragments the plan places on it.  ``evaluate`` routes every
    task to its fragment's owner — falling back to a live replica (and
    respawning the owner) when the owner process died — so the coordinator,
    not the OS scheduler, decides where data-dependent work runs; that is
    what makes scoped re-pins and live migration possible.
    """

    def __init__(self, catalog: DistributedCatalog, plan: PlacementPlan) -> None:
        if catalog.semiring.name not in PICKLABLE_SEMIRINGS:
            raise ValueError(
                "the placed worker pool supports the "
                f"{' and '.join(PICKLABLE_SEMIRINGS)} semirings only"
            )
        self._semiring_name = catalog.semiring.name
        self._context = multiprocessing.get_context()
        self._next_request_id = 0
        self._running = False
        self._workers: List[_WorkerHandle] = []
        # Observability counters (the service folds these into its stats).
        self.dispatch_counts: Dict[int, int] = {}
        self.last_route_counts: Dict[int, int] = {}
        # Per-evaluate telemetry: which worker actually ran each task (the
        # replica/respawn fallbacks make this differ from the plan's owner),
        # and the drained worker-registry payloads for the service to merge.
        self.last_task_workers: Dict[TaskKey, int] = {}
        self.last_worker_metrics: List[Dict] = []
        # Per-evaluate trace plumbing: the trace id each replying worker
        # echoed back, so the service can stamp worker spans with proof that
        # the kernel work ran under the client's distributed trace.
        self.last_trace_ids: Dict[int, Optional[str]] = {}
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.repins = 0
        self.repinned_fragments = 0
        self.repin_messages = 0
        self.last_repin_workers: Tuple[int, ...] = ()
        self.migrations = 0
        self.respawns = 0
        self.replica_fallbacks = 0
        # Replica version fencing: a repin reaches only the *owner* eagerly;
        # replicas are fenced at the stale version and refreshed lazily from
        # the coordinator mirror on their first routed read.
        self.replica_refreshes = 0
        self.replica_repins_deferred = 0
        self.refragments = 0
        self._stale_replicas: Dict[int, set] = {}
        self._start(catalog, plan)

    # ------------------------------------------------------------- lifecycle

    def _start(self, catalog: DistributedCatalog, plan: PlacementPlan) -> None:
        sites = catalog.compact_sites()
        missing = sorted(set(sites) - set(plan.owner_of))
        if missing:
            raise PlacementError(f"placement plan does not place fragments {missing}")
        self._plan = plan.copy()
        self._workers = []
        self._stale_replicas = {}
        for worker_index in range(self._plan.worker_count):
            pinned = {
                fragment_id: sites[fragment_id]
                for fragment_id in self._plan.fragments_on(worker_index)
                if fragment_id in sites
            }
            self._workers.append(self._spawn(worker_index, pinned))
        self._running = True

    def _spawn(self, worker_index: int, pinned: Dict[int, CompactFragmentSite]) -> _WorkerHandle:
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_routed_worker_loop,
            args=(
                worker_index,
                self._semiring_name,
                task_queue,
                writer,
                list(pinned.values()),
            ),
            daemon=True,
        )
        process.start()
        # Drop the coordinator's copy of the write end: once the worker dies,
        # its pipe reaches EOF and `connection.wait` reports it immediately.
        writer.close()
        return _WorkerHandle(
            index=worker_index,
            process=process,
            queue=task_queue,
            reader=reader,
            pinned=dict(pinned),
        )

    def _respawn(self, worker_index: int) -> _WorkerHandle:
        """Re-home a dead owner: a fresh process re-pins the current mirror.

        A fresh task queue and result pipe replace the dead worker's: the
        queue's buffer may hold undelivered messages that would replay out
        of order, and the pipe may hold a half-written reply.
        """
        stale = self._workers[worker_index]
        for closer in (stale.queue.close, stale.queue.cancel_join_thread, stale.reader.close):
            try:
                closer()
            except Exception:
                pass
        handle = self._spawn(worker_index, stale.pinned)
        self._workers[worker_index] = handle
        # The fresh process pinned the current mirror, so nothing it holds is
        # behind a fence any more.
        self._stale_replicas.pop(worker_index, None)
        self.respawns += 1
        return handle

    def restart(self, catalog: DistributedCatalog) -> None:
        """Replace every pinned site with ``catalog``'s under the remapped plan.

        Kept for the full-rebuild path (refragmentation, incremental
        fallback), where the fragment set itself may have changed; scoped
        updates go through :meth:`repin` and skew through :meth:`migrate`
        instead.  When the catalog's fragments no longer match the plan it is
        remapped (:meth:`PlacementPlan.remap`): surviving fragments keep
        their owners, new ids land on the least-loaded workers.
        """
        if catalog.semiring.name != self._semiring_name:
            raise ValueError(
                f"cannot restart a {self._semiring_name} pool with a "
                f"{catalog.semiring.name} catalog"
            )
        plan = self._plan
        fragment_ids = {site.fragment_id for site in catalog.sites()}
        if fragment_ids != set(plan.owner_of):
            plan = plan.remap(fragment_ids)
        self.close()
        self._start(catalog, plan)

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent)."""
        if not self._running:
            return
        self._running = False
        for handle in self._workers:
            try:
                if handle.is_alive():
                    handle.queue.put(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._workers:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            for closer in (
                handle.queue.close,
                handle.queue.cancel_join_thread,
                handle.reader.close,
            ):
                try:
                    closer()
                except Exception:
                    pass
        self._workers = []

    # ------------------------------------------------------------- accessors

    @property
    def plan(self) -> PlacementPlan:
        """The live placement plan (mutated in place by :meth:`migrate`)."""
        return self._plan

    @property
    def worker_count(self) -> int:
        """The number of routed worker slots."""
        return self._plan.worker_count

    def is_running(self) -> bool:
        """Return ``True`` while the pool serves its queues."""
        return self._running

    def worker_pids(self) -> List[Optional[int]]:
        """Return each worker's OS pid (stable across repins and migrations)."""
        return [handle.process.pid for handle in self._workers]

    def liveness(self) -> Dict[int, bool]:
        """Return worker index -> process-alive, the health probe's raw signal.

        Deliberately a pure read (no respawn side effects): ``healthz`` must
        be able to report a degraded pool without mutating it — the next
        routed evaluate is what heals dead owners.
        """
        return {handle.index: handle.is_alive() for handle in self._workers}

    def pinned_census(self) -> Dict[int, List[int]]:
        """Return worker -> pinned fragment ids.

        The figures come from the live processes (the ground truth the
        placement benchmark audits); from the coordinator's mirrors only
        while the pool is stopped.
        """
        if not self._running:
            return {h.index: sorted(h.pinned) for h in self._workers}
        replies = self._census()
        census = {h.index: sorted(h.pinned) for h in self._workers if h.index not in replies}
        census.update({worker: list(fragments) for worker, fragments in replies.items()})
        return dict(sorted(census.items()))

    def border_rows(self) -> Dict[int, Tuple[int, int]]:
        """Return fragment -> ``(border rows, bytes)`` held by the live workers.

        The rows live where the endpoint tasks run; replicas of a fragment
        add up.
        """
        held: Dict[int, Tuple[int, int]] = {}
        if self._running:
            for fragments in self._census().values():
                for fragment_id, (rows, size) in fragments.items():
                    before = held.get(fragment_id, (0, 0))
                    held[fragment_id] = (before[0] + rows, before[1] + size)
        return dict(sorted(held.items()))

    def _census(self) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """Ask every live worker what it pins: worker -> fragment -> (rows, bytes)."""
        request_id = self._request_id()
        targets = []
        for handle in self._workers:
            if handle.is_alive():
                handle.queue.put(("census", request_id))
                targets.append(handle.index)
        return self._collect(request_id, targets, resubmit=None)  # type: ignore[return-value]

    # ------------------------------------------------------------ operations

    def evaluate(
        self,
        tasks: Sequence[TaskKey],
        *,
        owner_groups: Optional[Dict[int, List[TaskKey]]] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[TaskKey, LocalQueryResult]:
        """Route each task to its fragment's owner queue and gather the results.

        Routing prefers the owner; when the owner process died, a live
        replica takes the task and the owner is respawned (from the
        coordinator's pinned mirror) for the next round.  Mid-flight worker
        deaths are detected while waiting and the lost tasks are resubmitted
        to the respawned owner, so a crash costs latency, never answers.

        ``owner_groups`` is the placement-aware batch planner's pre-computed
        worker -> tasks grouping: groups whose worker is alive and still pins
        every named fragment ship as-is (one message per owner, no
        re-derivation), anything else falls back to live routing — a batch
        planned just before a migration or a crash still lands correctly.

        ``trace_id`` is the caller's distributed trace id; it rides every
        routed message and each worker echoes it back in its reply
        (collected into :attr:`last_trace_ids`), so worker-side kernel spans
        can be attributed to the client trace that caused them.

        Raises:
            WorkerPoolError: when the pool is closed, a fragment is not
                placed, or workers keep failing past the reply timeout.
        """
        if not self._running:
            raise WorkerPoolError("the placed worker pool has been closed")
        results: Dict[TaskKey, LocalQueryResult] = {}
        # Reset before the empty-batch return: a no-task call must not leave
        # the previous call's counts behind for the caller to re-accumulate.
        self.last_route_counts = {}
        self.last_task_workers = {}
        self.last_worker_metrics = []
        self.last_trace_ids = {}
        if not tasks:
            return results
        if owner_groups is not None:
            groups = self._adopt_groups(owner_groups)
        else:
            groups = self._route(tasks)
        request_id = self._request_id()
        # Per-owner accounting counts *tasks* (the unit of local work), never
        # messages: one routed message may batch many subqueries.
        self.last_route_counts = {w: len(ts) for w, ts in groups.items()}
        # The live queue depth is this round's largest per-owner batch
        # (overwritten every round); the peak is its high-water mark.
        self.queue_depth = max((len(ts) for ts in groups.values()), default=0)
        for worker_index, worker_tasks in groups.items():
            # Fenced replicas refresh from the mirror before the read; queue
            # order guarantees the pin applies before the evaluate.
            self._refresh_fenced(worker_index, {task[0] for task in worker_tasks})
            self._workers[worker_index].queue.put(
                ("evaluate", request_id, worker_tasks, trace_id)
            )
            self.queue_depth_peak = max(self.queue_depth_peak, len(worker_tasks))
        replies = self._collect(
            request_id,
            list(groups),
            resubmit={worker: list(worker_tasks) for worker, worker_tasks in groups.items()},
            trace_id=trace_id,
        )
        for worker_index, reply in replies.items():
            self.last_trace_ids[worker_index] = reply.get("trace_id")
            metrics = reply.get("metrics")
            if metrics:
                self.last_worker_metrics.append(metrics)
            for key, payload in reply["payloads"]:
                results[key] = result_from_payload(key, payload)
                self.dispatch_counts[key[0]] = self.dispatch_counts.get(key[0], 0) + 1
                self.last_task_workers[key] = worker_index
        missing = [task for task in tasks if task not in results]
        if missing:
            raise WorkerPoolError(f"routed evaluation lost tasks {missing}")
        return results

    def repin(self, updates: Sequence[PinUpdate]) -> None:
        """Refresh dirty fragments on their owner only — replicas are fenced.

        Instead of a broadcast to every worker holding a copy, each update
        travels eagerly only to the fragment's *owner* — the worker every
        read routes to — so a hot fragment's update cost stays O(1) however
        widely it is replicated.  Replica
        processes keep serving their old version behind a fence: the
        coordinator mirror records the new payload, the replica is marked
        stale, and the first routed read that actually falls back to it
        (owner death) refreshes it from the mirror before the read runs.
        """
        if not self._running:
            raise WorkerPoolError("the placed worker pool has been closed")
        if not updates:
            return
        owner_groups: Dict[int, List[PinUpdate]] = {}
        for update in updates:
            workers = self._plan.workers_for(update.fragment_id)
            if len(workers) > 1 and update.payload is None and not update.remove:
                # The fence (and the lazy refresh behind it, and a respawn)
                # serves from the coordinator mirror, which only a payload
                # can refresh; applying a bare delta to a possibly-stale
                # replica would corrupt it silently.
                raise WorkerPoolError(
                    f"re-pinning replicated fragment {update.fragment_id} "
                    "requires a full payload, not just a delta"
                )
            owner = workers[0]
            owner_groups.setdefault(owner, []).append(update)
            for replica in workers[1:]:
                # Mirror now, process later: the replica's live state is
                # fenced at its old version until a routed read needs it.
                if update.remove:
                    self._workers[replica].pinned.pop(update.fragment_id, None)
                else:
                    self._workers[replica].pinned[update.fragment_id] = update.payload
                self._stale_replicas.setdefault(replica, set()).add(update.fragment_id)
                self.replica_repins_deferred += 1
        request_id = self._request_id()
        targets: List[int] = []
        for worker_index, worker_updates in owner_groups.items():
            handle = self._workers[worker_index]
            # The coordinator mirror is refreshed regardless of process
            # health: a dead owner respawns from this mirror later.
            for update in worker_updates:
                if update.remove:
                    handle.pinned.pop(update.fragment_id, None)
                elif update.payload is not None:
                    handle.pinned[update.fragment_id] = update.payload
            self._stale_replicas.get(worker_index, set()).difference_update(
                update.fragment_id for update in worker_updates
            )
            if not handle.is_alive():
                continue
            handle.queue.put(("repin", request_id, [u.wire() for u in worker_updates]))
            targets.append(worker_index)
        self._collect(request_id, targets, resubmit=None)
        self.repins += 1
        self.repinned_fragments += len(updates)
        self.repin_messages += len(targets)
        self.last_repin_workers = tuple(sorted(owner_groups))

    def migrate(self, fragment_id: int, to_worker: int) -> bool:
        """Move a fragment's compact state to ``to_worker`` — live, no restart.

        The fragment's current payload (the coordinator's mirror, which every
        repin keeps current) is pinned on the destination first, the plan is
        flipped, and only then is the source told to unpin — a reader routed
        mid-migration always finds the fragment somewhere.  Returns ``False``
        when the fragment already lives on ``to_worker``.

        Raises:
            WorkerPoolError: when the pool is closed or the coordinator has
                no payload for the fragment.
            PlacementError: when the fragment is unplaced or the destination
                worker index is out of range.
        """
        if not self._running:
            raise WorkerPoolError("the placed worker pool has been closed")
        if not 0 <= to_worker < self._plan.worker_count:
            # Validated before any side effect: an out-of-range index (or a
            # negative one, which Python would silently wrap) must not pin
            # state onto a worker the plan does not list.
            raise PlacementError(
                f"destination worker {to_worker} is outside "
                f"0..{self._plan.worker_count - 1}"
            )
        from_worker = self._plan.owner(fragment_id)
        if from_worker == to_worker:
            return False
        source = self._workers[from_worker]
        payload = source.pinned.get(fragment_id)
        if payload is None:
            raise WorkerPoolError(
                f"no pinned payload for fragment {fragment_id} on worker {from_worker}"
            )
        destination = self._workers[to_worker]
        if not destination.is_alive():
            destination = self._respawn(to_worker)
        # The mirror is updated *before* the pin is sent: if the destination
        # dies mid-pin, _collect respawns it from this mirror — fragment
        # included — so the move is self-healing instead of stranding the
        # fragment on a new owner that never pinned it.
        destination.pinned[fragment_id] = payload
        request_id = self._request_id()
        destination.queue.put(("pin", request_id, [payload]))
        self._collect(request_id, [to_worker], resubmit=None)
        # The destination just pinned the mirror's current payload: whatever
        # fence it carried for this fragment is satisfied.
        self._stale_replicas.get(to_worker, set()).discard(fragment_id)
        self._plan.move(fragment_id, to_worker)
        # move() always takes the fragment off its previous owner entirely
        # (a destination replica is absorbed into ownership, never the other
        # way around), so the source unpins unconditionally.
        source.pinned.pop(fragment_id, None)
        self._stale_replicas.get(from_worker, set()).discard(fragment_id)
        if source.is_alive():
            request_id = self._request_id()
            source.queue.put(("unpin", request_id, [fragment_id]))
            self._collect(request_id, [from_worker], resubmit=None)
        self.migrations += 1
        return True

    def apply_refragmentation(
        self, updates: Sequence[PinUpdate], new_plan: PlacementPlan
    ) -> None:
        """Execute a live boundary redraw: scoped pin changes, then the new plan.

        ``updates`` carries the rebuilt fragments' full payloads plus
        ``remove`` markers for fragments the redraw dropped; ``new_plan`` is
        the remapped placement (surviving fragments keep their owners — see
        :meth:`PlacementPlan.remap`).  Each rebuilt fragment ships to its
        (new) owner only, with replicas fenced exactly like an ordinary
        repin; dropped fragments are unpinned from every worker holding
        them.  Worker processes are never restarted — unchanged fragments
        stay pinned where they are, warm state and PIDs intact.  Dead
        workers are skipped (their mirrors are refreshed, so the eventual
        respawn pins current state).

        Raises:
            WorkerPoolError: when the pool is closed.
        """
        if not self._running:
            raise WorkerPoolError("the placed worker pool has been closed")
        old_plan = self._plan
        groups: Dict[int, List[PinUpdate]] = {}
        for update in updates:
            fragment_id = update.fragment_id
            if update.remove:
                # Unpin everywhere the old plan put it; the fragment id no
                # longer exists, so there is nothing to fence.
                for worker_index in range(len(self._workers)):
                    handle = self._workers[worker_index]
                    if handle.pinned.pop(fragment_id, None) is not None:
                        groups.setdefault(worker_index, []).append(update)
                    stale = self._stale_replicas.get(worker_index)
                    if stale:
                        stale.discard(fragment_id)
                continue
            workers = new_plan.workers_for(fragment_id)
            owner = workers[0]
            self._workers[owner].pinned[fragment_id] = update.payload
            self._stale_replicas.get(owner, set()).discard(fragment_id)
            groups.setdefault(owner, []).append(update)
            for replica in workers[1:]:
                self._workers[replica].pinned[fragment_id] = update.payload
                self._stale_replicas.setdefault(replica, set()).add(fragment_id)
                self.replica_repins_deferred += 1
            # The redraw may have re-owned the fragment (a created id landing
            # on a new worker): the old owner no longer pins it.
            try:
                previous = old_plan.owner(fragment_id)
            except PlacementError:
                previous = None
            if previous is not None and previous not in workers:
                handle = self._workers[previous]
                if handle.pinned.pop(fragment_id, None) is not None:
                    groups.setdefault(previous, []).append(
                        PinUpdate(fragment_id=fragment_id, estimated_iterations=0, remove=True)
                    )
        request_id = self._request_id()
        targets: List[int] = []
        for worker_index, worker_updates in groups.items():
            handle = self._workers[worker_index]
            if not handle.is_alive():
                continue
            handle.queue.put(("repin", request_id, [u.wire() for u in worker_updates]))
            targets.append(worker_index)
        self._collect(request_id, targets, resubmit=None)
        self._plan = new_plan.copy()
        self.refragments += 1
        self.repinned_fragments += len(updates)
        self.repin_messages += len(targets)
        self.last_repin_workers = tuple(sorted(groups))

    # ------------------------------------------------------------- internals

    def _request_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _adopt_groups(
        self, owner_groups: Dict[int, List[TaskKey]]
    ) -> Dict[int, List[TaskKey]]:
        """Validate a pre-computed batch grouping against the live pool.

        A group ships untouched when its worker index is in range, the
        process is alive, and the worker pins every fragment the group
        names; otherwise its tasks re-route live (owner first, replica
        fallback, respawn) exactly like un-grouped evaluation.
        """
        groups: Dict[int, List[TaskKey]] = {}
        stragglers: List[TaskKey] = []
        for worker_index, worker_tasks in owner_groups.items():
            usable = (
                0 <= worker_index < len(self._workers)
                and self._workers[worker_index].is_alive()
                and all(
                    task[0] in self._workers[worker_index].pinned
                    for task in worker_tasks
                )
            )
            if usable:
                groups.setdefault(worker_index, []).extend(worker_tasks)
            else:
                stragglers.extend(worker_tasks)
        if stragglers:
            for worker_index, worker_tasks in self._route(stragglers).items():
                groups.setdefault(worker_index, []).extend(worker_tasks)
        return groups

    def _refresh_fenced(self, worker_index: int, fragment_ids: set) -> None:
        """Push mirror payloads for fenced fragments ahead of a routed read."""
        stale = self._stale_replicas.get(worker_index)
        if not stale:
            return
        needed = sorted(stale & fragment_ids)
        if not needed:
            return
        handle = self._workers[worker_index]
        if not handle.is_alive():
            return  # the respawn pins the fresh mirror anyway
        refresh = [handle.pinned[fid] for fid in needed if fid in handle.pinned]
        drop = [fid for fid in needed if fid not in handle.pinned]
        if refresh:
            # The reply is intentionally not awaited: queue order guarantees
            # the pin applies before the evaluate behind it, and _collect
            # discards the out-of-band "pinned" acknowledgement.
            handle.queue.put(("pin", self._request_id(), refresh))
            self.replica_refreshes += len(refresh)
        if drop:
            handle.queue.put(("unpin", self._request_id(), drop))
        stale.difference_update(needed)

    def _route(self, tasks: Sequence[TaskKey]) -> Dict[int, List[TaskKey]]:
        """Group tasks by the worker that will run them (owner, else replica)."""
        groups: Dict[int, List[TaskKey]] = {}
        respawned: set = set()
        for task in tasks:
            fragment_id = task[0]
            candidates = self._plan.workers_for(fragment_id)
            owner = candidates[0]
            chosen: Optional[int] = None
            if self._workers[owner].is_alive():
                chosen = owner
            else:
                for replica in candidates[1:]:
                    if self._workers[replica].is_alive():
                        chosen = replica
                        self.replica_fallbacks += 1
                        break
                if owner not in respawned:
                    # Re-home the dead owner's fragments either way: a fresh
                    # process re-pins the mirror and takes the next round.
                    self._respawn(owner)
                    respawned.add(owner)
                if chosen is None:
                    chosen = owner  # the respawned owner takes it now
            groups.setdefault(chosen, []).append(task)
        return groups

    def _collect(
        self,
        request_id: int,
        workers: List[int],
        *,
        resubmit: Optional[Dict[int, List[TaskKey]]],
        trace_id: Optional[str] = None,
    ) -> Dict[int, object]:
        """Gather one reply per worker for ``request_id`` from the result pipes.

        Each worker owns a private result pipe, multiplexed here with
        :func:`multiprocessing.connection.wait` — a dead worker's pipe hits
        EOF and is reported ready immediately, so crashes surface as fast as
        replies.  ``resubmit`` (evaluate only) maps each worker to the tasks
        it was sent: when a worker dies before replying, it is respawned
        from its mirror and its tasks are resubmitted under the same request
        id.

        Raises:
            WorkerPoolError: on a worker-side error or an overall timeout.
        """
        outstanding = set(workers)
        replies: Dict[int, object] = {}
        deadline = time.monotonic() + ROUTED_REPLY_TIMEOUT_SECONDS
        while outstanding:
            if time.monotonic() > deadline:
                raise WorkerPoolError(
                    f"workers {sorted(outstanding)} did not reply within "
                    f"{ROUTED_REPLY_TIMEOUT_SECONDS:.0f}s"
                )
            reader_of = {self._workers[w].reader: w for w in outstanding}
            ready = multiprocessing.connection.wait(
                list(reader_of), timeout=_POLL_SECONDS
            )
            failed: List[int] = []
            for reader in ready:
                worker_index = reader_of[reader]
                try:
                    reply_id, _, kind, payload = reader.recv()
                except (EOFError, OSError):
                    failed.append(worker_index)
                    continue
                if reply_id != request_id:
                    continue  # a stale reply from a superseded request
                if kind == "error":
                    raise WorkerPoolError(f"worker {worker_index} failed:\n{payload}")
                replies[worker_index] = payload
                outstanding.discard(worker_index)
            if not ready:
                failed = [w for w in sorted(outstanding) if not self._workers[w].is_alive()]
            for worker_index in failed:
                handle = self._respawn(worker_index)
                if resubmit is not None and worker_index in resubmit:
                    handle.queue.put(
                        ("evaluate", request_id, resubmit[worker_index], trace_id)
                    )
                else:
                    # Non-evaluate requests (pin/repin/census) were already
                    # folded into the mirror the respawn used.
                    outstanding.discard(worker_index)
        return replies

    # --------------------------------------------------------------- context

    def __enter__(self) -> "PlacedWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
