"""The traced run: per-layer metrics for one workload.

Phases, all in one process, one after the other:

1. **set-up** and **stream** — set-up with a span per stage, then the
   workload's op stream through ``replay.ReplayDriver`` (one span per layer
   call) for half of ``--seconds``;
2. **reference** — a fresh, untraced ``QueryService`` answers the identical
   ops; answers must equal the replay's and the oracle's, and the time it
   takes over the replay's layer sum is ``service.overhead_us``;
3. **probe ops** — only for the layers the workload's own stream and set-up
   never reached: cold reads, batches, writes through an in-process driver
   on the replay's state;
4. **layer probes** — ``probes.py``: the layer metrics that are defined as
   one function timed alone (kernels per backend, cache, pool, snapshot,
   serving, fragmenters, tracer on/off).

Every metric is taken from the workload's own stream when that has samples
of it, else from its set-up, else from a probe, and the summary says which
(``sources``): a ``probe`` value tells how fast the layer is on this
workload's graph, not that the workload uses it.  The benchmark contract
wants every per-layer metric printed by every traced run, so a pairing of
workload and layer that the stream does not define cannot simply be left out.

Spans go to ``out/<workload>.<seed>.trace.json`` when the run ends.
"""

from __future__ import annotations

import gc
import itertools
import random
import shutil
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.closure.backends import KERNEL_BACKENDS
from repro.graph.compact import overlay_compaction_counts
from repro.service.server import QueryService

import measure
import netload
import oracle
import probes
import replay
import session
import workloads
from replay import LAYER_SPANS, ReplayDriver, replay_executor
from spans import SpanRecorder, instrument
from workloads import OUT_DIR, Failure, Op, Pair, StreamLog, Workload

Metric = Tuple[float, str]

MAX_TRACED_OPS = 2000
PROBE_READS = 32
PROBE_BATCHES = 4
PROBE_BATCH_SIZE = 8
PROBE_WRITES = 6
SERVING_PROBE_SECONDS = 1.5
PINGS = 200
CROSS_CHECK_TOLERANCE = 0.20
PROGRAM_TRACES = 256  # the Tracer's ring holds this many finished traces

# Where a metric's samples are looked for, in this order.
STREAM, SETUP, PROBE = "stream", "setup", "probe"
PREFERENCE = (STREAM, SETUP, PROBE)

# metric, span, scale, unit: the median duration of the layer's spans.
SPAN_METRICS = (
    ("graph.apply_delta_us", "graph.apply_delta", 1e6, "us"),
    ("disconnection.plan_us", "disconnection.plan", 1e6, "us"),
    ("disconnection.local_query_ms", "disconnection.local_query", 1e3, "ms"),
    ("disconnection.assembly_us", "disconnection.assembly", 1e6, "us"),
    ("disconnection.db_update_ms", "disconnection.db_update", 1e3, "ms"),
    ("disconnection.site_rederive_ms", "disconnection.site_rederive", 1e3, "ms"),
    ("incremental.probe_ms", "incremental.probe", 1e3, "ms"),
    ("incremental.recompute_rows_ms", "incremental.recompute_rows", 1e3, "ms"),
    ("service.batch_plan_ms", "service.batch_plan", 1e3, "ms"),
    ("service.pool_evaluate_ms", "service.pool_evaluate", 1e3, "ms"),
    ("closure.dijkstra_ms", "closure.dijkstra", 1e3, "ms"),
)
# metric, counted, per, unit, complement: one counter over another.
COUNT_METRICS = (
    ("disconnection.chains_per_query", "disconnection.chains",
     "disconnection.queries_planned", "count", False),
    ("disconnection.local_tasks_per_query", "disconnection.tasks",
     "disconnection.queries_planned", "count", False),
    ("disconnection.shared_task_share", "disconnection.tasks",
     "disconnection.task_references", "ratio", True),
    ("service.batch_dedup_share", "service.batch_distinct", "service.batch_pairs", "ratio", True),
)
# metric, key of ``ReplayDriver.writes``, unit: the mean over the writes.
WRITE_METRICS = (
    ("incremental.rows_recomputed", "rows_recomputed", "count"),
    ("incremental.dirty_fragments_per_write", "dirty_fragments", "count"),
    ("service.cache_evicted_per_write", "evicted", "count"),
    ("service.cache_retained_share", "retained_share", "ratio"),
)
READ_SPANS = ("disconnection.plan", "disconnection.local_query", "disconnection.assembly")


@dataclass
class Phase:
    """The spans ``[since, until)`` and the counts one phase of the run recorded."""

    source: str
    since: int
    until: int
    counts: Dict[str, float]


def pairs_of(ops: Iterable[Op]) -> Iterator[Pair]:
    """The ``(source, target)`` pairs an op stream reads, in order."""
    for op in ops:
        if op[0] == "batch":
            yield from op[1]
        elif op[0] != "write":
            yield (op[1], op[2])


class Traced:
    """State of one traced run; the per-layer metrics accumulate in ``metrics``."""

    def __init__(self, workload: Workload, scale: str) -> None:
        self.workload = workload
        self.scale = scale
        self.recorder = SpanRecorder()
        self.calibrator = measure.Calibrator()
        self.metrics: Dict[str, Metric] = {}
        self.sources: Dict[str, str] = {}  # metric -> stream, setup or probe
        self.phases: List[Phase] = []
        self._counted: Dict[str, float] = {}
        self.report: Dict[str, Metric] = {}
        self.notes: List[str] = []
        self.failed = 0
        self.attempted = 0
        self.messages: List[str] = []
        self.compactions_before = sum(overlay_compaction_counts().values())
        self.applied_writes: List[Op] = []  # every write the probed service has absorbed

    # ------------------------------------------------------------- helpers

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.messages.append(message)

    def mark(self, source: str) -> Phase:
        """Close a phase: what was recorded since the last mark belongs to ``source``."""
        counts = self.recorder.counts
        phase = Phase(
            source,
            self.phases[-1].until if self.phases else 0,
            len(self.recorder),
            {name: total - self._counted.get(name, 0) for name, total in counts.items()},
        )
        self._counted = dict(counts)
        self.phases.append(phase)
        return phase

    def by_preference(self) -> List[Phase]:
        return sorted(
            (phase for phase in self.phases if phase.source in PREFERENCE),
            key=lambda phase: PREFERENCE.index(phase.source),
        )

    def own(self, span: str) -> bool:
        """Did the workload's own stream or set-up record a span of this name?"""
        return any(
            self.recorder.durations(span, since=phase.since, until=phase.until)
            for phase in self.phases
            if phase.source in (STREAM, SETUP)
        )

    def put(self, name: str, value: float, unit: str, source: str) -> None:
        """Set a metric unless a better-placed phase already has."""
        if name not in self.metrics:
            self.metrics[name] = (value, unit)
            self.sources[name] = source

    def fill(self, metrics: Dict[str, Metric], source: str = PROBE) -> None:
        for name, (value, unit) in metrics.items():
            self.put(name, value, unit, source)

    def stage_seconds(self, name: str, phase: Phase) -> float:
        return sum(self.recorder.durations(name, since=phase.since, until=phase.until))

    def check(self, log: StreamLog, *, before: Sequence[Tuple[Op, object]] = ()) -> None:
        """Every answer of ``log`` against the oracle (writes in ``before`` applied first)."""
        entries = [(op, None) for op, _ in before if op[0] == "write"] + log.answered()
        checked, mismatched = oracle.check_log(
            self.workload.graph.arcs,
            self.workload.semiring_name,
            entries,
            workloads.sample_of(self.workload.seed, everything=True),
        )
        self.attempted += sum(workloads.units_of(op) for op in log.ops)
        self.fail(mismatched, f"{mismatched} of {checked} answers disagree with the oracle")
        failures = log.failures()
        self.fail(len(failures), "; ".join(sorted({f.message for f in failures})[:3]))

    # ------------------------------------------------ set-up stage metrics

    def setup_metrics(self, setup: Phase) -> None:
        stage = lambda name: self.stage_seconds(name, setup)  # noqa: E731
        self.put("graph.load_s", stage("graph.load"), "s", SETUP)
        self.put("disconnection.complementary_s", stage("disconnection.complementary"), "s", SETUP)
        self.put("disconnection.site_warm_s", stage("disconnection.site_warm"), "s", SETUP)
        for metric, name in (("service.pool_start_s", "service.pool_start"),
                             ("service.snapshot_save_s", "service.snapshot_save")):
            if stage(name):
                self.put(metric, stage(name), "s", SETUP)
        for name in ("fragmentation.layout", "service.build", "service.cache_prewarm",
                     "serving.server_start"):
            seconds = stage(name)
            if seconds:
                self.report[f"setup.{name}_s"] = (seconds, "s")

    # ------------------------------------------------------ probe op phase

    def probe_ops(self, driver: ReplayDriver, first_op: int,
                  stream: Sequence[Tuple[Op, object]]) -> List[Dict[str, float]]:
        """Ops for the layers the workload itself never reached, on the replay's state.

        Cold reads when no single query was ever planned, batches when none
        was, writes (each followed by a read from the written node) when the
        stream has none.  Returns the driver's records of the probe writes.
        """
        workload = self.workload
        rng = random.Random(f"{workload.name}/{workload.seed}/probe")
        fresh = workloads.distinct_pairs(rng, workload.node_count)
        ops: List[Op] = []
        if not all(self.own(span) for span in READ_SPANS):
            ops.extend(("query", *pair) for pair in itertools.islice(fresh, PROBE_READS))
        if not self.own("service.batch_plan"):
            for _ in range(PROBE_BATCHES):
                ops.append(("batch", tuple(itertools.islice(fresh, PROBE_BATCH_SIZE))))
        if not self.own("disconnection.db_update"):
            writer = workloads.WriteMixed(workload.graph, workload.seed).ops()
            wanted = (op for op in writer if op[0] in ("write", "raw"))
            ops.extend(itertools.islice(wanted, 2 * PROBE_WRITES))
        written = len(driver.writes)
        log = workloads.run_closed_loop(
            replay_executor(driver, first_op), iter(ops), seconds=float("inf")
        )
        self.check(log, before=stream)
        self.applied_writes = [op for op, _ in stream if op[0] == "write"]
        self.applied_writes += [op for op in log.ops if op[0] == "write"]
        self.mark(PROBE)
        return driver.writes[written:]

    def span_metrics(
        self, stream_writes: Sequence[Dict[str, float]], probe_writes: Sequence[Dict[str, float]]
    ) -> None:
        """Layer span medians and counts, from the best-placed phase that has any."""
        phases = self.by_preference()
        for metric, span, scale, unit in SPAN_METRICS:
            for phase in phases:
                samples = self.recorder.durations(span, since=phase.since, until=phase.until)
                if samples:
                    self.put(metric, measure.median(samples) * scale, unit, phase.source)
                    break
        for metric, counted, per, unit, complement in COUNT_METRICS:
            phase = next((phase for phase in phases if phase.counts.get(per)), phases[0])
            share = phase.counts.get(counted, 0) / (phase.counts.get(per) or 1)
            self.put(metric, 1.0 - share if complement else share, unit, phase.source)
        # Which backend served each reachability subquery, counted by the
        # driver from the results (the program's own selection counter is
        # drained into a registry whenever a service evaluates in-process).
        selected = [f"closure.selected.{backend}" for backend in KERNEL_BACKENDS]
        phase = next(
            (phase for phase in phases if any(phase.counts.get(name) for name in selected)),
            phases[0],
        )
        total = sum(phase.counts.get(name, 0) for name in selected) or 1
        for backend, name in zip(KERNEL_BACKENDS, selected):
            self.put(f"closure.selected_share_{backend}", phase.counts.get(name, 0) / total,
                     "ratio", phase.source)
        writes, source = (stream_writes, STREAM) if stream_writes else (probe_writes, PROBE)
        for metric, key, unit in WRITE_METRICS:
            mean = sum(write[key] for write in writes) / len(writes) if writes else 0.0
            self.put(metric, mean, unit, source)

    def state_metrics(self, service: QueryService) -> None:
        """What the workload left in the program's state; read before any probe op writes."""
        catalog = service.engine().catalog
        depths = [site.compact().overlay_depth() for site in catalog.sites()]
        depths.append(service.database.compact_mirror().overlay_depth())
        self.put("graph.overlay_depth_max", float(max(depths)), "count", STREAM)
        self.put(
            "graph.compactions",
            float(sum(overlay_compaction_counts().values()) - self.compactions_before),
            "count", STREAM)
        self.put("disconnection.complementary_facts",
                 float(catalog.complementary.size_in_facts()), "count", STREAM)

    def probe_idle_service(self, service: QueryService, first_op: int,
                           reads: Sequence[Pair]) -> None:
        """Probe ops and span metrics for a workload whose stream never ran in-process."""
        driver = ReplayDriver(service, self.recorder)
        self.state_metrics(service)
        probe_writes = self.probe_ops(driver, first_op, ())
        overhead_from_hits(self, service, driver, reads)
        self.put("service.cache_hit_share", service.stats.hit_rate(), "ratio", PROBE)
        self.span_metrics((), probe_writes)

    # ------------------------------------------------------- layer probes

    def layer_probes(self, service: QueryService, reads: Sequence[Pair]) -> None:
        catalog = service.engine().catalog
        tasks = probes.tasks_of(catalog, reads)
        self.fill(probes.kernels(catalog, tasks))
        self.fill(probes.compact_build(catalog))
        self.fill(probes.cache(service))
        self.fill(probes.tracing_ratio(service, reads))
        batches = [
            probes.tasks_of(catalog, reads[start : start + PROBE_BATCH_SIZE])
            for start in range(0, len(reads), PROBE_BATCH_SIZE)
        ]
        self.fill(probes.pool(catalog, service.semiring, batches))
        self.fill(probes.fragmentation(self.scale))

    def serving_probe(self, service: QueryService, seconds: float) -> None:
        """Snapshot the service, serve it, drive both connections for ``seconds``."""
        directory = OUT_DIR / f"{self.workload.name}-{self.workload.seed}.probe.snapshot"
        self.fill(probes.snapshot(service, directory))
        server = netload.Server(directory)
        try:
            self.fill(serving_metrics(self, server.port, service, seconds))
        finally:
            server.stop()
            shutil.rmtree(directory, ignore_errors=True)

    # ------------------------------------------------------------- finish

    def finish(self) -> Dict[str, object]:
        recorder = self.recorder
        totals = recorder.self_time_by_name()
        for name, seconds in sorted(totals.items()):
            self.report[f"self_ms.{name}"] = (seconds * 1e3, "ms")
        self.report["spans"] = (float(len(recorder)), "count")
        workload = self.workload
        recorder.dump(
            OUT_DIR / f"{workload.name}.{workload.seed}.trace.json",
            workload=workload.name,
            seed=workload.seed,
            graph=workload.graph.name,
        )
        return {
            "graph": workload.graph.name,
            "nodes": workload.graph.node_count,
            "arcs": len(workload.graph.arcs),
            "attempted": self.attempted,
            "failed": self.failed,
            "failure_messages": self.messages[:5],
            "metrics": self.metrics,
            "sources": self.sources,
            "report": self.report,
            "notes": self.notes,
        }


# ---------------------------------------------------------------- serving


def serving_metrics(
    traced: Traced, port: int, service: QueryService, seconds: float,
    log: Optional[netload.NetLog] = None,
) -> Dict[str, Metric]:
    """Client-side spans of both connections plus the server's own counters."""
    workload = traced.workload
    recorder = traced.recorder
    line = netload.Line(port)
    try:
        round_trips = []
        for _ in range(PINGS):
            started = perf_counter()
            line.ask({"op": "ping"})
            round_trips.append(perf_counter() - started)
            recorder.add("serving.ping", started, started + round_trips[-1])
        if log is None:
            rng = random.Random(f"{workload.name}/{workload.seed}/serving-probe")
            log = netload.drive(
                port,
                seconds=seconds,
                pairs=workloads.distinct_pairs(rng, workload.node_count),
                node_count=workload.node_count,
            )
            net = netload.NetClosure(workload.graph, workload.seed)
            if workload.semiring_name == oracle.REACHABILITY:
                attempted, failed, messages = netload.verify(
                    net, log, everything=True, writes=traced.applied_writes)
            else:
                # Shortest-path closure rows carry distances the reachability
                # masks cannot check; the probe verifies replies arrived.
                attempted = len(log.points) + len(log.calls)
                failed = sum(not p.answered() for p in log.points) + sum(
                    not c.ok for c in log.calls)
                messages = []
            traced.attempted += attempted
            traced.fail(failed, "; ".join(messages) or "serving probe: request failed")
        exposition = str(line.ask({"op": "stats", "args": ["prometheus"]}).get("prometheus", ""))
    finally:
        line.close()
    for point in log.points:
        if point.done is not None:
            recorder.add("serving.point", point.sent, point.done)
    for call in log.calls:
        if call.done is not None:
            recorder.add(f"serving.{call.kind}", call.sent, call.done)
    # The same pairs, cold, through an in-process service: what TCP, JSON,
    # admission and the event loop add on top.
    direct = []
    for point in log.points:
        started = perf_counter()
        service.query(*point.pair)
        direct.append(perf_counter() - started)
    over_tcp = [p.done - p.sent for p in log.points if p.done is not None]
    served = _prometheus_totals(exposition)
    closures = max(1, len(log.closures))
    requests = sum(v for k, v in served.items() if k.startswith("repro_serving_requests_total")) or 1
    rejected = sum(
        v for k, v in served.items()
        if k.startswith("repro_serving_requests_total") and 'outcome="rejected"' in k
    )
    resumes = [c.done - c.sent for c in log.calls if c.kind == "resume" and c.done is not None]
    lags = [p.sent - p.due for p in log.points]
    return {
        "serving.rtt_us": (measure.median(round_trips) * 1e6, "us"),
        "serving.point_overhead_us": (
            (measure.median(over_tcp) - measure.median(direct)) * 1e6, "us"),
        "serving.quanta_per_closure": (
            served.get("repro_serving_quanta_total", 0.0) / closures, "count"),
        "serving.suspends_per_closure": (
            sum(v for k, v in served.items() if k.startswith("repro_serving_suspends_total"))
            / closures, "count"),
        "serving.resume_ms": (measure.median(resumes) * 1e3 if resumes else 0.0, "ms"),
        "serving.rejected_share": (rejected / requests, "ratio"),
        "serving.generator_lag_p95_ms": (measure.percentile(lags, 95) * 1e3, "ms"),
    }


def _prometheus_totals(exposition: str) -> Dict[str, float]:
    """``series{labels} -> value`` of a Prometheus text exposition."""
    totals: Dict[str, float] = {}
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            try:
                totals[series] = float(value)
            except ValueError:
                continue
    return totals


# ------------------------------------------------------ in-process streams


def cross_check(
    traced: Traced, service: QueryService, driver: ReplayDriver,
    replayed: StreamLog, reference: StreamLog,
) -> None:
    """The program's own ``plan`` / ``evaluate`` / ``kernel`` spans beside the harness's.

    The program keeps its newest ``PROGRAM_TRACES`` traces; the harness side
    is summed over the same (newest) ops, each side at reference speed.
    """
    traces = service.tracer.recent(PROGRAM_TRACES)
    last_op = len(reference.ops)
    covered = min(len(traces), last_op)
    if not covered:
        return
    first_op = last_op - covered
    factor = traced.calibrator.factor

    def speed_of(log: StreamLog, op: int) -> float:
        return factor(log.starts[op], log.starts[op] + log.raw_latencies[op])

    program = {"plan": 0.0, "evaluate": 0.0, "kernel": 0.0}
    for offset, trace in enumerate(traces[:covered]):  # newest first
        slowness = speed_of(reference, last_op - 1 - offset)
        for span in trace.spans:
            if span.name in program:
                program[span.name] += span.duration / slowness
    recorder = traced.recorder
    harness = {"plan": 0.0, "evaluate": 0.0, "kernel": 0.0}
    names = {
        "disconnection.plan": "plan",
        "service.batch_plan": "plan",
        "disconnection.local_query": "evaluate",
        "disconnection.site_rederive": "evaluate",
        "service.pool_evaluate": "evaluate",
        "closure.dijkstra": "kernel",
        "closure.reachability_rows": "kernel",
    }
    for index, name in enumerate(recorder.names):
        op = recorder.ops[index]
        if name in names and first_op <= op < last_op:
            harness[names[name]] += (
                recorder.ends[index] - recorder.starts[index]) / speed_of(replayed, op)
    # A pooled driver cannot see inside its workers: their reported times stand in.
    harness["kernel"] += sum(
        seconds / speed_of(replayed, op)
        for op, seconds in driver.worker_kernel_seconds.items()
        if first_op <= op < last_op
    )
    for stage in program:
        traced.report[f"crosscheck.program_{stage}_ms"] = (program[stage] * 1e3, "ms")
        traced.report[f"crosscheck.harness_{stage}_ms"] = (harness[stage] * 1e3, "ms")
        if harness[stage] and program[stage]:
            gap = abs(program[stage] - harness[stage]) / max(program[stage], harness[stage])
            if gap > CROSS_CHECK_TOLERANCE:
                traced.notes.append(
                    f"crosscheck: program '{stage}' spans sum to {program[stage] * 1e3:.1f} ms, "
                    f"harness spans to {harness[stage] * 1e3:.1f} ms ({gap:.0%} apart)"
                )


def overhead_from_stream(
    traced: Traced, replayed: StreamLog, reference: StreamLog, stream: Phase
) -> None:
    """``service.overhead_us`` and layer coverage from the primary ops of the stream.

    The replay and the reference run minutes apart on a machine whose speed
    drifts, so both sides are brought to reference speed (``measure.py``)
    before they are subtracted or divided.
    """
    workload = traced.workload
    factor = traced.calibrator.factor
    layer_sums = {
        op: seconds / factor(replayed.starts[op], replayed.starts[op] + replayed.raw_latencies[op])
        for op, seconds in traced.recorder.self_time_by_op(
            LAYER_SPANS, since=stream.since, until=stream.until
        ).items()
    }
    sums, walls = [], []
    for index, (op, latency) in enumerate(zip(reference.ops, reference.latencies)):
        if op[0] == workload.primary:
            sums.append(layer_sums.get(index, 0.0))
            walls.append(latency)
    traced.put("service.overhead_us", (measure.median(walls) - measure.median(sums)) * 1e6,
               "us", STREAM)
    covered = sum(layer_sums.values()) / sum(reference.latencies)
    traced.put("observability.layer_coverage_share", covered, "ratio", STREAM)
    traced.put("observability.trace_run_overhead_ratio",
               sum(replayed.latencies) / sum(reference.latencies), "ratio", STREAM)
    traced.report["machine_speed"] = (traced.calibrator.speed(), "ratio")


def overhead_from_hits(traced: Traced, service: QueryService, driver: ReplayDriver,
                       reads: Sequence[Pair]) -> None:
    """``service.overhead_us`` on the hit path, for workloads with no in-process stream."""
    direct, layered = [], []
    for _ in range(10):
        for source, target in reads:
            started = perf_counter()
            service.query(source, target)
            direct.append(perf_counter() - started)
    since = len(traced.recorder)
    for _ in range(10):
        for source, target in reads:
            driver.query(source, target)
    layered = traced.recorder.durations("service.cache_get", since=since)
    traced.put("service.overhead_us", (measure.median(direct) - measure.median(layered)) * 1e6,
               "us", PROBE)
    traced.put("observability.layer_coverage_share", sum(layered) / sum(direct), "ratio", PROBE)


def run_traced(name: str, seed: int, seconds: float, scale: str) -> Dict[str, object]:
    workload = session.make_workload(name, seed, scale)
    traced = Traced(workload, scale)
    if name == "prepare":
        return _run_traced_prepare(traced, seconds)
    recorder = traced.recorder
    pooled = name == "pool-batch"
    drivers: List[ReplayDriver] = []

    def attach(service: QueryService) -> Callable[[Op], object]:
        drivers.append(ReplayDriver(service, recorder, pooled=pooled))
        return drivers[0].apply

    with instrument(recorder, replay.TARGETS):
        with recorder.span("setup"):
            service = workload.build(recorder.span, attach)
        traced.setup_metrics(traced.mark(SETUP))
        driver = drivers[0]
        try:
            gc.collect()
            replayed = workloads.run_closed_loop(
                replay_executor(driver), workload.ops(), seconds=seconds / 2,
                max_ops=MAX_TRACED_OPS, calibrator=traced.calibrator,
            )
        finally:
            driver.close()
        stream = traced.mark(STREAM)
        stream_writes = list(driver.writes)

        reference_service = workload.build()
        try:
            gc.collect()
            reference = workloads.run_closed_loop(
                lambda op: workload.execute(reference_service, op),
                iter(replayed.ops), seconds=float("inf"), calibrator=traced.calibrator,
            )
            cross_check(traced, reference_service, driver, replayed, reference)
            traced.put("service.cache_hit_share", reference_service.stats.hit_rate(), "ratio",
                       STREAM)
            if pooled:
                traced.put("placement.dispatch_skew", reference_service.stats.dispatch_skew(),
                           "ratio", STREAM)
        finally:
            workload.dispose(reference_service)
        traced.mark("reference")  # the wrapped functions record there too; never read
        differing = sum(a != b for a, b in zip(replayed.results, reference.results)
                        if not isinstance(a, Failure) and not isinstance(b, Failure))
        traced.fail(differing, f"{differing} replay answers differ from the service's")
        traced.fail(len(reference.failures()), "the reference service raised")
        traced.check(replayed)
        overhead_from_stream(traced, replayed, reference, stream)

        traced.state_metrics(service)
        in_process = ReplayDriver(service, recorder) if pooled else driver
        probe_writes = traced.probe_ops(in_process, len(replayed.ops), replayed.answered())
        traced.span_metrics(stream_writes, probe_writes)
    reads = own_reads(replayed.ops)
    traced.layer_probes(service, reads)
    traced.serving_probe(service, min(SERVING_PROBE_SECONDS, seconds))
    workload.dispose(service)
    return traced.finish()


def own_reads(ops: Iterable[Op]) -> List[Pair]:
    """The first distinct pairs the workload itself read: the layer probes' inputs."""
    return list(itertools.islice(dict.fromkeys(pairs_of(ops)), PROBE_READS))


def _run_traced_prepare(traced: Traced, seconds: float) -> Dict[str, object]:
    """``prepare``: each pass is one op; its stages are the spans."""
    workload = traced.workload
    recorder = traced.recorder
    with instrument(recorder, replay.TARGETS):
        with recorder.span("setup"):
            digraph = workload.build(recorder.span)
        setup = traced.mark(SETUP)
        traced.put("graph.load_s", traced.stage_seconds("graph.load", setup), "s", SETUP)
        gc.collect()
        counter = itertools.count()

        def traced_pass(op: Op) -> object:
            recorder.op = next(counter)
            with recorder.span("op.prepare"):
                return workload.execute(digraph, op, recorder.span)

        replayed = workloads.run_closed_loop(
            traced_pass, workload.ops(), seconds=seconds / 2, calibrator=traced.calibrator)
        recorder.op = -1
        stream = traced.mark(STREAM)
        gc.collect()
        reference = workloads.run_closed_loop(
            lambda op: workload.execute(digraph, op), iter(replayed.ops), seconds=float("inf"),
            calibrator=traced.calibrator,
        )
        traced.mark("reference")
        differing = sum(a != b for a, b in zip(replayed.results, reference.results))
        traced.fail(differing, f"{differing} traced passes answered differently")
        traced.check(StreamLog(
            ops=[("query", op[1], op[2]) for op in replayed.ops],
            latencies=replayed.latencies, results=replayed.results,
        ))
        traced.put("observability.trace_run_overhead_ratio",
                   sum(replayed.latencies) / sum(reference.latencies), "ratio", STREAM)
        # The stages of a pass are the layers of this workload.
        passes = len(replayed.ops)
        for metric, name in (
            ("fragmentation.center_s", "fragmentation.center"),
            ("disconnection.complementary_s", "disconnection.complementary"),
            ("disconnection.site_warm_s", "disconnection.site_warm"),
            ("service.snapshot_save_s", "service.snapshot_save"),
            ("service.snapshot_load_s", "service.snapshot_load"),
        ):
            traced.put(metric, traced.stage_seconds(name, stream) / passes, "s", STREAM)
        for name in ("service.build", "op.query"):
            traced.report[f"pass.{name}_s"] = (traced.stage_seconds(name, stream) / passes, "s")

        service = workload.last_service
        reads = own_reads(replayed.ops)
        traced.probe_idle_service(service, passes, reads)
    traced.layer_probes(service, reads)
    traced.serving_probe(service, min(SERVING_PROBE_SECONDS, seconds))
    return traced.finish()


def run_traced_net(seed: int, seconds: float, scale: str) -> Dict[str, object]:
    """``net-closure``: client-side spans around both connections."""
    workload = netload.make_workload(seed, scale)
    traced = Traced(workload, scale)
    recorder = traced.recorder
    with instrument(recorder, replay.TARGETS):
        with recorder.span("setup"):
            deployment = workload.build(recorder.span)
        traced.setup_metrics(traced.mark(SETUP))
        service = deployment.service
        try:
            gc.collect()
            plain = netload.drive(deployment.server.port, seconds=seconds / 2,
                                  pairs=workload.ops(), node_count=workload.node_count)
            log = netload.drive(deployment.server.port, seconds=seconds / 2,
                                pairs=workload.ops(), node_count=workload.node_count)
            attempted, failed, messages = netload.verify(workload, log, everything=True)
            traced.attempted += attempted
            traced.fail(failed, "; ".join(messages))
            traced.fill(
                serving_metrics(traced, deployment.server.port, service, seconds, log=log),
                STREAM)
            latency = lambda net_log: measure.median(  # noqa: E731
                [p.done - p.due for p in net_log.points if p.done is not None])
            traced.put("observability.trace_run_overhead_ratio", latency(log) / latency(plain),
                       "ratio", STREAM)
        finally:
            deployment.server.stop()
        traced.mark(STREAM)
        traced.fill(probes.snapshot(service, deployment.snapshot_dir))
        shutil.rmtree(deployment.snapshot_dir, ignore_errors=True)
        reads = list(itertools.islice(dict.fromkeys(p.pair for p in log.points), PROBE_READS))
        traced.probe_idle_service(service, 0, reads)
    traced.layer_probes(service, reads)
    service.close()
    return traced.finish()
