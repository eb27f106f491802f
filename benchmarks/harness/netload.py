"""The ``net-closure`` workload: a server subprocess and two connections.

The program side is a ``ClosureServer`` started by ``serve_snapshot.py`` from
a snapshot the harness takes of an in-process service.  The load side is one
thread driving two non-blocking connections:

* **connection A, open loop** — point ``query`` requests at a fixed rate,
  sent when due whether or not earlier ones were answered, each timed from
  the moment it was *due* (so a stall shows as latency on every request
  queued behind it) with the generator's own lateness reported beside it;
* **connection B, closed loop** — ``closure *`` and then ``resume`` with each
  continuation token until the closure is done, then the next closure.

Any rejection, error reply, missing reply or answer the oracle disagrees with
is a failure.
"""

from __future__ import annotations

import gc
import json
import os
import select
import selectors
import shutil
import socket
import subprocess
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.service.server import QueryService

import graphs
import measure
import oracle
import workloads
from workloads import OUT_DIR, Pair, Stage, Tick, Workload, no_stage, no_tick

HERE = Path(__file__).resolve().parent

POINT_RATE = 80.0  # requests/s on connection A: under a tenth of what the server sustains
START_TIMEOUT_SECONDS = 60.0
DRAIN_SECONDS = 10.0  # how long replies may trail the end of the measured phase


# ------------------------------------------------------------------ server


def apart() -> Tuple[Set[int], Set[int]]:
    """``(client CPUs, server CPUs)``: one each, the first and the last allowed.

    Left to the scheduler, the two processes of a loopback conversation keep
    being pulled onto one core (the waker's), and whole runs came out in two
    modes, 15-45 % apart in latency and row rate, whichever the first seconds
    settled on.  On a one-CPU box both sets are that CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, {cpus[-1]}


def pin(pid: int, cpus: Set[int]) -> None:
    """Bind a process to ``cpus``; where a sandbox forbids that, the scheduler chooses."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


class Server:
    """The ``serve_snapshot.py`` subprocess; stopped and reaped by :meth:`stop`."""

    def __init__(self, snapshot_dir: Path) -> None:
        self.calibrator = measure.Calibrator()  # the server's own samples, filled by stop()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_snapshot.py"), str(snapshot_dir)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pin(self.process.pid, apart()[1])
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_SECONDS)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"the server did not announce a port (got {line!r})")
        return int(line.split()[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                tail, _ = self.process.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                tail, _ = self.process.communicate()
            for line in tail.splitlines():
                if line.startswith("CALIBRATION "):
                    self.calibrator.times, self.calibrator.durations = json.loads(line[12:])
        if self.process.stdout is not None:
            self.process.stdout.close()


class Line:
    """Newline-delimited JSON over one non-blocking TCP connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._inbox = b""

    def send(self, document: Dict[str, object]) -> None:
        payload = json.dumps(document).encode("utf-8") + b"\n"
        # Requests are under 100 bytes; the socket buffer always takes them.
        self.sock.sendall(payload)

    def receive(self) -> List[Dict[str, object]]:
        """Every complete reply that has arrived (possibly none)."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("the server closed the connection")
        *lines, self._inbox = (self._inbox + data).split(b"\n")
        return [json.loads(line) for line in lines if line]

    def ask(self, document: Dict[str, object], timeout: float = 30.0) -> Dict[str, object]:
        """Send one request and wait for its single-line reply."""
        self.send(document)
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            select.select([self.sock], [], [], 0.05)
            replies = self.receive()
            if replies:
                return replies[0]
        raise TimeoutError(f"no reply to {document} within {timeout}s")

    def close(self) -> None:
        self.sock.close()


# -------------------------------------------------------------------- load


@dataclass
class Point:
    pair: Pair
    due: float
    sent: float
    done: Optional[float] = None
    reply: Optional[Dict[str, object]] = None

    def value(self) -> object:
        return self.reply["answer"]["value"]  # type: ignore[index]

    def answered(self) -> bool:
        return bool(self.reply and self.reply.get("ok") and "answer" in self.reply)


@dataclass
class Call:
    kind: str  # "closure" or "resume"
    sent: float
    done: Optional[float] = None
    ok: bool = False
    error: str = ""


@dataclass
class Closure:
    rows: array = field(default_factory=lambda: array("q"))  # source * n + target
    calls: int = 0
    suspends: int = 0
    complete: bool = False


@dataclass
class NetLog:
    points: List[Point] = field(default_factory=list)
    calls: List[Call] = field(default_factory=list)
    closures: List[Closure] = field(default_factory=list)
    started: float = 0.0
    measured_seconds: float = 0.0


def drive(
    port: int,
    *,
    seconds: float,
    pairs: Iterator[Pair],
    node_count: int,
) -> NetLog:
    """Run both connections for ``seconds``; replies may trail by ``DRAIN_SECONDS``."""
    log = NetLog()
    allowed = os.sched_getaffinity(0)
    pin(0, apart()[0])
    a, b = Line(port), Line(port)
    # select(), not epoll: epoll rounds a timeout up to whole milliseconds, which
    # sent every point up to 1 ms after it was due (a fifth of its latency).
    selector = selectors.SelectSelector()
    selector.register(a.sock, selectors.EVENT_READ, a)
    selector.register(b.sock, selectors.EVENT_READ, b)
    pending: Deque[Point] = deque()  # connection A answers in request order
    interval = 1.0 / POINT_RATE
    closure = Closure()
    log.closures.append(closure)
    issued = 0

    def start_call(kind: str, argument: object) -> None:
        closure.calls += 1
        log.calls.append(Call(kind=kind, sent=perf_counter()))
        b.send({"op": kind, "args": [argument], "id": len(log.calls)})

    def on_point(reply: Dict[str, object]) -> None:
        point = pending.popleft()
        point.done = perf_counter()
        point.reply = reply

    def on_closure(reply: Dict[str, object]) -> Optional[str]:
        """Returns the continuation token when the call suspended."""
        nonlocal closure
        if "page" in reply:
            closure.rows.extend(row[0] * node_count + row[1] for row in reply["page"])
            return None
        call = log.calls[-1]
        call.done = perf_counter()
        call.ok = bool(reply.get("ok"))
        if not call.ok:
            call.error = str(reply.get("error") or reply)
            return ""
        if reply.get("done"):
            closure.complete = True
            return ""
        closure.suspends += 1
        return str(reply["continuation"])

    try:
        log.started = started = perf_counter()
        deadline = started + seconds
        start_call("closure", "*")
        b_busy = True
        while True:
            now = perf_counter()
            if now < deadline:
                while started + issued * interval <= now:
                    source, target = next(pairs)
                    point = Point(
                        pair=(source, target), due=started + issued * interval, sent=0.0
                    )
                    a.send({"op": "query", "args": [source, target], "id": issued})
                    point.sent = perf_counter()
                    log.points.append(point)
                    pending.append(point)
                    issued += 1
                wait = min(started + issued * interval, deadline) - perf_counter()
            else:
                if not pending and not b_busy:
                    break
                if now > deadline + DRAIN_SECONDS:
                    break
                wait = 0.05
            events = selector.select(max(0.0, wait))
            # Connection A first: its latency must not wait on B's page parsing.
            for key, _ in sorted(events, key=lambda event: event[0].data is not a):
                for reply in key.data.receive():
                    if key.data is a:
                        on_point(reply)
                        continue
                    token = on_closure(reply)
                    if token is None:
                        continue
                    b_busy = False
                    if perf_counter() >= deadline or (token == "" and not log.calls[-1].ok):
                        continue
                    if token:
                        start_call("resume", token)
                    else:
                        closure = Closure()
                        log.closures.append(closure)
                        start_call("closure", "*")
                    b_busy = True
        # Measured time runs to the last point reply, so the rate is what was
        # actually sustained, not the schedule's nominal rate.
        log.measured_seconds = (
            max((p.done for p in log.points if p.done), default=deadline) - started
        )
    finally:
        selector.close()
        a.close()
        b.close()
        pin(0, allowed)
    return log


# ---------------------------------------------------------------- workload


@dataclass
class Deployment:
    service: QueryService  # the in-process service the snapshot was taken from
    server: Server
    snapshot_dir: Path


class NetClosure(Workload):
    """op = point query from due time, tail = p95, throughput = closure rows/s.
    ClosureServer subprocess; A: open loop 80 queries/s, B: closed loop closure * +
    resume: protocol, quanta
    """

    name = "net-closure"
    sizes = {"gate": "chain-6x200-dir", "tiny": "chain-3x30-dir"}
    semiring_name = oracle.REACHABILITY

    def build(self, stage: Stage = no_stage, tick: Tick = no_tick) -> Deployment:
        """Edge list -> service -> snapshot -> server process answering ``ping``."""
        service = super().build(stage, tick=tick)
        snapshot_dir = OUT_DIR / f"net-closure-{self.seed}.snapshot"
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        OUT_DIR.mkdir(exist_ok=True)
        with stage("service.snapshot_save"):
            service.snapshot(snapshot_dir)
        tick()
        with stage("serving.server_start"):
            server = Server(snapshot_dir)
            try:
                line = Line(server.port)
                try:
                    line.ask({"op": "ping"})
                finally:
                    line.close()
            except BaseException:
                server.stop()
                raise
        return Deployment(service=service, server=server, snapshot_dir=snapshot_dir)

    def dispose(self, deployment: Deployment) -> None:
        deployment.server.stop()
        deployment.service.close()
        shutil.rmtree(deployment.snapshot_dir, ignore_errors=True)

    def ops(self) -> Iterator[Pair]:
        return workloads.chain_pairs(self.rng, self.graph)


def make_workload(seed: int, scale: str) -> NetClosure:
    return NetClosure(graphs.generate(NetClosure.sizes[scale], workloads.GRAPH_SEED), seed)


def verify(
    workload: NetClosure, log: NetLog, *, everything: bool, writes: Sequence[Tuple] = ()
) -> Tuple[int, int, List[str]]:
    """Count attempted and failed operations; returns ``(attempted, failed, messages)``.

    ``writes`` are the write ops the served state had absorbed before it was
    snapshotted (the traced run's serving probe runs on a written service).
    """
    messages: List[str] = []
    failed = 0
    sampled = workloads.sample_of(workload.seed, everything=everything)
    reference = oracle.Oracle(workload.graph.arcs)
    for write in writes:
        reference.apply(write)
    reachable: Dict[int, set] = {}
    for point in log.points:
        if not point.answered():
            failed += 1
            messages.append(f"point {point.pair}: {point.reply}")
            continue
        source, target = point.pair
        if sampled(source):
            if source not in reachable:
                reachable[source] = reference.reachable(source)
            if not oracle.agrees(oracle.REACHABILITY, target in reachable[source], point.value()):
                failed += 1
                messages.append(f"point {point.pair}: oracle disagrees with {point.value()!r}")
    for call in log.calls:
        if not call.ok:
            failed += 1
            messages.append(f"{call.kind}: {call.error or 'no reply'}")
    # Closure rows as one bitmask per source: exact for a finished closure,
    # a duplicate-free subset for the one cut short by the deadline.
    count = workload.node_count
    expected = {
        source: sum(1 << target for target in targets)
        for source, targets in oracle.closure_pairs(reference).items()
    }
    for closure in log.closures:
        received: Dict[int, int] = {}
        for code in closure.rows:
            source, target = divmod(code, count)
            received[source] = received.get(source, 0) | (1 << target)
        distinct = sum(mask.bit_count() for mask in received.values())
        wrong = distinct != len(closure.rows) or any(
            mask & ~expected.get(source, 0) for source, mask in received.items()
        )
        if closure.complete and not wrong:
            wrong = received != {source: mask for source, mask in expected.items() if mask}
        if wrong:
            failed += 1
            messages.append(f"closure of {len(closure.rows)} rows disagrees with the oracle")
    return len(log.points) + len(log.calls), failed, messages[:5]


def end_to_end(
    log: NetLog,
    setup_seconds: List[Tuple[float, float]],
    calibrator: measure.Calibrator,
    served: measure.Calibrator,
) -> Tuple[dict, dict]:
    """Set-up, point latencies and connection B's row rate, at reference speed.

    ``throughput_ops_s`` is the closed loop's: closure rows received per
    second connection B spent waiting on a call.  Connection A's rate is the
    schedule's (80/s short of saturation, whatever the server does), so it is
    reported, not gated; a server that falls behind shows in A's latencies,
    which are timed from the due time.

    What either connection waits for is the server process, on a CPU of its
    own, so these times are brought to reference speed by the server's own
    calibration samples (``served``, see ``serve_snapshot.py``): over ten runs
    that halved the spread of the row rate (4 % against 8 % by the client's
    samples or none).  The client's samples judge the set-up.
    """
    raw = [p.done - p.due for p in log.points if p.done is not None]
    latencies = [
        (p.done - p.due) / served.factor(p.due, p.done)
        for p in log.points
        if p.done is not None
    ]
    lags = [p.sent - p.due for p in log.points]
    rows = sum(len(closure.rows) for closure in log.closures)
    finished = [call for call in log.calls if call.done is not None]
    busy = sum((c.done - c.sent) / served.factor(c.sent, c.done) for c in finished)
    contract = {
        "setup_s": (measure.median([normal for _, normal in setup_seconds]), "s"),
        "throughput_ops_s": (rows / busy, "1/s"),
        "op_p50_ms": (measure.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (measure.steady_tail(latencies, NetClosure.tail_percent) * 1e3, "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    report = {
        "machine_speed": (calibrator.speed(), "ratio"),
        "server_speed": (served.speed(), "ratio"),
        "raw_setup_s": (measure.median([seconds for seconds, _ in setup_seconds]), "s"),
        "raw_op_p50_ms": (measure.median(raw) * 1e3, "ms"),
        "raw_op_tail_ms": (measure.steady_tail(raw, NetClosure.tail_percent) * 1e3, "ms"),
        "setup_runs": (float(len(setup_seconds)), "count"),
        "measured_s": (log.measured_seconds, "s"),
        "op_samples": (float(len(latencies)), "count"),
        "read_samples": (float(len(latencies)), "count"),
        "read_p50_ms": contract["op_p50_ms"],
        "read_p95_ms": (measure.percentile(latencies, 95) * 1e3, "ms"),
        "closure_rows_s": contract["throughput_ops_s"],
        "raw_closure_rows_s": (rows / sum(c.done - c.sent for c in finished), "1/s"),
        "point_rate_ops_s": (len(latencies) / log.measured_seconds, "1/s"),
        "closures_completed": (float(sum(c.complete for c in log.closures)), "count"),
        "closure_calls": (float(len(log.calls)), "count"),
        "generator_lag_p95_ms": (measure.percentile(lags, 95) * 1e3, "ms"),
    }
    return contract, report


def run_untraced(name: str, seed: int, seconds: float, scale: str) -> Dict[str, object]:
    workload = make_workload(seed, scale)
    calibrator = measure.Calibrator()
    waited = measure.wait_for_quiet()
    deployment, setup_seconds = measure.repeat_setup(workload.build, workload.dispose, calibrator)
    try:
        gc.collect()
        waited += measure.wait_for_quiet()
        _, jiffies = measure.stolen_share()
        log = drive(
            deployment.server.port,
            seconds=seconds,
            pairs=workload.ops(),
            node_count=workload.node_count,
        )
        stolen, _ = measure.stolen_share(jiffies)
    finally:
        workload.dispose(deployment)  # reaps the server, so its memory is counted
    # Memory is read here, before the oracle allocates its own tables.
    contract, report = end_to_end(log, setup_seconds, calibrator, deployment.server.calibrator)
    report["stolen_cpu_share"] = (stolen, "ratio")
    report["quiet_wait_s"] = (waited, "s")
    attempted, failed, messages = verify(workload, log, everything=False)
    return {
        "graph": workload.graph.name,
        "nodes": workload.graph.node_count,
        "arcs": len(workload.graph.arcs),
        "attempted": attempted,
        "failed": failed,
        "failure_messages": messages,
        "metrics": contract,
        "report": report,
    }


def run_traced(name: str, seed: int, seconds: float, scale: str) -> Dict[str, object]:
    import tracing

    return tracing.run_traced_net(seed, seconds, scale)
