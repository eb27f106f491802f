"""The seven named workloads: sizes, set-up, op streams and the closed loop.

A workload is built from ``(graph, seed)``: everything the op stream needs
(pair universes, hot sets, the write generator's bookkeeping) is derived from
the seed here, and the program only ever receives edges and node pairs.

Ops are plain tuples so the same stream can be fed to the service, to the
traced replay driver and to the oracle:

* ``("query", s, t)`` — one ``QueryService.query``;
* ``("raw", s, t)`` — the same call, tagged as the first read after a write;
* ``("batch", ((s, t), ...))`` — one ``QueryService.query_batch``;
* ``("write", kind, s, t, weight, symmetric)`` — one ``update_edge``
  (``kind`` is ``insert``, ``reweight`` or ``delete``);
* ``("prepare", s, t)`` — one whole pass of the ``prepare`` pipeline ending
  in the query ``s -> t``.

Every workload is a closed loop with one caller except ``net-closure`` (two
connections, one of them an open loop), which lives in ``netload.py``.
"""

from __future__ import annotations

import itertools
import math
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.fragmentation import CenterBasedFragmenter, Fragmentation, GroundTruthFragmenter
from repro.graph import DiGraph
from repro.service.server import QueryService

import graphs
import measure
import oracle

Pair = Tuple[int, int]
Op = Tuple
Stage = Callable[[str], ContextManager]
Tick = Callable[[], None]

OUT_DIR = Path(__file__).resolve().parent / "out"

# Every run of a workload uses the same graph; ``--seed`` draws the ops.  The
# cost of a query depends on where the few border nodes of each cluster fall,
# so graphs from different seeds differ by 10-50 % in latency — the ten-seed
# spread the benchmark's acceptance rule takes would then measure the
# generator, not the program.
GRAPH_SEED = 1993

ZIPF_EXPONENT = 1.1
BATCH_SIZE_HOT = 32
BATCH_SIZE_POOL = 8


def no_stage(name: str) -> ContextManager:
    """The untraced run's stage marker: times nothing."""
    return nullcontext()


def no_tick() -> None:
    """The traced run's tick: set-up is not calibrated from inside there."""


class Failure:
    """The result of an op that raised; kept in the log instead of an answer."""

    def __init__(self, error: BaseException) -> None:
        self.message = f"{type(error).__name__}: {error}"

    def __repr__(self) -> str:
        return f"Failure({self.message})"


# ------------------------------------------------------------------ streams


def distinct_pairs(rng: random.Random, node_count: int) -> Iterator[Pair]:
    """Uniform ``(s, t)`` pairs, ``s != t``, never repeating."""
    seen = set()
    while True:
        pair = (rng.randrange(node_count), rng.randrange(node_count))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            yield pair


FORWARD_SHARE = 0.4


def chain_pairs(
    rng: random.Random, graph: graphs.ClusteredGraph, forward_share: float = FORWARD_SHARE
) -> Iterator[Pair]:
    """Distinct uniform pairs on a one-way chain, 40 % of them pointing down it.

    Only a forward pair can be reachable, and a forward query costs 5-50x a
    backward one.  With plain uniform pairs (53 % forward) the median falls
    exactly between the two groups, where a handful of samples either way
    moves it by a third; at 40 % it sits inside the backward group, and about
    40 % of the answers are true.
    """
    per_cluster = len(graph.clusters[0])
    for a, b in distinct_pairs(rng, graph.node_count):
        low, high = (a, b) if a // per_cluster <= b // per_cluster else (b, a)
        yield (low, high) if rng.random() < forward_share else (high, low)


def zipf_draws(rng: random.Random, items: Sequence[Pair]) -> Iterator[Pair]:
    """Draw from ``items`` with probability ~ 1 / rank ** 1.1, forever."""
    cumulative = list(
        itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(items) + 1))
    )
    while True:
        yield from rng.choices(items, cum_weights=cumulative, k=4096)


# ---------------------------------------------------------------- workloads


class Workload:
    """Base class: an in-process ``QueryService`` over the ground-truth layout."""

    name = ""
    sizes: Dict[str, str] = {}  # scale -> graph name
    semiring_name = oracle.SHORTEST_PATH
    primary = "query"  # the op kind behind op_p50_ms / op_tail_ms
    tail_percent = 95
    warmup_stage = "service.cache_prewarm"  # the span the warm-up ops run under

    def __init__(self, graph: graphs.ClusteredGraph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}/ops")
        self.node_count = graph.node_count

    def fixed_pairs(self, label: str, count: int) -> List[Pair]:
        """``count`` distinct pairs that depend on the seed but not on the op stream."""
        rng = random.Random(f"{self.name}/{self.seed}/{label}")
        return list(itertools.islice(distinct_pairs(rng, self.node_count), count))

    # -- program side ------------------------------------------------------

    def semiring(self):
        if self.semiring_name == oracle.REACHABILITY:
            return reachability_semiring()
        return shortest_path_semiring()

    def load(self, stage: Stage, *, coordinates: bool = False) -> DiGraph:
        with stage("graph.load"):
            digraph = DiGraph()
            for source, target, weight in self.graph.arcs:
                digraph.add_edge(source, target, weight)
            if coordinates:
                for node, point in enumerate(self.graph.points):
                    digraph.set_coordinate(node, point)
        return digraph

    def layout(self, digraph: DiGraph, stage: Stage) -> Fragmentation:
        with stage("fragmentation.layout"):
            return GroundTruthFragmenter(self.graph.clusters).fragment(digraph)

    def service_options(self) -> Dict[str, object]:
        return {}

    def build(
        self,
        stage: Stage = no_stage,
        attach: Optional[Callable[[QueryService], Callable[[Op], object]]] = None,
        tick: Tick = no_tick,
    ) -> QueryService:
        """Edge list in memory -> a service that is ready to answer.

        ``attach`` lets the traced run answer the warm-up ops through its own
        driver instead of the service's methods.  ``tick`` is called between
        the pieces of the build (the timed run's calibrator samples there).
        """
        digraph = self.load(stage)
        tick()
        fragmentation = self.layout(digraph, stage)
        tick()
        with stage("service.build"):
            service = QueryService(
                fragmentation, semiring=self.semiring(), cache_size=1024, **self.service_options()
            )
        tick()
        with stage("disconnection.site_warm"):
            warm_sites(service, tick)
        execute = attach(service) if attach else (lambda op: self.execute(service, op))
        with stage(self.warmup_stage):
            for op in self.warmup_ops():
                execute(op)
                tick()
        return service

    def warmup_ops(self) -> Sequence[Op]:
        """Ops answered at the end of set-up (cache pre-warm, the pool's first batch).

        By default two queries across the whole cluster sequence, one each
        way: they touch every fragment, so whatever a kernel builds lazily on
        first use (shape probe, chain index, packed matrix) exists before the
        clock starts.
        """
        far = self.node_count // 2 if self.graph.name.startswith("ring") else self.node_count - 1
        return [("query", 0, far), ("query", far, 0)]

    def dispose(self, service: QueryService) -> None:
        service.close()

    def execute(self, service: QueryService, op: Op) -> object:
        return execute_on_service(service, op)

    # -- stream side -------------------------------------------------------

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


def prewarm_batches(pairs: Sequence[Pair]) -> List[Op]:
    """``query_batch`` ops of 32 that put every one of ``pairs`` in the cache."""
    return [
        ("batch", tuple(pairs[start : start + BATCH_SIZE_HOT]))
        for start in range(0, len(pairs), BATCH_SIZE_HOT)
    ]


def warm_sites(service: QueryService, tick: Tick = no_tick) -> None:
    """Force every site's compact form and iteration estimate (lazy otherwise)."""
    for site in service.engine().catalog.sites():
        site.compact()
        site.local_iterations()
        tick()


def execute_on_service(service: QueryService, op: Op) -> object:
    kind = op[0]
    if kind == "query" or kind == "raw":
        return service.query(op[1], op[2]).value
    if kind == "batch":
        answers = service.query_batch(op[1])
        for answer in answers:
            if answer.error is not None:
                raise RuntimeError(f"batch answer {answer.source}->{answer.target}: {answer.error}")
        return [answer.value for answer in answers]
    if kind == "write":
        _, write_kind, source, target, weight, symmetric = op
        service.update_edge(
            source, target, weight, delete=write_kind == "delete", symmetric=symmetric
        )
        return None
    raise ValueError(f"unknown op kind {kind!r}")


class SpCold(Workload):
    """op = query, tail = p95. Distinct uniform shortest-path pairs, 2 chains, 0 % hits:
    planner, LocalQueryEvaluator, array_dijkstra, assembly carry the cost; cache and IPC
    idle
    """

    name = "sp-cold"
    sizes = {"gate": "ring-16x300-sym", "tiny": "ring-4x30-sym"}

    def ops(self) -> Iterator[Op]:
        for source, target in distinct_pairs(self.rng, self.node_count):
            yield ("query", source, target)


class ReachCold(SpCold):
    """op = query, tail = p95. Distinct uniform reachability pairs on a one-way chain:
    reachability_rows / select_kernel backends carry the cost; sp-cold is its control
    """

    name = "reach-cold"
    sizes = {"gate": "chain-16x300-dir", "tiny": "chain-4x30-dir"}
    semiring_name = oracle.REACHABILITY

    def ops(self) -> Iterator[Op]:
        for source, target in chain_pairs(self.rng, self.graph):
            yield ("query", source, target)


class HotBatch(Workload):
    """op = query, tail = p95. 800 pre-warmed pairs, Zipf 1.1, 3 query + 1 query_batch(32):
    LRUCache, CacheKey, BatchPlanner dedup, stats, tracer, query log; kernels idle
    """

    name = "hot-batch"
    sizes = {"gate": "ring-16x150-sym", "tiny": "ring-4x30-sym"}
    universe_size = 800

    def __init__(self, graph: graphs.ClusteredGraph, seed: int) -> None:
        super().__init__(graph, seed)
        self.universe = self.fixed_pairs("universe", min(self.universe_size, self.node_count))

    def warmup_ops(self) -> Sequence[Op]:
        return prewarm_batches(self.universe)

    def ops(self) -> Iterator[Op]:
        draws = zipf_draws(self.rng, self.universe)
        while True:
            for _ in range(3):
                yield ("query", *next(draws))
            yield ("batch", tuple(itertools.islice(draws, BATCH_SIZE_HOT)))


class WriteMixed(Workload):
    """op = hot-set query, tail = p95. Rounds of 1 update_edge, 1 read from the written
    node, 3 Zipf reads: overlay splice, complementary repair, site re-derivation, cache
    eviction
    """

    name = "write-mixed"
    sizes = {"gate": "ring-16x150-sym", "tiny": "ring-4x30-sym"}
    hot_set_size = 200

    def __init__(self, graph: graphs.ClusteredGraph, seed: int) -> None:
        super().__init__(graph, seed)
        self.hot_set = self.fixed_pairs("hot-set", min(self.hot_set_size, self.node_count))

    def warmup_ops(self) -> Sequence[Op]:
        return prewarm_batches(self.hot_set)

    def ops(self) -> Iterator[Op]:
        rng = self.rng
        graph = self.graph
        points = graph.points
        per_cluster = len(graph.clusters[0])
        cluster_count = len(graph.clusters)
        present = {(a, b) for a, b, _ in graph.arcs}
        borders = sorted({node for pair in graph.connecting for node in pair})
        # Reweights pick from the original intra-cluster edges; deletes only
        # ever remove what this stream inserted, so every cluster stays
        # connected and no query comes to depend on a path around the ring.
        originals = sorted(
            (a, b) for a, b in present if a // per_cluster == b // per_cluster
        )
        inserted: List[Pair] = []
        hot = zipf_draws(rng, self.hot_set)
        while True:
            at_border = rng.random() < 0.2
            roll = rng.random()
            kind = "insert" if roll < 0.4 else "reweight" if roll < 0.8 else "delete"
            if kind == "delete" and not inserted:
                kind = "insert"
            if kind == "insert":
                while True:
                    a = rng.choice(borders) if at_border else rng.randrange(self.node_count)
                    b = (a // per_cluster) * per_cluster + rng.randrange(per_cluster)
                    if a != b and (a, b) not in present and (b, a) not in present:
                        break
                present.update(((a, b), (b, a)))
                inserted.append((a, b))
                weight = math.dist(points[a], points[b]) * rng.uniform(1.0, 1.5)
                symmetric = True
            elif kind == "reweight":
                a, b = rng.choice(graph.connecting) if at_border else rng.choice(originals)
                weight = math.dist(points[a], points[b]) * rng.uniform(1.0, 2.0)
                symmetric = False  # update_edge reweights the one direction named
            else:
                a, b = inserted.pop(rng.randrange(len(inserted)))
                present.difference_update(((a, b), (b, a)))
                weight = 0.0
                symmetric = True
            yield ("write", kind, a, b, weight, symmetric)
            far_cluster = (a // per_cluster + cluster_count // 2) % cluster_count
            yield ("raw", a, far_cluster * per_cluster + rng.randrange(per_cluster))
            for _ in range(3):
                yield ("query", *next(hot))


class PoolBatch(Workload):
    """op = query_batch(8), tail = p90. Distinct uniform pairs via QueryService(workers=2,
    cost_balanced): sp-cold's kernels behind owner routing, task queues, pickling
    """

    name = "pool-batch"
    sizes = {"gate": "ring-16x250-sym", "tiny": "ring-4x30-sym"}
    primary = "batch"
    tail_percent = 90

    warmup_stage = "service.pool_start"

    def service_options(self) -> Dict[str, object]:
        return {"workers": 2, "placement": "cost_balanced"}

    def warmup_ops(self) -> Sequence[Op]:
        return [("batch", tuple(self.fixed_pairs("first-batch", BATCH_SIZE_POOL)))]

    def ops(self) -> Iterator[Op]:
        pairs = distinct_pairs(self.rng, self.node_count)
        while True:
            yield ("batch", tuple(itertools.islice(pairs, BATCH_SIZE_POOL)))


class Prepare(Workload):
    """op = one preparation pass (center-based fragmenter, service build, site warm,
    snapshot, restore, 1 query), tail = p75. Only workload where repro.fragmentation
    does the work
    """

    name = "prepare"
    sizes = {"gate": "ring-8x80-sym", "tiny": "ring-4x30-sym"}
    primary = "prepare"
    tail_percent = 75  # ~20 passes fit in a run: 5 samples beyond, not the usual 10
    last_service: Optional[QueryService] = None  # of the newest pass (the traced run probes it)

    def build(self, stage: Stage = no_stage, tick: Tick = no_tick) -> DiGraph:
        """Set-up is the ``DiGraph`` load alone; everything else is the op."""
        return self.load(stage, coordinates=True)

    def dispose(self, digraph: DiGraph) -> None:
        pass

    def execute(self, digraph: DiGraph, op: Op, stage: Stage = no_stage) -> object:
        _, source, target = op
        snapshot_dir = OUT_DIR / f"prepare-{self.seed}.snapshot"
        with stage("fragmentation.center"):
            fragmentation = CenterBasedFragmenter(
                len(self.graph.clusters), center_selection="distributed", seed=self.seed
            ).fragment(digraph)
        try:
            with stage("service.build"):
                service = self.last_service = QueryService(fragmentation)
            with stage("disconnection.site_warm"):
                warm_sites(service)
            with stage("service.snapshot_save"):
                service.snapshot(snapshot_dir)
            with stage("service.snapshot_load"):
                restored = QueryService.from_snapshot(snapshot_dir)
            with stage("op.query"):
                return restored.query(source, target).value
        finally:
            shutil.rmtree(snapshot_dir, ignore_errors=True)

    def ops(self) -> Iterator[Op]:
        for source, target in distinct_pairs(self.rng, self.node_count):
            yield ("prepare", source, target)


# --------------------------------------------------------------- closed loop


@dataclass
class StreamLog:
    """What one pass over an op stream recorded."""

    ops: List[Op] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # at reference speed when calibrated
    raw_latencies: List[float] = field(default_factory=list)  # wall clock
    results: List[object] = field(default_factory=list)
    wall_seconds: float = 0.0

    def failures(self) -> List[Failure]:
        return [result for result in self.results if isinstance(result, Failure)]

    def answered(self) -> List[Tuple[Op, object]]:
        """``(op, result)`` of the ops that returned, in issue order."""
        return [
            (op, result)
            for op, result in zip(self.ops, self.results)
            if not isinstance(result, Failure)
        ]

    def latencies_of(self, kind: str, *, raw: bool = False) -> List[float]:
        return [
            latency
            for op, latency, result in zip(
                self.ops, self.raw_latencies if raw else self.latencies, self.results
            )
            if op[0] == kind and not isinstance(result, Failure)
        ]


def units_of(op: Op) -> int:
    """How many answered pairs (or applied writes) one op stands for."""
    return len(op[1]) if op[0] == "batch" else 1


def run_closed_loop(
    execute: Callable[[Op], object],
    ops: Iterator[Op],
    *,
    seconds: float,
    max_ops: Optional[int] = None,
    calibrator: Optional[measure.Calibrator] = None,
) -> StreamLog:
    """One caller: the next op is issued when the previous one has returned.

    Runs until ``seconds`` have passed (the op in flight finishes) or
    ``max_ops`` ops were issued.  An op that raises is logged as a
    :class:`Failure` and the loop goes on.  With a ``calibrator``, kernel
    samples are interleaved between ops and ``log.latencies`` come out at
    reference speed (see ``measure.py``); ``log.raw_latencies`` stay wall clock.
    """
    log = StreamLog()
    if calibrator is not None:
        calibrator.burst()
    started = perf_counter()
    deadline = started + seconds
    for op in ops:
        before = perf_counter()
        try:
            result = execute(op)
        except Exception as error:  # the loop must survive; the failure is reported
            result = Failure(error)
        after = perf_counter()
        log.ops.append(op)
        log.starts.append(before)
        log.raw_latencies.append(after - before)
        log.results.append(result)
        if calibrator is not None:
            calibrator.after_op(after, after - before)
        if after >= deadline or (max_ops is not None and len(log.ops) >= max_ops):
            break
    log.wall_seconds = perf_counter() - started
    if calibrator is None:
        log.latencies = log.raw_latencies
    else:
        calibrator.burst()
        log.latencies = [
            latency / calibrator.factor(start, start + latency)
            for start, latency in zip(log.starts, log.raw_latencies)
        ]
    return log


def sample_of(seed: int, *, everything: bool) -> Callable[[int], bool]:
    """The oracle's sample: reads whose source falls in one of ten buckets."""
    if everything:
        return lambda source: True
    bucket = seed % 10
    return lambda source: source % 10 == bucket


IN_PROCESS = {cls.name: cls for cls in (Prepare, SpCold, ReachCold, HotBatch, WriteMixed, PoolBatch)}
