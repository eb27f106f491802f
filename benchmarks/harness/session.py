"""The untraced run of an in-process workload: the end-to-end metrics.

Set-up repeated and timed, the op stream through the real ``QueryService``
for ``--seconds``, then (with the clock stopped) the oracle check of a 10 %
sample of the answers.  The traced run is in ``tracing.py``, ``net-closure``
in ``netload.py``.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

import graphs
import measure
import oracle
import workloads
from workloads import StreamLog, Workload

Metric = Tuple[float, str]  # value, unit

# Latency families of the full report: (prefix, op kind, tail percentile).
FAMILIES = (
    ("read", "query", 95), ("batch", "batch", 90), ("write", "write", 90), ("raw_read", "raw", None)
)


def make_workload(name: str, seed: int, scale: str) -> Workload:
    cls = workloads.IN_PROCESS[name]
    return cls(graphs.generate(cls.sizes[scale], workloads.GRAPH_SEED), seed)


def check_answers(workload: Workload, log: StreamLog, *, everything: bool) -> Tuple[int, int]:
    """Oracle check after the clock stopped; returns ``(checked, mismatched)``."""
    entries = [
        (("query", op[1], op[2]) if op[0] == "prepare" else op, result)
        for op, result in log.answered()
    ]
    return oracle.check_log(
        workload.graph.arcs,
        workload.semiring_name,
        entries,
        workloads.sample_of(workload.seed, everything=everything),
    )


def end_to_end(
    workload: Workload,
    log: StreamLog,
    setup_seconds: List[Tuple[float, float]],
    calibrator: measure.Calibrator,
) -> Tuple[Dict[str, Metric], Dict[str, Metric]]:
    """The contract's end-to-end metrics and the fuller per-op-kind report.

    Timings in the contract metrics (and the per-kind latencies below them)
    are at reference speed; the ``raw_*`` rows are wall clock.
    """
    units = sum(workloads.units_of(op) for op, _ in log.answered())
    primary = log.latencies_of(workload.primary)
    raw_primary = log.latencies_of(workload.primary, raw=True)
    contract = {
        "setup_s": (measure.median([normal for _, normal in setup_seconds]), "s"),
        "throughput_ops_s": (units / sum(log.latencies), "1/s"),
        "op_p50_ms": (measure.median(primary) * 1e3, "ms"),
        "op_tail_ms": (measure.steady_tail(primary, workload.tail_percent) * 1e3, "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    report: Dict[str, Metric] = {
        "machine_speed": (calibrator.speed(), "ratio"),
        "raw_setup_s": (measure.median([raw for raw, _ in setup_seconds]), "s"),
        "raw_throughput_ops_s": (units / log.wall_seconds, "1/s"),
        "raw_op_p50_ms": (measure.median(raw_primary) * 1e3, "ms"),
        "raw_op_tail_ms": (measure.steady_tail(raw_primary, workload.tail_percent) * 1e3, "ms"),
        "setup_runs": (float(len(setup_seconds)), "count"),
        "measured_s": (log.wall_seconds, "s"),
        "op_samples": (float(len(primary)), "count"),
    }
    if workload.primary == "prepare":
        report["prepare_s"] = (measure.median(primary), "s")
    for prefix, kind, tail in FAMILIES:
        samples = log.latencies_of(kind)
        if samples:
            report[f"{prefix}_samples"] = (float(len(samples)), "count")
            report[f"{prefix}_p50_ms"] = (measure.median(samples) * 1e3, "ms")
            if tail is not None and measure.supported(len(samples), tail):
                report[f"{prefix}_p{tail}_ms"] = (measure.percentile(samples, tail) * 1e3, "ms")
    return contract, report


def run_untraced(name: str, seed: int, seconds: float, scale: str) -> Dict[str, object]:
    workload = make_workload(name, seed, scale)
    calibrator = measure.Calibrator()
    waited = measure.wait_for_quiet()
    program, setup_seconds = measure.repeat_setup(workload.build, workload.dispose, calibrator)
    try:
        gc.collect()
        waited += measure.wait_for_quiet()
        _, jiffies = measure.stolen_share()
        log = workloads.run_closed_loop(
            lambda op: workload.execute(program, op),
            workload.ops(),
            seconds=seconds,
            calibrator=calibrator,
        )
        stolen, _ = measure.stolen_share(jiffies)
    finally:
        workload.dispose(program)
    # Read the high-water mark before the oracle allocates its own tables.
    contract, report = end_to_end(workload, log, setup_seconds, calibrator)
    report["stolen_cpu_share"] = (stolen, "ratio")
    report["quiet_wait_s"] = (waited, "s")
    checked, mismatched = check_answers(workload, log, everything=name == "prepare")
    failures = log.failures()
    attempted = sum(workloads.units_of(op) for op in log.ops)
    report["oracle_checked"] = (float(checked), "count")
    return {
        "graph": workload.graph.name,
        "nodes": workload.graph.node_count,
        "arcs": len(workload.graph.arcs),
        "attempted": attempted,
        "failed": sum(workloads.units_of(op) for op, r in zip(log.ops, log.results)
                      if isinstance(r, workloads.Failure)) + mismatched,
        "failure_messages": sorted({failure.message for failure in failures})[:5],
        "metrics": contract,
        "report": report,
    }
