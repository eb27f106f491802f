"""Serving throughput: the amortisation claim behind the whole approach.

The paper's preparation (fragmentation + complementary information) only pays
off when it is reused across many queries.  This benchmark measures exactly
that, in queries per second, for a skewed repeat-heavy workload:

* **cold engine** — the pre-service behaviour: every query rebuilds the
  engine (complementary information included) from scratch,
* **warm service** — one :class:`~repro.service.QueryService` answering the
  same stream, amortising preparation and hitting the result cache,
* **batched service** — the same stream submitted as one batch, additionally
  sharing duplicated queries and overlapping local subqueries.

Run ``python benchmarks/bench_service_throughput.py`` directly, or through
pytest (``pytest benchmarks/bench_service_throughput.py -s``).
"""

from __future__ import annotations

import random
import time

from repro.disconnection import DisconnectionSetEngine
from repro.fragmentation import CenterBasedFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.service import QueryService

try:  # pytest provides print_report when collected as part of the harness
    from .conftest import print_report
except ImportError:  # direct `python benchmarks/bench_service_throughput.py` run
    def print_report(title: str, body: str) -> None:
        separator = "=" * max(len(title), 20)
        print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


REPEATED_QUERIES = 60
DISTINCT_QUERIES = 12


def build_workload():
    """Return (fragmentation, queries): a skewed stream over a 4-cluster network."""
    config = TransportationGraphConfig(
        cluster_count=4,
        nodes_per_cluster=12,
        cluster_c1=520.0,
        cluster_c2=0.04,
        inter_cluster_edges=2,
    )
    network = generate_transportation_graph(config, seed=23)
    fragmentation = CenterBasedFragmenter(4, center_selection="distributed").fragment(
        network.graph
    )
    distinct = cross_cluster_queries(
        network.clusters, DISTINCT_QUERIES, seed=5, minimum_cluster_distance=2
    )
    # Zipf-ish skew: a few hot queries dominate, as in a serving workload.
    rng = random.Random(77)
    stream = [distinct[min(rng.randrange(len(distinct)), rng.randrange(len(distinct)))]
              for _ in range(REPEATED_QUERIES)]
    return fragmentation, [(query.source, query.target) for query in stream]


def run_cold(fragmentation, queries):
    """Rebuild the engine per query (the pre-service, one-shot behaviour)."""
    started = time.perf_counter()
    values = []
    for source, target in queries:
        engine = DisconnectionSetEngine(fragmentation)
        values.append(engine.query(source, target).value)
    return values, time.perf_counter() - started


def run_warm(fragmentation, queries):
    """One resident service answering the stream query by query."""
    service = QueryService(fragmentation)
    started = time.perf_counter()
    values = [service.query(source, target).value for source, target in queries]
    return values, time.perf_counter() - started, service


def run_batched(fragmentation, queries):
    """One resident service answering the stream as a single batch."""
    service = QueryService(fragmentation)
    started = time.perf_counter()
    values = [answer.value for answer in service.query_batch(queries)]
    return values, time.perf_counter() - started, service


def run_throughput_comparison():
    fragmentation, queries = build_workload()
    cold_values, cold_time = run_cold(fragmentation, queries)
    warm_values, warm_time, warm_service = run_warm(fragmentation, queries)
    batch_values, batch_time, batch_service = run_batched(fragmentation, queries)

    assert warm_values == cold_values, "warm service must return the cold engine's answers"
    assert batch_values == cold_values, "batched service must return the cold engine's answers"

    count = len(queries)
    rows = [
        ("cold engine (rebuild per query)", cold_time, count / cold_time),
        ("warm service (cached)", warm_time, count / warm_time),
        ("batched service", batch_time, count / batch_time),
    ]
    lines = [f"{count} queries ({DISTINCT_QUERIES} distinct) over "
             f"{fragmentation.fragment_count()} fragments", ""]
    lines.append(f"{'mode':<34} {'seconds':>9} {'queries/sec':>12}")
    for label, seconds, qps in rows:
        lines.append(f"{label:<34} {seconds:>9.4f} {qps:>12.1f}")
    warm_stats = warm_service.stats
    batch_stats = batch_service.stats
    lines.append("")
    lines.append(
        f"warm service: hit rate {warm_stats.hit_rate():.2f}, "
        f"{warm_stats.local_evaluations.value():.0f} local evaluations"
    )
    lines.append(
        f"batched service: {batch_stats.duplicate_queries_saved.value():.0f} duplicates deduped, "
        f"{batch_stats.shared_subqueries_saved.value():.0f} shared subqueries saved"
    )
    print_report("Service throughput: cold engine vs warm service vs batched service", "\n".join(lines))
    return {
        "cold_qps": count / cold_time,
        "warm_qps": count / warm_time,
        "batch_qps": count / batch_time,
        "warm_hit_rate": warm_stats.hit_rate(),
        "batch_shared_subqueries": int(batch_stats.shared_subqueries_saved.value()),
        "batch_duplicates": int(batch_stats.duplicate_queries_saved.value()),
    }


def test_service_throughput_report():
    """Warm and batched serving must beat rebuilding the engine per query."""
    figures = run_throughput_comparison()
    assert figures["warm_qps"] > figures["cold_qps"]
    assert figures["batch_qps"] > figures["cold_qps"]
    assert figures["warm_hit_rate"] > 0.5
    assert figures["batch_duplicates"] > 0
    assert figures["batch_shared_subqueries"] > 0


if __name__ == "__main__":
    run_throughput_comparison()
