"""The replay driver answers like the service, and its spans add up."""

from __future__ import annotations

import itertools

import pytest

import replay
import session
import workloads
from spans import SpanRecorder, instrument


def replay_and_reference(name, ops=60):
    workload = session.make_workload(name, 11, "tiny")
    recorder = SpanRecorder()
    drivers = []

    def attach(service):
        drivers.append(replay.ReplayDriver(service, recorder, pooled=name == "pool-batch"))
        return drivers[0].apply

    with instrument(recorder, replay.TARGETS):
        service = workload.build(recorder.span, attach)
        since = len(recorder)
        try:
            replayed = workloads.run_closed_loop(
                replay.replay_executor(drivers[0]), workload.ops(), seconds=60, max_ops=ops
            )
        finally:
            drivers[0].close()
            workload.dispose(service)
    reference_service = workload.build()
    try:
        reference = workloads.run_closed_loop(
            lambda op: workload.execute(reference_service, op), iter(replayed.ops), seconds=60
        )
    finally:
        workload.dispose(reference_service)
    return workload, recorder, since, replayed, reference


@pytest.mark.parametrize("name", ["sp-cold", "reach-cold", "hot-batch", "write-mixed", "pool-batch"])
def test_replay_answers_equal_service_answers(name):
    workload, _, _, replayed, reference = replay_and_reference(name)
    assert not replayed.failures() and not reference.failures()
    assert replayed.results == reference.results
    checked, mismatched = session.check_answers(workload, replayed, everything=True)
    assert checked > 0 and mismatched == 0


def test_write_stream_mixes_kinds_and_keeps_originals():
    workload = session.make_workload("write-mixed", 11, "tiny")
    writes = [op for op in itertools.islice(workload.ops(), 2000) if op[0] == "write"]
    kinds = {kind: sum(op[1] == kind for op in writes) / len(writes) for kind in ("insert", "reweight", "delete")}
    assert 0.3 < kinds["insert"] < 0.5 and 0.3 < kinds["reweight"] < 0.5 and 0.1 < kinds["delete"] < 0.3
    original = {(a, b) for a, b, _ in workload.graph.arcs}
    deleted = {(op[2], op[3]) for op in writes if op[1] == "delete"}
    assert not deleted & original, "deletes only remove what the stream inserted"


def test_span_self_times_sum_to_the_traced_wall_time():
    _, recorder, since, replayed, _ = replay_and_reference("write-mixed", ops=120)
    self_time = sum(recorder.self_times(since=since))
    wall = sum(replayed.raw_latencies)
    assert abs(self_time - wall) / wall < 0.05
    by_name = recorder.self_time_by_name(since=since)
    assert abs(sum(by_name.values()) - self_time) < 1e-9
    for layer in ("disconnection.db_update", "incremental.probe", "graph.apply_delta",
                  "service.cache_evict", "disconnection.site_rederive", "closure.dijkstra"):
        assert by_name.get(layer, 0.0) > 0.0, layer


def test_instrument_restores_the_program():
    import repro.disconnection.local_query as local_query
    from repro.graph.compact import CompactGraph

    before = (local_query.array_dijkstra, CompactGraph.__dict__["apply_delta"])
    with pytest.raises(RuntimeError):
        with instrument(SpanRecorder(), replay.TARGETS):
            assert local_query.array_dijkstra is not before[0]
            raise RuntimeError("boom")
    assert (local_query.array_dijkstra, CompactGraph.__dict__["apply_delta"]) == before


def test_trace_file_is_written(summaries):
    import json

    from workloads import OUT_DIR

    summaries("hot-batch", 1)
    with open(OUT_DIR / "hot-batch.11.trace.json", encoding="utf-8") as stream:
        document = json.load(stream)
    assert document["columns"] == ["name", "start_s", "end_s", "parent", "op"]
    names = {span[0] for span in document["spans"]}
    assert {"op.query", "op.batch", "service.cache_get", "setup"} <= names
    assert all(span[3] < index for index, span in enumerate(document["spans"]))
