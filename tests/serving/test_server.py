"""Tests for the network serving tier: streaming, continuations, fairness.

These are the concurrency-edge tests the subsystem exists to pass:

* a client disconnecting mid-stream frees its quantum slot and saved state,
* a pickled suspension resumed over a *new* connection produces rows
  bit-identical to an uninterrupted run,
* an update interleaved with a suspended query invalidates its continuation
  token cleanly (stale rejection, never mixed-version rows),
* saturation answers reject-with-retry-after, and queued requests are
  promoted when slots free up.

Each test drives a real ``ClosureServer`` on an ephemeral loopback port via
``asyncio.run`` (the suite does not depend on an asyncio pytest plugin).
"""

import asyncio
import json

import pytest

from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph.compact import CompactGraph
from repro.serving import (
    ALL_SOURCES,
    AdmissionConfig,
    ClosureServer,
    PreemptableClosureIterator,
    ServingConfig,
)
from repro.service import QueryService
from repro.serving.admission import HEAVY_COST


def make_service(**options):
    graph = two_cluster_dumbbell(5, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter(
        [set(range(5)), set(range(5, 10))]
    ).fragment(graph)
    return QueryService(fragmentation, **options)


def open_admission(**overrides):
    defaults = dict(client_rate=1e6, client_burst=1e6)
    defaults.update(overrides)
    return AdmissionConfig(**defaults)


def tiny_config(**overrides):
    defaults = dict(
        quantum_seconds=0.005,
        page_size=4,
        quanta_per_call=1,
        admission=open_admission(),
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class Client:
    """A minimal NDJSON client for one connection."""

    def __init__(self, host, port):
        self._host, self._port = host, port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(self._host, self._port)
        return self

    async def __aexit__(self, *exc_info):
        await self.close()

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.writer = None

    async def send(self, **payload):
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def rpc(self, **payload):
        await self.send(**payload)
        return await self.recv()

    async def drain_closure(self, **payload):
        """Issue one closure/resume call; returns (rows, continuation|None)."""
        await self.send(**payload)
        rows, token = [], None
        while True:
            message = await self.recv()
            assert message.get("ok"), message
            rows.extend(message.get("page") or [])
            if message.get("done"):
                break
            if message.get("suspended"):
                token = message["continuation"]
                break
        return rows, token

    async def run_closure_to_completion(self, source=ALL_SOURCES):
        rows, token = await self.drain_closure(op="closure", args=[source])
        while token:
            more, token = await self.drain_closure(op="resume", args=[token])
            rows.extend(more)
        return rows


def uninterrupted_rows(service):
    iterator = PreemptableClosureIterator(
        CompactGraph.from_digraph(service.database.graph),
        ALL_SOURCES,
        kind=service.semiring.name,
        catalog_version=service.catalog_version,
    )
    rows = []
    while not iterator.exhausted:
        rows.extend(iterator.run_quantum(float("inf")).rows)
    return [list(row) for row in rows]


async def suspend_once(client):
    """Start a whole-graph closure and read just past its first suspension."""
    rows, token = await client.drain_closure(op="closure", args=[ALL_SOURCES])
    assert token is not None, "whole-graph closure finished before suspending"
    return rows, token


class TestStreaming:
    def test_point_query_round_trips(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    response = await client.rpc(op="query", args=["0", "9"], id="q1")
                    assert response["ok"]
                    assert response["id"] == "q1"
                    assert response["answer"]["value"] == pytest.approx(
                        service.query(0, 9).value
                    )

        asyncio.run(scenario())

    def test_suspended_closure_resumes_bit_identically(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    rows = await client.run_closure_to_completion()
                assert rows == uninterrupted_rows(service)

        asyncio.run(scenario())

    def test_resume_works_across_a_reconnect(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as first:
                    await first.rpc(op="hello", args=["alice"])
                    head, token = await suspend_once(first)
                # A *new* connection under the same identity picks the
                # continuation up; the identified client's state survived
                # the disconnect.
                async with Client(*server.address) as second:
                    await second.rpc(op="hello", args=["alice"])
                    rows, token = await second.drain_closure(
                        op="resume", args=[token]
                    )
                    head.extend(rows)
                    while token:
                        more, token = await second.drain_closure(
                            op="resume", args=[token]
                        )
                        head.extend(more)
                assert head == uninterrupted_rows(service)

        asyncio.run(scenario())

    def test_bad_json_and_unknown_ops_keep_the_connection_alive(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    client.writer.write(b"this is not json\n")
                    await client.writer.drain()
                    assert "bad JSON" in (await client.recv())["error"]
                    response = await client.rpc(op="launch-missiles")
                    assert "unrecognised command" in response["error"]
                    assert (await client.rpc(op="ping"))["pong"]

        asyncio.run(scenario())


class TestPreemption:
    def test_point_query_is_answered_before_a_streaming_closure_finishes(self):
        # The serving tier's one promise: a whole-graph closure occupies the
        # loop for one quantum at a time, so a point query arriving on
        # another connection is answered while the closure still has quanta
        # left to run — never after its done / suspended line.
        async def scenario():
            graph = two_cluster_dumbbell(20, bridge_nodes=2)
            service = QueryService(
                GroundTruthFragmenter([set(range(20)), set(range(20, 40))]).fragment(graph)
            )
            config = tiny_config(quantum_seconds=0.005, page_size=4, quanta_per_call=100_000)
            quanta = service.registry.counter("repro_serving_quanta_total")
            async with ClosureServer(service, config) as server:
                async with Client(*server.address) as heavy, Client(
                    *server.address
                ) as light:
                    await heavy.send(op="closure", args=[ALL_SOURCES])
                    assert (await heavy.recv()).get("page"), "the closure is streaming"
                    answer = await light.rpc(op="query", args=["0", "39"])
                    assert answer["ok"]
                    quanta_when_answered = quanta.value()
                    assert server.admission.active == 1, "the closure still holds its slot"
                    while True:
                        message = await heavy.recv()
                        if message.get("done") or message.get("suspended"):
                            break
                    assert message.get("done"), message
                    # 1 600 rows in pages of 4: hundreds of quanta ran after
                    # the point query had its answer.
                    assert quanta.value() - quanta_when_answered > 100

        asyncio.run(scenario())


class TestDisconnects:
    def test_disconnect_frees_slot_and_saved_state(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                client = Client(*server.address)
                await client.__aenter__()
                _, token = await suspend_once(client)
                assert len(server.continuations) == 1
                # Drop the (anonymous) connection mid-conversation.
                await client.close()
                # Let the server's connection handler observe the EOF.
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if len(server.continuations) == 0:
                        break
                assert len(server.continuations) == 0
                assert server.admission.active == 0
                # The token is gone for everyone, on any connection.
                async with Client(*server.address) as probe:
                    response = await probe.rpc(op="resume", args=[token])
                    assert not response["ok"]
                    assert "unknown continuation token" in response["error"]

        asyncio.run(scenario())

    def test_identified_clients_states_survive_their_connection(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                client = Client(*server.address)
                await client.__aenter__()
                await client.rpc(op="hello", args=["alice"])
                await suspend_once(client)
                await client.close()
                await asyncio.sleep(0.05)
                assert len(server.continuations) == 1

        asyncio.run(scenario())


class TestConsistency:
    def test_interleaved_update_invalidates_the_continuation(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    _, token = await suspend_once(client)
                    version_before = service.catalog_version
                    updated = await client.rpc(op="update", args=["0", "9", "3.5"])
                    assert updated["ok"]
                    assert updated["version"] != version_before
                    response = await client.rpc(op="resume", args=[token])
                    assert not response["ok"]
                    assert response.get("stale") is True
                    assert "stale" in response["error"]
                    # The rejected state was consumed; a retry is cleanly
                    # "unknown", never a mixed-version answer.
                    retry = await client.rpc(op="resume", args=[token])
                    assert "unknown continuation token" in retry["error"]
                    # Re-issuing evaluates against the new catalog version.
                    rows = await client.run_closure_to_completion()
                    assert rows == uninterrupted_rows(service)

        asyncio.run(scenario())

    def test_cancel_discards_a_parked_state(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    _, token = await suspend_once(client)
                    assert (await client.rpc(op="cancel", args=[token]))["cancelled"]
                    assert len(server.continuations) == 0

        asyncio.run(scenario())


class TestAdmission:
    def test_saturation_rejects_with_retry_after(self):
        async def scenario():
            service = make_service()
            config = tiny_config(
                quantum_seconds=0.05,
                quanta_per_call=1000,
                admission=open_admission(max_concurrent=1, max_queue=0),
            )
            async with ClosureServer(service, config) as server:
                async with Client(*server.address) as heavy, Client(
                    *server.address
                ) as light:
                    await heavy.send(op="closure", args=[ALL_SOURCES])
                    # Wait for proof the slot is held (first streamed page).
                    first = await heavy.recv()
                    assert first.get("page")
                    response = await light.rpc(op="query", args=["0", "9"])
                    assert response.get("rejected")
                    assert response["reason"] == "queue_full"
                    assert response["retry_after"] > 0
                    # Drain the heavy stream; afterwards the light client
                    # is admitted again.
                    while True:
                        message = await heavy.recv()
                        if message.get("done") or message.get("suspended"):
                            break
                    assert (await light.rpc(op="query", args=["0", "9"]))["ok"]

        asyncio.run(scenario())

    def test_queued_request_is_promoted_when_the_slot_frees(self):
        async def scenario():
            service = make_service()
            config = tiny_config(
                quantum_seconds=0.02,
                quanta_per_call=2,
                admission=open_admission(max_concurrent=1, max_queue=4),
            )
            async with ClosureServer(service, config) as server:
                async with Client(*server.address) as heavy, Client(
                    *server.address
                ) as light:
                    await heavy.send(op="closure", args=[ALL_SOURCES])
                    first = await heavy.recv()
                    assert first.get("page")
                    # The point query queues behind the closure, then runs.
                    answer = await light.rpc(op="query", args=["0", "9"])
                    assert answer["ok"]
                    while True:
                        message = await heavy.recv()
                        if message.get("done") or message.get("suspended"):
                            break

        asyncio.run(scenario())

    def test_per_client_rate_limit_rejects_the_hog_only(self):
        async def scenario():
            service = make_service()
            config = tiny_config(
                admission=AdmissionConfig(client_rate=0.001, client_burst=HEAVY_COST)
            )
            async with ClosureServer(service, config) as server:
                async with Client(*server.address) as hog, Client(
                    *server.address
                ) as polite:
                    await hog.rpc(op="hello", args=["hog"])
                    await polite.rpc(op="hello", args=["polite"])
                    _, token = await suspend_once(hog)  # drains the burst
                    response = await hog.rpc(op="resume", args=[token])
                    assert response.get("rejected")
                    assert response["reason"] == "rate_limited"
                    assert response["retry_after"] > 0
                    assert (await polite.rpc(op="query", args=["0", "9"]))["ok"]

        asyncio.run(scenario())


class TestBackgroundRefragmentation:
    def test_background_cadence_keeps_assessment_off_the_update_path(self):
        service = make_service(auto_refragment=True, refragment_cadence="background")
        checks_before = service._updates_at_last_check
        for i in range(80):
            service.update_edge(0, 5 + (i % 5), 1.0 + i)
        # The update hot path never moved the assessment watermark.
        assert service._updates_at_last_check == checks_before
        outcome = service.auto_refragment_now()
        assert outcome in ("not_triggered", "rejected", "redrawn", "backoff")
        # With no further updates the next idle check is a cheap no-op.
        assert service.auto_refragment_now() in ("unchanged", "backoff")

    def test_auto_refragment_now_without_advisor_is_disabled(self):
        assert make_service().auto_refragment_now() == "disabled"

    def test_idle_task_assesses_between_requests(self):
        async def scenario():
            service = make_service(
                auto_refragment=True, refragment_cadence="background"
            )
            config = tiny_config(idle_assess_seconds=0.02)
            async with ClosureServer(service, config) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="update", args=["0", "7", "2.0"])
                deadline = asyncio.get_running_loop().time() + 2.0
                counter = service.registry.counter(
                    "repro_serving_idle_assessments_total", labelnames=("outcome",)
                )
                while asyncio.get_running_loop().time() < deadline:
                    await asyncio.sleep(0.02)
                    total = sum(counter.series().values())
                    if total > 0:
                        return
                raise AssertionError("the idle task never ran an assessment")

        asyncio.run(scenario())


class TestStats:
    def test_stats_expose_serving_counters_and_live_depths(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    await client.rpc(op="query", args=["0", "9"])
                    await client.run_closure_to_completion()
                    stats = await client.rpc(op="stats")
                    serving = stats["serving"]
                    assert serving["active_requests"] == 0
                    assert serving["queue_depth"] == 0
                    assert serving["clients"]["alice"]["admitted"] >= 2
                    assert "queue_depth" in stats["stats"]
                    prometheus = (await client.rpc(op="stats", args=["prometheus"]))[
                        "prometheus"
                    ]
                    for metric in (
                        "repro_serving_requests_total",
                        "repro_serving_quanta_total",
                        "repro_serving_quantum_seconds",
                        "repro_serving_queue_depth",
                        "repro_serving_client_requests_total",
                        "repro_queue_depth ",
                    ):
                        assert metric in prometheus, metric

        asyncio.run(scenario())

    def test_quantum_spans_are_traced(self):
        async def scenario():
            service = make_service(tracing=True)
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    await client.run_closure_to_completion()
            traces = service.tracer.recent()
            assert any(
                span.name == "serving_quantum"
                for trace in traces
                for span in trace.spans
            )

        asyncio.run(scenario())
