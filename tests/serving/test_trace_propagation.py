"""End-to-end trace propagation through the network serving tier.

The acceptance shape for the observability PR: a query served over the
NDJSON protocol — preempted, suspended, and resumed across calls and even
across reconnects — yields ONE trace spanning the client command, its
admission wait, every serving quantum, and (on a placed pool) the worker
kernel spans, assembled from the per-segment records via
``Tracer.assemble``.  A second pair of runs proves the span tree is
bit-identical modulo timing.
"""

import asyncio

from repro.serving import ALL_SOURCES, ClosureServer
from repro.service import QueryService

from tests.observability.test_service_telemetry import (
    clique_line_fragmentation,
    cross_fragment_queries,
    warm_border_graph,
)
from tests.serving.test_server import (
    Client,
    make_service,
    suspend_once,
    tiny_config,
    uninterrupted_rows,
)
from tests.tracing_helpers import spans_named


async def drain_call(client, **payload):
    """One closure/resume call; returns (rows, continuation|None, trace)."""
    await client.send(**payload)
    rows, token, trace = [], None, None
    while True:
        message = await client.recv()
        assert message.get("ok"), message
        rows.extend(message.get("page") or [])
        if message.get("done"):
            trace = message["trace"]
            break
        if message.get("suspended"):
            token = message["continuation"]
            trace = message["trace"]
            break
    return rows, token, trace


def tree_shape(trace):
    """The span tree with every timing- and identity-bearing field erased.

    Spans become ``(name, parent_position, attrs)`` rows where positions
    index into the merged span list — identical runs must produce identical
    shapes even though ids and durations differ.  Attributes that embed a
    trace id (``trace_echo``) are reduced to presence markers.
    """
    position = {span.span_id: index for index, span in enumerate(trace.spans)}
    rows = []
    for span in trace.spans:
        attrs = {
            key: ("<trace>" if key == "trace_echo" else value)
            for key, value in sorted(span.attributes.items())
        }
        parent = position.get(span.parent_id)
        if parent is None and span.parent_id is not None:
            parent = "<wire>"
        rows.append((span.name, parent, tuple(attrs.items())))
    return rows


class TestPointQueryPropagation:
    def test_query_yields_one_trace_with_admission_wait(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    response = await client.rpc(op="query", args=["0", "9"])
            assert response["ok"]
            merged = service.tracer.assemble(response["trace"])
            assert merged is not None
            assert merged.root_name == "request"
            [root] = spans_named(merged, "request")
            assert root.attributes["op"] == "query"
            [wait] = spans_named(merged, "admission_wait")
            assert wait.parent_id == root.span_id
            # The service-side query span nests under the request root, so
            # the whole evaluation shares the client's trace id.
            [query_span] = spans_named(merged, "query")
            assert query_span.trace_id == merged.trace_id

        asyncio.run(scenario())

    def test_client_traceparent_is_adopted(self):
        async def scenario():
            service = make_service()
            header = f"00-{'ab' * 16}-{'cd' * 8}-01"
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    response = await client.rpc(
                        op="query", args=["0", "9"], traceparent=header
                    )
            assert response["trace"] == "ab" * 16
            merged = service.tracer.assemble("ab" * 16)
            [root] = spans_named(merged, "request")
            # The client's wire span id parents the server-side root; it
            # matches no local span, so the root stays top-level.
            assert root.parent_id == "cd" * 8
            assert merged.root_name == "request"

        asyncio.run(scenario())

    def test_malformed_traceparent_degrades_to_a_fresh_trace(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    response = await client.rpc(
                        op="query", args=["0", "9"], traceparent="garbage-header"
                    )
            assert response["ok"]
            trace_id = response["trace"]
            assert len(trace_id) == 32 and trace_id != "garbage-header"
            assert service.tracer.assemble(trace_id) is not None

        asyncio.run(scenario())

    def test_trace_id_flows_even_when_tracing_is_disabled(self):
        async def scenario():
            service = make_service(tracing=False)
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    response = await client.rpc(op="query", args=["0", "9"])
            assert response["ok"]
            # Propagation is independent of recording: the id flows so an
            # upstream collector can stitch its side, but nothing is kept.
            assert len(response["trace"]) == 32
            assert service.tracer.assemble(response["trace"]) is None

        asyncio.run(scenario())


class TestClosurePropagation:
    def _run_closure(self, service, config=None, traceparent=None):
        """Drive a whole-graph closure to completion over the network.

        Returns (rows, trace ids seen per call, number of calls).
        """

        async def scenario():
            async with ClosureServer(service, config or tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="hello", args=["alice"])
                    payload = dict(op="closure", args=[ALL_SOURCES])
                    if traceparent is not None:
                        payload["traceparent"] = traceparent
                    rows, token, trace = await drain_call(client, **payload)
                    traces, calls = [trace], 1
                    while token:
                        more, token, trace = await drain_call(
                            client, op="resume", args=[token]
                        )
                        rows.extend(more)
                        traces.append(trace)
                        calls += 1
            return rows, traces, calls

        return asyncio.run(scenario())

    def test_suspend_resume_yields_one_chained_trace(self):
        service = make_service()
        rows, traces, calls = self._run_closure(service)
        assert calls >= 3, "the whole-graph closure must actually suspend"
        assert rows == uninterrupted_rows(service)
        # Every call — the opener and each resume — reported the same trace.
        assert len(set(traces)) == 1
        merged = service.tracer.assemble(traces[0])
        assert merged is not None

        # One request-root segment per call, chained: the opener is the only
        # top-level span and each resume's root parents under the segment
        # that suspended it (the context rides the pickled saved state).
        requests = spans_named(merged, "request")
        assert len(requests) == calls
        assert requests[0].parent_id is None
        for previous, current in zip(requests, requests[1:]):
            assert current.parent_id == previous.span_id
        top_level = [span for span in merged.spans if span.parent_id is None]
        assert top_level == [requests[0]]

        # Each call paid admission and ran exactly one quantum
        # (quanta_per_call=1); every quantum parents under its call's root.
        assert len(spans_named(merged, "admission_wait")) == calls
        quanta = spans_named(merged, "serving_quantum")
        assert len(quanta) == calls
        request_ids = {span.span_id for span in requests}
        assert all(span.parent_id in request_ids for span in quanta)
        assert [span.attributes["exhausted"] for span in quanta].count(True) == 1
        assert quanta[-1].attributes["exhausted"] is True

    def test_span_tree_is_bit_identical_modulo_timing(self):
        first_service = make_service()
        first_rows, first_traces, _ = self._run_closure(first_service)
        second_service = make_service()
        second_rows, second_traces, _ = self._run_closure(second_service)
        assert first_rows == second_rows
        first = first_service.tracer.assemble(first_traces[0])
        second = second_service.tracer.assemble(second_traces[0])
        assert tree_shape(first) == tree_shape(second)

    def test_closure_adopts_the_client_traceparent(self):
        service = make_service()
        header = f"00-{'12' * 16}-{'34' * 8}-01"
        rows, traces, calls = self._run_closure(service, traceparent=header)
        assert set(traces) == {"12" * 16}
        merged = service.tracer.assemble("12" * 16)
        requests = spans_named(merged, "request")
        assert len(requests) == calls
        # The opener parents under the client's wire span (top-level in the
        # merged view); the resumes chain locally as usual.
        assert requests[0].parent_id == "34" * 8
        assert merged.root_name == "request"

    def test_disconnect_mid_stream_keeps_one_trace(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as first:
                    await first.rpc(op="hello", args=["alice"])
                    await first.send(op="closure", args=[ALL_SOURCES])
                    rows, token, trace = [], None, None
                    while token is None:
                        message = await first.recv()
                        assert message.get("ok"), message
                        rows.extend(message.get("page") or [])
                        token = message.get("continuation")
                        trace = message.get("trace", trace)
                    assert not message.get("done")
                # The connection died mid-stream; the identified client's
                # continuation (and its pickled trace context) survived.
                async with Client(*server.address) as second:
                    await second.rpc(op="hello", args=["alice"])
                    calls = 1
                    while token:
                        more, token, resumed = await drain_call(
                            second, op="resume", args=[token]
                        )
                        rows.extend(more)
                        assert resumed == trace
                        calls += 1
                return service, rows, trace, calls

            return None

        service, rows, trace, calls = asyncio.run(scenario())
        assert rows == uninterrupted_rows(service)
        merged = service.tracer.assemble(trace)
        requests = spans_named(merged, "request")
        assert len(requests) == calls
        assert [span for span in merged.spans if span.parent_id is None] == [
            requests[0]
        ]
        clients = {span.attributes["client"] for span in requests}
        assert clients == {"alice"}


class TestPlacedPoolPropagation:
    def test_worker_kernel_spans_join_the_client_trace(self):
        async def scenario():
            fragmentation = clique_line_fragmentation()
            pairs = [
                str(node)
                for pair in cross_fragment_queries()
                for node in pair
            ]
            with QueryService(
                fragmentation, placement="round_robin", workers=3
            ) as service:
                warm_border_graph(service, cross_fragment_queries())
                async with ClosureServer(service, tiny_config()) as server:
                    async with Client(*server.address) as client:
                        response = await client.rpc(op="batch", args=pairs)
                assert response["ok"], response
                trace_id = response["trace"]
                merged = service.tracer.assemble(trace_id)
                assert merged.root_name == "request"
                # The batch dispatched routed tasks to worker processes; the
                # trace id crossed the pool's task queues and came back as
                # the workers' echo on every remote evaluate span.
                ran_tasks = service._pool.last_task_workers
                assert ran_tasks, "the batch must have dispatched routed tasks"
                worker_spans = spans_named(merged, "worker_evaluate")
                assert worker_spans
                assert all(span.remote for span in worker_spans)
                assert {
                    span.attributes["trace_echo"] for span in worker_spans
                } == {trace_id}
                # Every worker kernel span parents under its worker span and
                # names the kernel backend that ran the fragment.
                kernels = spans_named(merged, "kernel")
                assert len(kernels) == len(ran_tasks)
                worker_ids = {span.span_id for span in worker_spans}
                assert all(span.parent_id in worker_ids for span in kernels)
                for span in kernels:
                    assert isinstance(span.attributes["backend"], str)
                    assert span.attributes["backend"]

        asyncio.run(scenario())
