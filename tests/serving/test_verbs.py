"""One verb table behind both front-ends: parity, coverage, and the three
answers the two hand-written dispatchers used to disagree on.

``repro serve`` and ``ClosureServer`` parse through one grammar and execute
through :func:`repro.serving.execute`; these tests hold the two surfaces to
that — the same request, spelled as a stdin line or as a JSON object, yields
the same document, and a verb cannot be offered on one surface only.
"""

import asyncio
import io

import pytest

from repro.cli import main, render
from repro.observability import SLOMonitor, default_slos
from repro.serving import (
    HANDLERS,
    ClosureServer,
    ProtocolError,
    commands_for,
    execute,
    parse_json_request,
    parse_line,
)
from repro.service import QueryService

from tests.observability.test_service_telemetry import clique_line_fragmentation
from tests.serving.test_server import Client, make_service, tiny_config

# Every verb both surfaces offer, as (stdin line, JSON request), in the order
# the parity test runs them: two identically built services see the same
# history, one through each parser.
SHARED_VERBS = [
    ("query 0 11", {"op": "query", "args": [0, "11"]}),
    ("batch 0 11 1 9 0 ghost", {"op": "batch", "args": ["0", 11, 1, 9, 0, "ghost"]}),
    ("update 0 2 0.5", {"op": "update", "args": [0, 2, 0.5]}),
    ("delete 0 2", {"op": "delete", "args": [0, 2]}),
    ("stats", {"op": "stats"}),
    ("slowlog 3", {"op": "slowlog", "args": [3]}),
    ("trace off", {"op": "trace", "args": ["off"]}),
    ("healthz", {"op": "healthz"}),
    ("readyz", {"op": "readyz"}),
    ("profile", {"op": "profile"}),
    ("placement", {"op": "placement"}),
    ("migrate 0 1", {"op": "migrate", "args": ["0", 1]}),
    ("rebalance", {"op": "rebalance"}),
    ("refragment center", {"op": "refragment", "args": ["center"]}),
    ("advise", {"op": "advise"}),
]


def scrubbed(document):
    """The document with wall-clock readings and random ids blanked."""
    if isinstance(document, dict):
        return {
            key: "<volatile>"
            if key in ("slo", "trace") or "latency" in str(key)
            else scrubbed(value)
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [scrubbed(value) for value in document]
    return document


@pytest.fixture(scope="module")
def twin_services():
    with QueryService(clique_line_fragmentation(), workers=2) as by_line:
        with QueryService(clique_line_fragmentation(), workers=2) as by_json:
            yield [
                (service, SLOMonitor(service.registry, default_slos()))
                for service in (by_line, by_json)
            ]


class TestOneTable:
    @pytest.mark.parametrize("line, document", SHARED_VERBS, ids=[v[0] for v in SHARED_VERBS])
    def test_a_line_and_a_json_request_yield_the_same_document(
        self, twin_services, line, document
    ):
        (by_line, line_monitor), (by_json, json_monitor) = twin_services
        from_line = execute(by_line, parse_line(line), monitor=line_monitor, profiler=None)
        from_json = execute(
            by_json, parse_json_request(document), monitor=json_monitor, profiler=None
        )
        assert scrubbed(from_line) == scrubbed(from_json)
        # Whatever the network sends, the console can print.
        assert render(document["op"], from_json)

    def test_the_parity_cases_cover_every_shared_verb(self):
        shared = set(commands_for("console")) & set(commands_for("network"))
        assert {document["op"] for _, document in SHARED_VERBS} == shared

    def test_a_verb_cannot_be_added_to_one_surface_only(self):
        console_only_controls = {"quit", "exit"}
        streaming_and_identity = {"hello", "ping", "cancel", "closure", "resume"}
        assert set(commands_for("network")) - streaming_and_identity == (
            set(HANDLERS) - {"snapshot"}
        )
        assert set(commands_for("console")) - console_only_controls == set(HANDLERS)

    def test_a_non_service_verb_is_a_protocol_error_not_a_lookup_failure(self):
        service = make_service()
        monitor = SLOMonitor(service.registry, default_slos())
        with pytest.raises(ProtocolError, match="unrecognised command 'quit'"):
            execute(service, parse_line("quit"), monitor=monitor, profiler=None)


def serve_console(monkeypatch, capsys, tmp_path, service, script):
    """Run ``repro serve`` over a snapshot of ``service``; returns its stdout."""
    service.snapshot(tmp_path / "snapshot")
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert main(["serve", str(tmp_path / "snapshot")]) == 0
    return capsys.readouterr().out


async def network_replies(service, *requests):
    async with ClosureServer(service, tiny_config()) as server:
        async with Client(*server.address) as client:
            return [await client.rpc(**request) for request in requests]


class TestWhereTheCopiesDisagreed:
    def test_trace_on_in_any_case_enables_tracing(self, monkeypatch, capsys, tmp_path):
        service = make_service(tracing=False)
        [reply] = asyncio.run(network_replies(service, {"op": "trace", "args": ["ON"]}))
        assert reply == {"ok": True, "tracing": True, "id": None}
        assert service.tracer.enabled

        out = serve_console(
            monkeypatch, capsys, tmp_path, service, "trace off\ntrace ON\nquery 0 9\nslowlog\nquit\n"
        )
        assert "tracing off\ntracing on\n" in out
        # Tracing really is on: the logged query carries a trace id.
        assert " trace " in out.splitlines()[-2]

    def test_update_with_weight_zero_stores_zero(self, monkeypatch, capsys, tmp_path):
        service = make_service()
        replies = asyncio.run(
            network_replies(
                service,
                {"op": "update", "args": [0, 9, 0]},
                {"op": "query", "args": [0, 9]},
            )
        )
        assert replies[0]["ok"]
        assert service.database.graph.edge_weight(0, 9) == 0.0
        assert replies[1]["answer"]["value"] == 0.0

        out = serve_console(
            monkeypatch, capsys, tmp_path, make_service(), "update 0 9 0\nquery 0 9\nquit\n"
        )
        assert "0 -> 9: value 0.0," in out

    @pytest.mark.parametrize(
        "request_document",
        [
            {"op": "query", "args": [[1], 2]},
            {"op": "query", "args": [0, None]},
            {"op": "query", "args": [{"node": 0}, 9]},
            {"op": "batch", "args": [0, 9, True, 9]},
            {"op": "update", "args": [0, 9, None]},
            {"op": "update", "args": [0, 9, [1.0]]},
            {"op": "migrate", "args": [None, 0]},
            {"op": "migrate", "args": [0, False]},
            {"op": "slowlog", "args": [[3]]},
            {"op": "slowlog", "args": [None]},
            {"op": "profile", "args": [{}]},
            {"op": "closure", "args": [None]},
            {"op": "hello", "args": [["alice"]]},
        ],
        ids=lambda document: f"{document['op']}-{document['args']}",
    )
    def test_a_wrongly_typed_argument_is_an_error_reply(self, request_document):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    reply = await client.rpc(**request_document)
                    assert reply["ok"] is False
                    assert "must be a string or a number" in reply["error"]
                    # The connection and its admission slot survive, and the
                    # next request on the same connection is served.
                    assert server.admission.active == 0
                    answer = await client.rpc(op="query", args=[0, 9])
                    assert answer["ok"] and answer["answer"]["value"] is not None
            return service

        service = asyncio.run(scenario())
        # The same request through the console's grammar fails the same way.
        if request_document["op"] in commands_for("console"):
            request = parse_json_request(request_document, surface="console")
            monitor = SLOMonitor(service.registry, default_slos())
            with pytest.raises(ProtocolError, match="must be a string or a number"):
                execute(service, request, monitor=monitor, profiler=None)

    def test_the_console_survives_arguments_it_cannot_decode(
        self, monkeypatch, capsys, tmp_path
    ):
        out = serve_console(
            monkeypatch,
            capsys,
            tmp_path,
            make_service(),
            "migrate zero 0\nslowlog many\nupdate 0 9 heavy\nquery 0 9\nquit\n",
        )
        assert out.count("error: ") == 3
        assert "0 -> 9: value" in out
