"""Tests for the shared serving grammar (one spec table, one error path)."""

import pytest

from repro.serving import (
    COMMAND_SPECS,
    ProtocolError,
    commands_for,
    decode_node,
    parse_json_request,
    parse_line,
)


class TestParseLine:
    def test_blank_lines_are_none(self):
        assert parse_line("") is None
        assert parse_line("   \n") is None

    def test_query_parses_with_args(self):
        request = parse_line("query a 17\n")
        assert request.op == "query"
        assert request.node(0) == "a"
        assert request.node(1) == 17

    def test_op_is_case_insensitive(self):
        assert parse_line("QUERY a b").op == "query"

    def test_unknown_command_message_is_the_historical_one(self):
        with pytest.raises(ProtocolError, match="unrecognised command 'bogus'"):
            parse_line("bogus\n")

    def test_bad_arity_reports_usage(self):
        with pytest.raises(ProtocolError, match="usage: query SOURCE TARGET"):
            parse_line("query a")

    def test_batch_requires_even_args(self):
        assert parse_line("batch a b c d").pairs() == [("a", "b"), ("c", "d")]
        with pytest.raises(ProtocolError, match="usage: batch"):
            parse_line("batch a b c")

    def test_trace_validates_choices(self):
        assert parse_line("trace on").text(0) == "on"
        with pytest.raises(ProtocolError, match="expected one of on|off"):
            parse_line("trace maybe")

    def test_network_only_commands_are_unknown_on_the_console(self):
        for op in ("closure", "resume", "cancel", "hello", "ping"):
            with pytest.raises(ProtocolError, match="unrecognised command"):
                parse_line(f"{op} x", surface="console")

    def test_console_only_commands_are_unknown_on_the_network(self):
        for op in ("snapshot", "quit", "exit"):
            with pytest.raises(ProtocolError, match="unrecognised command"):
                parse_line(f"{op} x" if op == "snapshot" else op, surface="network")

    def test_unknown_surface_raises(self):
        with pytest.raises(ValueError, match="unknown surface"):
            parse_line("query a b", surface="carrier-pigeon")


class TestParseJsonRequest:
    def test_happy_path_with_options(self):
        request = parse_json_request(
            {"op": "closure", "args": ["*"], "id": "c1", "timeout": 2.5}
        )
        assert request.op == "closure"
        assert request.args == ("*",)
        assert request.option("id") == "c1"
        assert request.option("timeout") == 2.5
        assert request.option("missing", "fallback") == "fallback"

    def test_non_object_document_is_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_json_request(["query", "a", "b"])

    def test_missing_op_is_rejected(self):
        with pytest.raises(ProtocolError, match="'op'"):
            parse_json_request({"args": ["a", "b"]})

    def test_non_array_args_are_rejected(self):
        with pytest.raises(ProtocolError, match="'args' must be an array"):
            parse_json_request({"op": "query", "args": "a b"})

    def test_json_numbers_survive_as_nodes(self):
        request = parse_json_request({"op": "query", "args": [3, "7"]})
        assert request.node(0) == 3
        assert request.node(1) == 7

    def test_arity_is_enforced_on_the_network_too(self):
        with pytest.raises(ProtocolError, match="usage: resume"):
            parse_json_request({"op": "resume", "args": []})


class TestGrammarTable:
    def test_surfaces_partition_the_grammar(self):
        console, network = set(commands_for("console")), set(commands_for("network"))
        assert {"query", "batch", "update", "delete", "stats"} <= console & network
        assert {"closure", "resume", "cancel", "hello", "ping"} <= network - console
        assert {"snapshot", "quit", "exit"} <= console - network
        assert {"placement", "migrate", "healthz", "readyz", "profile"} <= console & network
        assert console | network == set(COMMAND_SPECS)

    def test_decode_node_matches_the_cli_convention(self):
        assert decode_node("12") == 12
        assert decode_node("-3") == -3
        assert decode_node("a12") == "a12"
        assert decode_node(7) == 7

    def test_request_accessor_defaults(self):
        request = parse_line("update a b 2.5")
        assert request.number(2, 1.0) == 2.5
        assert parse_line("update a b").number(2, 1.0) == 1.0
        assert parse_line("slowlog").integer(0, 10) == 10
        assert parse_line("stats").text(0, "text") == "text"
