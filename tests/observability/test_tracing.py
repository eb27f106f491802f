"""Tracer: span parenting, trace identity, remote spans, toggling, bounding."""

from repro.observability import NULL_SPAN, TraceContext, Tracer, tracing

from tests.tracing_helpers import spans_named


class TestSpanParenting:
    def test_nested_spans_share_one_trace_and_parent_correctly(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        [trace] = tracer.recent(1)
        assert trace.trace_id == root.trace_id == child.trace_id == grandchild.trace_id
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert trace.span_names() == ["root", "child", "grandchild"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        [trace] = tracer.recent(1)
        assert [span.name for span in trace.spans if span.parent_id == root.span_id] == ["first", "second"]

    def test_consecutive_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        second, first = tracer.recent(2)
        assert first.trace_id != second.trace_id
        assert tracer.traces_finished == 2

    def test_durations_are_positive_and_nested_within_root(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        [trace] = tracer.recent(1)
        root, child = trace.spans
        assert 0 < child.duration <= root.duration
        assert trace.duration == root.duration


class TestRemoteAndAttachedSpans:
    def test_attach_span_parents_under_current(self):
        tracer = Tracer()
        with tracer.span("evaluate") as parent:
            attached = tracer.attach_span("kernel", 0.25, fragment=3)
        [trace] = tracer.recent(1)
        assert attached.parent_id == parent.span_id
        assert attached.duration == 0.25
        assert attached.attributes["fragment"] == 3
        assert not attached.remote
        assert spans_named(trace, "kernel") == [attached]

    def test_remote_span_under_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("evaluate"):
            worker = tracer.remote_span("worker_evaluate", 0.5, worker=1)
            kernel = tracer.remote_span("kernel", 0.2, parent=worker, worker=1)
        assert worker.remote and kernel.remote
        assert kernel.parent_id == worker.span_id
        [trace] = tracer.recent(1)
        assert spans_named(trace, "kernel") == [kernel]

    def test_attach_outside_any_trace_returns_none(self):
        tracer = Tracer()
        assert tracer.attach_span("kernel", 0.1) is None
        assert tracer.traces_finished == 0


class TestToggling:
    def test_disabled_tracer_yields_null_span_and_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root") as span:
            span.set("key", "value")  # the null span absorbs attributes
            assert span is NULL_SPAN
        assert tracer.traces_finished == 0
        assert tracer.recent() == []

    def test_enable_disable_round_trip(self):
        tracer = Tracer()
        assert tracer.enabled
        tracer.disable()
        with tracer.span("off"):
            pass
        tracer.enable()
        with tracer.span("on"):
            pass
        assert tracer.traces_finished == 1
        assert tracer.recent(1)[0].root_name == "on"

    def test_current_trace_id_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current_trace_id is None
        with tracer.span("root") as root:
            assert tracer.current_trace_id == root.trace_id
            assert tracer.current_span is root
        assert tracer.current_trace_id is None


class TestBoundedRing:
    def test_oldest_traces_are_evicted(self, monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 3)
        tracer = Tracer()
        for index in range(5):
            with tracer.span(f"call_{index}"):
                pass
        retained = tracer.recent(10)
        assert [trace.root_name for trace in retained] == [
            "call_4",
            "call_3",
            "call_2",
        ]
        assert tracer.traces_finished == 5
        assert tracer.traces_dropped == 2

    def test_clear_drops_retained_traces(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.clear() == 1
        assert tracer.recent() == []


class TestTraceContext:
    def test_traceparent_parses(self):
        parsed = TraceContext.from_traceparent(f"00-{'ab' * 16}-{'cd' * 8}-01")
        assert parsed == TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)

    def test_zero_parent_parses_to_none(self):
        # An all-zero parent span id is invalid per W3C; parsing drops it.
        assert TraceContext.from_traceparent(f"00-{'ab' * 16}-{'0' * 16}-01") is None

    def test_malformed_headers_parse_to_none(self):
        for bad in (
            None,
            42,
            "",
            "not-a-traceparent",
            "00-short-0123456789abcdef-01",
            f"00-{'g' * 32}-{'1' * 16}-01",  # non-hex trace id
            f"ff-{'a' * 32}-{'1' * 16}-01",  # forbidden version
            f"00-{'0' * 32}-{'1' * 16}-01",  # all-zero trace id
        ):
            assert TraceContext.from_traceparent(bad) is None

    def test_minted_trace_ids_are_valid_w3c_ids(self):
        tracer = Tracer()
        trace_id = tracer.new_trace_id()
        assert len(trace_id) == 32
        assert set(trace_id) <= set("0123456789abcdef")
        assert tracer.new_trace_id() != trace_id

    def test_as_tuple_is_plain_data(self):
        context = TraceContext(trace_id="ab" * 16, parent_span_id=7)
        assert context.as_tuple() == ("ab" * 16, 7)


class TestRequestSpanPropagation:
    def test_request_span_adopts_the_context(self):
        tracer = Tracer()
        context = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        with tracer.request_span("request", context=context) as root:
            assert root.trace_id == context.trace_id
            assert root.parent_id == context.parent_span_id
        assert tracer.recent(1)[0].trace_id == context.trace_id

    def test_nested_request_span_ignores_the_context(self):
        tracer = Tracer()
        foreign = TraceContext(trace_id="ab" * 16)
        with tracer.span("outer") as outer:
            with tracer.request_span("inner", context=foreign) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_current_context_points_under_the_innermost_span(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        with tracer.span("root") as root:
            context = tracer.current_context()
            assert context.trace_id == root.trace_id
            assert context.parent_span_id == root.span_id

    def test_segments_sharing_a_context_assemble_into_one_trace(self):
        # The serving shape: the open segment, two quanta, and a resumed
        # continuation each file their own Trace record under one trace id;
        # assemble() merges them with the quanta parented under the opener.
        tracer = Tracer()
        context = tracer.new_context()
        with tracer.request_span("request", context=context):
            quantum_context = tracer.current_context()
        for _ in range(2):
            with tracer.request_span("serving_quantum", context=quantum_context):
                tracer.attach_span("kernel", 0.01)
        merged = tracer.assemble(context.trace_id)
        assert merged.trace_id == context.trace_id
        assert merged.root_name == "request"
        assert merged.span_names() == [
            "request",
            "serving_quantum",
            "kernel",
            "serving_quantum",
            "kernel",
        ]
        request_span = spans_named(merged, "request")[0]
        quanta = spans_named(merged, "serving_quantum")
        assert all(span.parent_id == request_span.span_id for span in quanta)
        # Suspension gaps are excluded: only the request root is top-level.
        assert merged.duration == request_span.duration

    def test_assemble_unknown_trace_returns_none(self):
        assert Tracer().assemble("ab" * 16) is None

    def test_wire_parent_marks_top_level(self):
        tracer = Tracer()
        context = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        with tracer.request_span("request", context=context):
            pass
        merged = tracer.assemble(context.trace_id)
        # The client's 16-hex span id matches no local span, so the segment
        # root stays top-level rather than dangling.
        assert merged.root_name == "request"

    def test_disabled_tracer_still_mints_contexts(self):
        tracer = Tracer(enabled=False)
        context = tracer.new_context()
        assert len(context.trace_id) == 32
        with tracer.request_span("request", context=context) as span:
            assert span is NULL_SPAN
        assert tracer.assemble(context.trace_id) is None


class TestSerialization:
    def test_trace_as_dict_round_trips_span_fields(self):
        import json

        tracer = Tracer()
        with tracer.span("root", queries=4):
            tracer.remote_span("kernel", 0.1, worker=0, fragment=1)
        payload = tracer.recent(1)[0].as_dict()
        json.dumps(payload)  # plain data
        names = [span["name"] for span in payload["spans"]]
        assert names == ["root", "kernel"]
        kernel = payload["spans"][1]
        assert kernel["remote"] is True
        assert kernel["attributes"] == {"worker": 0, "fragment": 1}
