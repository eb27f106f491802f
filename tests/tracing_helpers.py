"""Span lookups shared by the tracing tests."""

from typing import List

from repro.observability.tracing import Span, Trace


def spans_named(trace: Trace, name: str) -> List[Span]:
    """Every span of ``trace`` called ``name``, in trace order."""
    return [span for span in trace.spans if span.name == name]
