"""In-memory spans recorded from the harness side of each layer boundary.

One :class:`SpanRecorder` lives for a traced run.  A span is
``(name, start, end, parent, op)``: ``parent`` is the index of the span that
was open when this one started (``-1`` for a root), ``op`` the index of the
op in the stream that caused it, so all spans of one op share an identifier.
Spans stay in memory and are written out once, when the run ends.

:func:`instrument` wraps functions of the program in spans for the duration
of a ``with`` block.  The harness composes the layers' public functions
itself where it can (see ``replay.py``); wrapping is for the boundaries that
sit *inside* one public call — the kernel inside ``LocalQueryEvaluator``, the
repair steps inside ``FragmentedDatabase.insert_edge`` — which no caller can
time from outside.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple


class _Span:
    """Context manager for one span; cheap enough for microsecond layers."""

    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> int:
        return self._index

    def __exit__(self, *exc_info: object) -> None:
        recorder = self._recorder
        recorder.ends[self._index] = perf_counter()
        recorder._stack.pop()


class SpanRecorder:
    """Collects spans as parallel lists (index = span id)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.counts: Dict[str, float] = {}
        self.op = -1  # set by the driver before each op
        self._stack: List[int] = []

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return _Span(self, index)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a root span timed elsewhere (an interval that overlaps others)."""
        self.names.append(name)
        self.parents.append(-1)
        self.ops.append(self.op)
        self.starts.append(start)
        self.ends.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter recorded at the same boundary as the spans."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------- analysis

    def durations(self, name: str, *, since: int = 0, until: int = -1) -> List[float]:
        """Durations (seconds) of the spans called ``name`` in ``[since, until)``."""
        stop = len(self.names) if until < 0 else until
        return [
            self.ends[i] - self.starts[i]
            for i in range(since, stop)
            if self.names[i] == name
        ]

    def self_times(self, *, since: int = 0, until: int = -1) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        stop = len(self.names) if until < 0 else until
        own = [self.ends[i] - self.starts[i] for i in range(since, stop)]
        for i in range(since, stop):
            parent = self.parents[i]
            if parent >= since:
                own[parent - since] -= self.ends[i] - self.starts[i]
        return own

    def self_time_by_name(self, *, since: int = 0, until: int = -1) -> Dict[str, float]:
        """Total self time (seconds) per span name in ``[since, until)``."""
        totals: Dict[str, float] = {}
        for offset, own in enumerate(self.self_times(since=since, until=until)):
            name = self.names[since + offset]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def self_time_by_op(
        self, layers: Sequence[str], *, since: int = 0, until: int = -1
    ) -> Dict[int, float]:
        """Per op id: summed self time of its spans whose name is in ``layers``."""
        wanted = set(layers)
        totals: Dict[int, float] = {}
        for offset, own in enumerate(self.self_times(since=since, until=until)):
            index = since + offset
            if self.names[index] in wanted:
                totals[self.ops[index]] = totals.get(self.ops[index], 0.0) + own
        return totals

    def dump(self, path: Path, **header: object) -> None:
        """Write every span and counter to ``path`` as one JSON document."""
        origin = self.starts[0] if self.starts else 0.0
        document = dict(header)
        document["columns"] = ["name", "start_s", "end_s", "parent", "op"]
        document["spans"] = [
            [
                self.names[i],
                round(self.starts[i] - origin, 7),
                round(self.ends[i] - origin, 7),
                self.parents[i],
                self.ops[i],
            ]
            for i in range(len(self.names))
        ]
        document["counts"] = self.counts
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)


Target = Tuple[object, str, str]


@contextmanager
def instrument(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap ``owner.attribute`` in a span called ``name`` for each target.

    ``owner`` is a module (the attribute is a function the module calls by
    its global name) or a class (the attribute is a plain method).
    Everything is restored on exit, also when the block raises.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, name in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(recorder, original, name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _wrapped(recorder: SpanRecorder, function, name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)

    return wrapper
