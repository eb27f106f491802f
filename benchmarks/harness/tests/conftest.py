"""Put the harness and the program on ``sys.path``; run each workload once per session."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1]
ROOT = HARNESS.parents[1]
for path in (ROOT / "src", HARNESS):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

SECONDS = 0.3


@pytest.fixture(scope="session")
def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="session")
def summaries():
    """``(workload, trace) -> summary`` of one tiny run each, made on first use."""
    import measure
    import run

    measure.QUIET_WINDOW_SECONDS = 0.02  # fourteen waits for a quiet box would be 4 s of the suite
    cache = {}

    def get(workload: str, trace: int):
        key = (workload, trace)
        if key not in cache:
            cache[key] = run.run_one(workload, 11, SECONDS, bool(trace), "tiny")
        return cache[key]

    return get
