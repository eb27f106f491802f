"""numpy is the pinned probe backend's dependency, never the service's.

Serving — build, query, write, snapshot, restore, in-process and on a worker
pool — must not import numpy: ``select_kernel`` never chooses the packed
matrix, and ``repro.closure.packed`` imports numpy on first use only.  The
check runs in a subprocess because pytest's own process may already hold
numpy (the pinned-backend equivalence tests import it).
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.closure import (
    BACKEND_NUMPY,
    numpy_available,
    reachability_rows,
    reachability_semiring,
)
from repro.closure.backends import PACKED_KEY

from tests.transit_layouts import fractional_service

SRC = Path(__file__).resolve().parents[2] / "src"

DRIVER = '''
import sys
import tempfile

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.service import QueryService

SIZE = 200
PAIRS = [(3, 2 * SIZE - 3), (0, SIZE + 50), (SIZE - 40, SIZE - 5), (SIZE + 7, SIZE + 90), (90, 20)]


def fragmentation():
    """Two one-way 200-node paths, joined by two one-way edges."""
    blocks = [list(range(SIZE)), list(range(SIZE, 2 * SIZE))]
    graph = DiGraph()
    for block in blocks:
        for a, b in zip(block, block[1:]):
            graph.add_edge(a, b, 1.0 + a % 7)
    graph.add_edge(SIZE - 1, SIZE, 2.0)
    graph.add_edge(SIZE - 2, SIZE + 1, 3.0)
    return GroundTruthFragmenter([set(block) for block in blocks]).fragment(graph)


def numpy_mapped(pid):
    with open(f"/proc/{pid}/maps") as maps:
        return [line for line in maps if "numpy" in line]


def drive(service, workers):
    answers = [service.query(source, target).value for source, target in PAIRS]
    if workers and sys.platform.startswith("linux"):
        pids = service._pool.worker_pids()
        assert len(pids) == workers
        for pid in pids:
            assert not numpy_mapped(pid), f"worker {pid} mapped numpy"
        print("maps-checked", len(pids))
    return answers


def main(workers):
    # hashlib maps OpenSSL (3.6 MB resident): only hashing a snapshot loads it.
    assert "hashlib" not in sys.modules, "importing the service imported hashlib"
    for semiring in (reachability_semiring, shortest_path_semiring):
        options = {"workers": workers} if workers else {}
        with QueryService(fragmentation(), semiring=semiring(), **options) as service:
            before = drive(service, workers)
            assert before[0] and before[-1] is None, before
            service.update_edge(10, 30, 1.0)
            service.update_edge(SIZE + 10, SIZE + 11, delete=True)
            after = drive(service, workers)
            assert after[0] is None and after[2] == before[2], "the deleted edge cuts block 2"
            with tempfile.TemporaryDirectory() as directory:
                service.snapshot(directory)
                with QueryService.from_snapshot(directory, **options) as restored:
                    assert drive(restored, workers) == after
    assert "numpy" not in sys.modules, "serving imported numpy"
    print("numpy-free")


if __name__ == "__main__":
    main(int(sys.argv[1]))
'''


@pytest.mark.parametrize("workers", [0, 2])
def test_serving_never_imports_numpy(tmp_path, workers):
    script = tmp_path / "drive_service.py"
    script.write_text(DRIVER)
    done = subprocess.run(
        [sys.executable, str(script), str(workers)],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")
    assert "numpy-free" in lines
    if workers and sys.platform.startswith("linux"):
        # Two semirings, three driven services each (before and after the writes, restored).
        assert lines.count(f"maps-checked {workers}") == 6


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_a_pinned_matrix_never_leaves_the_process(tmp_path):
    service, _ = fractional_service("chain", reachability_semiring, [])
    catalog = service.engine().catalog
    for site in catalog.sites():
        site.derive()
    states = {site.fragment_id: site.compact().state() for site in catalog.sites()}
    pickles = {site.fragment_id: pickle.dumps(site.compact()) for site in catalog.sites()}
    payloads = pickle.dumps(catalog.compact_sites())
    service.snapshot(tmp_path / "cold")
    for site in catalog.sites():
        graph = site.compact()
        _, chosen = reachability_rows(
            graph, list(range(graph.node_count())), backend=BACKEND_NUMPY
        )
        assert chosen == BACKEND_NUMPY and graph.derived_get(PACKED_KEY) is not None
    for site in catalog.sites():
        assert site.compact().state() == states[site.fragment_id]
        assert pickle.dumps(site.compact()) == pickles[site.fragment_id]
        assert pickle.loads(pickles[site.fragment_id]).derived_get(PACKED_KEY) is None
    assert pickle.dumps(catalog.compact_sites()) == payloads
    service.snapshot(tmp_path / "warm")
    assert (tmp_path / "warm" / "payload.bin").read_bytes() == (
        tmp_path / "cold" / "payload.bin"
    ).read_bytes()
