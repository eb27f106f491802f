"""uint64-packed bit-matrix reachability kernels (the pinned-only numpy backend).

The pure-Python bitset BFS absorbs one adjacency row per big-int OR; this
module stores the whole adjacency as an ``(n, ceil(n / 64))`` ``uint64``
matrix so numpy does the same work word-parallel across *many* rows at once:

* single-source frontiers gather the frontier's rows and fold them with one
  vectorised OR-reduce per round,
* the multi-source variant keeps one packed visited row per source and sweeps
  the union frontier once per round.

Rows convert losslessly to the int-as-bitset masks of
:mod:`repro.closure.kernels` (little-endian byte order both sides), so every
caller sees bit-identical answers regardless of backend.

The dispatcher never selects this backend: it lost every measured regime to
the big-int BFS or the chain labels (CHANGES.md, PR 18) and is reachable only
through the explicit pin ``reachability_rows(..., backend="numpy")``, which
the harness probe and the cross-backend equivalence tests use.  numpy is
imported on first use, inside :func:`_require_numpy` — never at ``import
repro`` — and a pin degrades to ``bigint`` where it is not installed.  A
matrix is process-local: it is dropped by ``CompactGraph.apply_delta`` with
every other derived structure and never written into a state or snapshot.
"""

from __future__ import annotations

from typing import List, Sequence

from ..graph.compact import CompactGraph


def _require_numpy():
    """Import numpy on first use; the rest of the package never pays for it."""
    import numpy

    return numpy


def numpy_available() -> bool:
    """Return ``True`` when a pinned ``numpy`` backend can run (imports numpy)."""
    try:
        _require_numpy()
    except ImportError:
        return False
    return True


class PackedBitMatrix:
    """The adjacency of one :class:`CompactGraph` as packed ``uint64`` rows.

    ``rows[i]`` packs the successor bitset of node id ``i``: bit ``j`` lives
    in word ``j >> 6`` at position ``j & 63`` — the little-endian layout of a
    Python int's ``to_bytes``, which is what makes mask interop a straight
    ``tobytes``/``from_bytes`` round-trip.
    """

    __slots__ = ("rows", "node_count", "words")

    def __init__(self, rows, node_count: int) -> None:
        self.rows = rows
        self.node_count = node_count
        self.words = rows.shape[1] if node_count else 0

    @classmethod
    def from_graph(cls, graph: CompactGraph) -> "PackedBitMatrix":
        """Pack the graph's forward CSR into the bit matrix (vectorised)."""
        np = _require_numpy()
        n = graph.node_count()
        words = max(1, (n + 63) >> 6)
        rows = np.zeros((n, words), dtype=np.uint64)
        if n:
            offsets, targets, _ = graph.forward_csr
            if len(targets):
                degrees = np.diff(np.asarray(offsets, dtype=np.int64))
                sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
                target_ids = np.asarray(targets, dtype=np.int64)
                bits = np.uint64(1) << (target_ids & 63).astype(np.uint64)
                np.bitwise_or.at(rows, (sources, target_ids >> 6), bits)
        return cls(rows, n)

    # ------------------------------------------------------------- traversal

    def multi_source_rows(self, source_ids: Sequence[int]):
        """Return one packed visited row per source, expanded in one sweep.

        Each round takes the union of all per-source frontiers, and every
        union member broadcasts its adjacency row into exactly the sources
        whose frontier contains it — one vectorised OR per active node
        instead of one BFS per source.
        """
        np = _require_numpy()
        count = len(source_ids)
        visited = np.zeros((count, self.words), dtype=np.uint64)
        if count == 0:
            return visited
        ids = np.asarray(source_ids, dtype=np.int64)
        visited[np.arange(count), ids >> 6] = np.uint64(1) << (ids & 63).astype(np.uint64)
        frontier = visited.copy()
        rows = self.rows
        while True:
            union = np.bitwise_or.reduce(frontier, axis=0)
            active = _row_ids(union)
            if not active:
                break
            reached = np.zeros_like(visited)
            for node_id in active:
                holders = (
                    (frontier[:, node_id >> 6] >> np.uint64(node_id & 63)) & np.uint64(1)
                ).astype(bool)
                reached[holders] |= rows[node_id]
            frontier = reached & ~visited
            if not frontier.any():
                break
            visited |= frontier
        return visited

    # ---------------------------------------------------------- mask interop

    def row_to_mask(self, row) -> int:
        """Convert one packed row to the kernels' int-as-bitset form."""
        return int.from_bytes(row.tobytes(), "little")

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None

    def __repr__(self) -> str:
        return f"PackedBitMatrix(nodes={self.node_count}, words={self.words})"


def _row_ids(row) -> List[int]:
    """Expand one packed row into the list of set bit positions.

    ``unpackbits`` over the row's little-endian byte view yields bit ``i`` of
    the stream at stream position ``i``, exactly the dense node id.
    """
    np = _require_numpy()
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()
