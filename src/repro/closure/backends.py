"""Pluggable reachability kernel backends and the shape-based dispatcher.

Two backends answer the question "which ids does this source reach?" on the
default path, with bit-identical int-as-bitset rows:

* ``bigint``: the pure-Python bitset BFS of :mod:`repro.closure.kernels`
  (reads straight through a delta overlay, needs no index),
* ``chain``: the SCC condensation + chain decomposition index of
  :mod:`repro.closure.chain` — O(k)-word labels, chosen when the
  condensation is small relative to the graph.

:func:`select_kernel` picks between them per call from what it can observe of
the graph (overlay, node count, condensation ratio); callers never change.
A third backend, ``numpy`` (the packed ``uint64`` bit matrix of
:mod:`repro.closure.packed`), is never selected: it is reachable only through
the explicit pin ``reachability_rows(..., backend="numpy")`` that the harness
probe and the cross-backend equivalence tests use.
Each decision increments the ``repro_kernel_selections_total`` counter on a
module-level registry that services and resident workers fold into their own
metrics (:func:`merge_selection_metrics`), so traces and scrapes show which
kernel served each span.

Derived structures cache on the :class:`~repro.graph.compact.CompactGraph`
itself.  The chain index and the condensation stats persist through its plain
``state()`` — a warm service or resident worker reloads them instead of
re-deriving; a pinned packed matrix is process-local.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graph.compact import CompactGraph
from ..observability.metrics import MetricsRegistry
from .chain import ChainIndex, strongly_connected_components
from .packed import PackedBitMatrix, numpy_available

BACKEND_BIGINT = "bigint"
BACKEND_NUMPY = "numpy"
BACKEND_CHAIN = "chain"

KERNEL_BACKENDS = (BACKEND_BIGINT, BACKEND_NUMPY, BACKEND_CHAIN)

# Derived-cache keys on CompactGraph (also the snapshot wire keys).
PACKED_KEY = "packed_matrix"
CHAIN_KEY = "chain_index"
SHAPE_KEY = "shape"

SHAPE_STATE_FORMAT = "graph-shape-v1"

# Selection thresholds.  Below SMALL_GRAPH_NODES a visited set is one or two
# machine words and the big-int kernel is unbeatable; the chain index wins
# once the condensation collapses at least half the graph.
SMALL_GRAPH_NODES = 48
CHAIN_MAX_CONDENSATION_RATIO = 0.5

KERNEL_SELECTIONS_COUNTER = "repro_kernel_selections_total"

_selection_registry = MetricsRegistry()
_selections = _selection_registry.counter(
    KERNEL_SELECTIONS_COUNTER,
    "Closure kernel backend selections by dispatch context.",
    labelnames=("backend", "context"),
)

# The backend currently executing a kernel, readable from other threads —
# the sampling profiler's tag source.  A one-element list, not a lock: the
# kernel thread writes around each dispatch, the profiler thread reads, and
# a torn read costs at most one mis-tagged sample.
_active_backend: list = [None]


def set_active_backend(backend: Optional[str]) -> None:
    """Mark ``backend`` as the one executing a kernel (``None`` to clear)."""
    _active_backend[0] = backend


def active_backend() -> Optional[str]:
    """The backend executing a kernel right now, or ``None``."""
    return _active_backend[0]


# ------------------------------------------------------- derived structures


def graph_shape(graph: CompactGraph) -> Dict[str, object]:
    """Return (and cache) the shape facts the dispatcher keys on.

    The condensation size comes from one Tarjan pass, run at most once per
    graph lifetime and persisted with the graph's state, so dispatch cost
    amortises to a dict lookup.
    """
    shape = graph.derived_get(SHAPE_KEY)
    if shape is not None:
        return shape
    state = graph.derived_state(SHAPE_KEY)
    if isinstance(state, dict) and state.get("format") == SHAPE_STATE_FORMAT:
        graph.derived_set(SHAPE_KEY, dict(state))
        return graph.derived_get(SHAPE_KEY)
    if graph.has_overlay():
        graph.compact_now(reason="shape_probe")
    n = graph.node_count()
    m = graph.edge_count()
    _, comp_count = strongly_connected_components(graph)
    shape = {
        "format": SHAPE_STATE_FORMAT,
        "node_count": n,
        "edge_count": m,
        "density": (m / (n * n)) if n else 0.0,
        "scc_count": comp_count,
        "condensation_ratio": (comp_count / n) if n else 1.0,
    }
    graph.derived_set(SHAPE_KEY, shape)
    return shape


def packed_matrix(graph: CompactGraph) -> PackedBitMatrix:
    """Return (and cache) the graph's packed bit matrix (the pinned ``numpy`` backend)."""
    matrix = graph.derived_get(PACKED_KEY)
    if matrix is None:
        if graph.has_overlay():
            # Building the packed matrix scans raw CSR; fold the overlay
            # first so the build sees every spliced row.
            graph.compact_now(reason="packed_matrix")
        matrix = PackedBitMatrix.from_graph(graph)
        graph.derived_set(PACKED_KEY, matrix)
    return matrix


def chain_index(graph: CompactGraph) -> ChainIndex:
    """Return (and cache) the graph's chain index, reloading persisted state."""
    index = graph.derived_get(CHAIN_KEY)
    if index is not None:
        return index
    state = graph.derived_state(CHAIN_KEY)
    if state is not None:
        try:
            index = ChainIndex.from_state(state)
        except ValueError:
            index = None
    if index is None:
        if graph.has_overlay():
            graph.compact_now(reason="chain_index")
        index = ChainIndex.from_graph(graph)
    graph.derived_set(CHAIN_KEY, index)
    return index


# ------------------------------------------------------------- the dispatch


def select_kernel(graph: CompactGraph, *, override: Optional[str] = None) -> str:
    """Choose the reachability backend for one kernel invocation.

    Args:
        graph: the compact graph the kernel will run on.
        override: the ``backend=`` pin of :func:`reachability_rows`; any
            other value leaves the choice to the graph's shape.  A pinned
            ``numpy`` degrades to ``bigint`` when numpy is absent.

    Returns:
        One of :data:`KERNEL_BACKENDS`; never ``numpy`` unless pinned.
    """
    if override in KERNEL_BACKENDS:
        if override == BACKEND_NUMPY and not numpy_available():
            return BACKEND_BIGINT
        return override
    if graph.has_overlay() or graph.node_count() < SMALL_GRAPH_NODES:
        # The big-int kernel reads straight through overlay-maintained
        # masks; choosing it keeps a freshly-updated graph answering at
        # full speed instead of paying a compaction + index rebuild on the
        # first query after a write burst.
        return BACKEND_BIGINT
    if graph_shape(graph)["condensation_ratio"] <= CHAIN_MAX_CONDENSATION_RATIO:
        return BACKEND_CHAIN
    return BACKEND_BIGINT


def record_selection(backend: str, context: str) -> None:
    """Count one dispatch decision (folded into service/worker registries)."""
    _selections.inc(backend=backend, context=context)


def merge_selection_metrics(registry: MetricsRegistry) -> None:
    """Drain the module-level selection counters into ``registry``.

    Drain-and-merge keeps the delta semantics of the worker metric pipeline:
    a resident worker folds before shipping its own drained registry, the
    coordinator folds before serving a scrape, and nothing double-counts.
    A fold with nothing recorded since the last one is skipped.
    """
    _selection_registry.drain_into(registry)
