"""Compact graph representation: interned nodes + CSR adjacency + delta overlay.

The mutable :class:`~repro.graph.digraph.DiGraph` is the right front-end for
building and updating graphs, but its dict-of-dicts adjacency makes every hot
loop pay hashing and pointer chasing per edge.  The paper's strategy evaluates
many restricted closures inside *immutable* fragments, exactly the setting
where an indexed, array-backed representation pays off: a fragment is built
once (or rebuilt once per update) and then traversed thousands of times.

:class:`CompactGraph` interns the fragment's hashable nodes into dense int
ids and stores forward and backward adjacency in CSR (compressed sparse row)
form — one offsets array, one targets array, one weights array per direction.
The closure kernels in :mod:`repro.closure.kernels` are specialised to this
layout (bitset BFS over precomputed successor masks, array-heap Dijkstra,
semi-naive fixpoints over int pairs) and translate their results back through
the interner, so every public API keeps speaking original node keys.

Writes are O(delta) amortised.  :meth:`CompactGraph.apply_delta` does not
rebuild the CSR arrays; it splices the touched rows into a small **overlay**
(per-node replacement rows in ``_fwd_over`` / ``_bwd_over``) that every
adjacency accessor, mask, and kernel consults before the frozen arrays.  Once
the number of absorbed elementary changes crosses
:attr:`CompactGraph.overlay_threshold` (default
:data:`DEFAULT_OVERLAY_THRESHOLD`, overridable through the
:data:`ENV_OVERLAY_THRESHOLD` environment variable), the overlay is lazily
**compacted** back into clean CSR in one O(V+E) pass.  Index builds that need
raw CSR arrays (chain index, Tarjan shape probe, a pinned packed matrix) force
a compaction and record the reason in ``repro_overlay_compactions_total``.

The representation stays *plain data*: :meth:`CompactGraph.state` returns
lists, ``array`` objects, and (when an overlay is pending) a plain dict of
overlay rows, which pickle compactly (cheap to ship to resident worker
processes) and persist losslessly inside snapshots.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import NodeNotFoundError
from ..observability.metrics import MetricsRegistry

Node = Hashable


@dataclass(frozen=True)
class CompactDelta:
    """A plain-data edge delta applicable to a :class:`CompactGraph`.

    This is the wire format of incremental maintenance: small enough to ship
    to a resident worker instead of the fragment's whole CSR state, and
    deterministic — applying the same delta to two identical graphs yields
    identical interners and logical adjacency, regardless of when either
    copy compacts its overlay.

    Attributes:
        inserts: ``(source, target, weight)`` triples to add (new endpoints
            are interned in order of appearance).
        deletes: ``(source, target)`` pairs to remove (every parallel entry
            for the pair is dropped; missing pairs are ignored so replays are
            idempotent).
        reweights: ``(source, target, weight)`` triples replacing the pair's
            entries with a single entry at the new weight (upserting when the
            pair is absent).
    """

    inserts: Tuple[Tuple[Node, Node, float], ...] = ()
    deletes: Tuple[Tuple[Node, Node], ...] = ()
    reweights: Tuple[Tuple[Node, Node, float], ...] = ()

    def is_empty(self) -> bool:
        """Return ``True`` when the delta changes nothing."""
        return not (self.inserts or self.deletes or self.reweights)

    def op_count(self) -> int:
        """Return the number of elementary changes in this delta."""
        return len(self.inserts) + len(self.deletes) + len(self.reweights)

_OFFSET_TYPECODE = "l"
_TARGET_TYPECODE = "l"
_WEIGHT_TYPECODE = "d"

COMPACT_STATE_FORMAT = "compact-graph-v1"

# How many elementary delta operations an overlay absorbs before it is
# compacted back into clean CSR.  Small enough that reads through the
# overlay stay near CSR speed, large enough that a burst of single-edge
# updates never pays the O(V+E) rebuild per edge.
DEFAULT_OVERLAY_THRESHOLD = 64
ENV_OVERLAY_THRESHOLD = "REPRO_OVERLAY_THRESHOLD"

OVERLAY_DEPTH_GAUGE = "repro_overlay_depth"
OVERLAY_COMPACTIONS_COUNTER = "repro_overlay_compactions_total"

_overlay_registry = MetricsRegistry()
_overlay_depth = _overlay_registry.gauge(
    OVERLAY_DEPTH_GAUGE,
    "High-water count of pending overlay operations on any compact graph.",
)
_overlay_compactions = _overlay_registry.counter(
    OVERLAY_COMPACTIONS_COUNTER,
    "Overlay-to-CSR compactions by trigger reason.",
    labelnames=("reason",),
)


def overlay_threshold_default() -> int:
    """Return the process-wide overlay threshold (env knob or the default)."""
    raw = os.environ.get(ENV_OVERLAY_THRESHOLD, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_OVERLAY_THRESHOLD


def overlay_compaction_counts() -> Dict[str, int]:
    """Return the current ``reason -> count`` compaction series (tests, benchmarks)."""
    return {key[0]: int(value) for key, value in _overlay_compactions.series().items()}


def merge_overlay_metrics(registry: MetricsRegistry) -> None:
    """Drain the module-level overlay metrics into ``registry``.

    Mirrors the kernel-selection pipeline: resident workers fold before
    shipping their drained registries, the coordinator folds before serving
    a scrape, and nothing double-counts.  The depth gauge merges as a
    high-water mark; the compaction counter sums.  A fold with nothing
    recorded since the last one is skipped.
    """
    _overlay_registry.drain_into(registry)


# A replacement adjacency row: the full effective row for one node, in the
# same order a from-scratch rebuild would produce (counting sort is stable
# within a row, so splicing a row in place preserves rebuild ordering).
OverlayRow = List[Tuple[int, float]]


class CompactGraph:
    """A directed graph over dense int ids with CSR adjacency + delta overlay.

    Build one with :meth:`from_digraph` or :meth:`from_edges`; the instance
    interns every node to an id in ``[0, node_count)`` and freezes adjacency
    into offset/target/weight arrays in both directions.  Parallel edges are
    preserved as distinct CSR entries (the kernels fold them with the
    semiring, which for min-style semirings matches the ``DiGraph`` behaviour
    of keeping the best weight).

    Small updates (:meth:`apply_delta`) do not rebuild the arrays: the touched
    rows are spliced into the overlay dictionaries, consulted by every
    accessor before the CSR arrays, and lazily compacted once
    :attr:`overlay_threshold` elementary changes accumulate (or immediately
    when a consumer demands raw CSR through :attr:`forward_csr` /
    :attr:`backward_csr`).

    The class is intentionally small: it is a *kernel substrate*, not a
    general graph API — semantic mutation goes through ``DiGraph`` and flows
    in as :class:`CompactDelta` patches.
    """

    __slots__ = (
        "_nodes",
        "_ids",
        "_fwd_offsets",
        "_fwd_targets",
        "_fwd_weights",
        "_bwd_offsets",
        "_bwd_sources",
        "_bwd_weights",
        "_succ_masks",
        "_pred_masks",
        "_derived",
        "_derived_states",
        "_base_nodes",
        "_fwd_over",
        "_bwd_over",
        "_overlay_ops",
        "_edge_count",
        "_overlay_threshold",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        fwd_offsets: array,
        fwd_targets: array,
        fwd_weights: array,
        bwd_offsets: array,
        bwd_sources: array,
        bwd_weights: array,
    ) -> None:
        self._nodes: List[Node] = list(nodes)
        self._ids: Dict[Node, int] = {node: index for index, node in enumerate(self._nodes)}
        self._fwd_offsets = fwd_offsets
        self._fwd_targets = fwd_targets
        self._fwd_weights = fwd_weights
        self._bwd_offsets = bwd_offsets
        self._bwd_sources = bwd_sources
        self._bwd_weights = bwd_weights
        self._succ_masks: Optional[List[int]] = None
        self._pred_masks: Optional[List[int]] = None
        self._derived: Dict[str, object] = {}
        self._derived_states: Dict[str, object] = {}
        # Ids >= _base_nodes were interned after the last CSR build and have
        # no CSR row; their adjacency lives purely in the overlay.
        self._base_nodes: int = max(len(fwd_offsets) - 1, 0)
        self._fwd_over: Dict[int, OverlayRow] = {}
        self._bwd_over: Dict[int, OverlayRow] = {}
        self._overlay_ops: int = 0
        self._edge_count: int = len(fwd_targets)
        self._overlay_threshold: Optional[int] = None

    # ---------------------------------------------------------- construction

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, float]],
        *,
        nodes: Optional[Iterable[Node]] = None,
    ) -> "CompactGraph":
        """Build a compact graph from weighted edge triples.

        Args:
            edges: ``(source, target, weight)`` triples; endpoints are
                interned in first-seen order after the explicit ``nodes``.
            nodes: optional nodes to intern first (isolated nodes and a
                deterministic id order for a known node universe).
        """
        ordered: List[Node] = []
        ids: Dict[Node, int] = {}
        if nodes is not None:
            for node in nodes:
                if node not in ids:
                    ids[node] = len(ordered)
                    ordered.append(node)
        edge_list: List[Tuple[int, int, float]] = []
        for source, target, weight in edges:
            if source not in ids:
                ids[source] = len(ordered)
                ordered.append(source)
            if target not in ids:
                ids[target] = len(ordered)
                ordered.append(target)
            edge_list.append((ids[source], ids[target], float(weight)))
        n = len(ordered)
        fwd_offsets, fwd_targets, fwd_weights = _build_csr(edge_list, n, forward=True)
        bwd_offsets, bwd_sources, bwd_weights = _build_csr(edge_list, n, forward=False)
        return cls(
            ordered, fwd_offsets, fwd_targets, fwd_weights, bwd_offsets, bwd_sources, bwd_weights
        )

    @classmethod
    def from_digraph(cls, graph: "DiGraph") -> "CompactGraph":  # noqa: F821
        """Build a compact graph from a :class:`~repro.graph.digraph.DiGraph`.

        Node ids follow the graph's insertion order, so two compact builds of
        the same graph produce identical arrays — the arrays of
        ``from_edges(graph.weighted_edges(), nodes=graph.nodes())``.  A
        ``DiGraph`` already groups its edges by source in id order, so the
        forward CSR is its successor rows laid end to end and the backward
        CSR one counting pass over that.
        """
        rows = graph._successors
        ids = {node: index for index, node in enumerate(rows)}
        node_id = ids.__getitem__
        offsets = [0]
        targets: List[int] = []
        weights: List[float] = []
        for row in rows.values():
            targets.extend(map(node_id, row))
            weights.extend(row.values())
            offsets.append(len(targets))
        counts = [0] * (len(rows) + 1)
        for target_id in targets:
            counts[target_id + 1] += 1
        bwd_offsets = list(accumulate(counts))
        cursor = bwd_offsets[:]
        bwd_sources = [0] * len(targets)
        bwd_weights = [0.0] * len(targets)
        slot = 0
        for source_id in range(len(rows)):
            row_end = offsets[source_id + 1]
            while slot < row_end:
                target_id = targets[slot]
                position = cursor[target_id]
                cursor[target_id] = position + 1
                bwd_sources[position] = source_id
                bwd_weights[position] = weights[slot]
                slot += 1
        return cls(
            list(rows),
            array(_OFFSET_TYPECODE, offsets),
            array(_TARGET_TYPECODE, targets),
            array(_WEIGHT_TYPECODE, weights),
            array(_OFFSET_TYPECODE, bwd_offsets),
            array(_TARGET_TYPECODE, bwd_sources),
            array(_WEIGHT_TYPECODE, bwd_weights),
        )

    # ----------------------------------------------------------- basic shape

    def node_count(self) -> int:
        """Return the number of interned nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """Return the number of directed edges (parallel entries included)."""
        return self._edge_count

    def __len__(self) -> int:
        return self.node_count()

    def nodes(self) -> List[Node]:
        """Return the original node keys in id order."""
        return list(self._nodes)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` when ``node`` was interned."""
        return node in self._ids

    def node_id(self, node: Node) -> int:
        """Return the dense id of ``node``.

        Raises:
            NodeNotFoundError: if the node was not interned.
        """
        try:
            return self._ids[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def try_node_id(self, node: Node) -> int:
        """Return the dense id of ``node`` or ``-1`` when absent."""
        return self._ids.get(node, -1)

    def node_of(self, node_id: int) -> Node:
        """Return the original node key for a dense id."""
        return self._nodes[node_id]

    # --------------------------------------------------------------- overlay

    @property
    def overlay_threshold(self) -> int:
        """Pending operations tolerated before the overlay is compacted."""
        if self._overlay_threshold is not None:
            return self._overlay_threshold
        return overlay_threshold_default()

    @overlay_threshold.setter
    def overlay_threshold(self, value: int) -> None:
        self._overlay_threshold = max(0, int(value))

    def has_overlay(self) -> bool:
        """Return ``True`` while un-compacted overlay rows are pending."""
        return bool(self._fwd_over or self._bwd_over)

    def overlay_depth(self) -> int:
        """Return the number of elementary changes absorbed since compaction."""
        return self._overlay_ops

    def compact_now(self, reason: str = "explicit") -> None:
        """Fold the overlay back into clean CSR arrays (O(V+E), lazy trigger).

        The effective adjacency is re-enumerated row by row (overlay rows
        shadow CSR rows) and both directions are rebuilt; because overlay
        splices preserve within-row order, the result is identical to the
        arrays a from-scratch rebuild after the same deltas would produce.
        Masks are already current and survive.  ``reason`` lands on
        ``repro_overlay_compactions_total``.
        """
        if not (self._fwd_over or self._bwd_over):
            return
        edges: List[Tuple[int, int, float]] = []
        offsets = self._fwd_offsets
        targets = self._fwd_targets
        weights = self._fwd_weights
        over = self._fwd_over
        for source_id in range(len(self._nodes)):
            row = over.get(source_id)
            if row is not None:
                for target_id, weight in row:
                    edges.append((source_id, target_id, weight))
            elif source_id < self._base_nodes:
                for index in range(offsets[source_id], offsets[source_id + 1]):
                    edges.append((source_id, targets[index], weights[index]))
        n = len(self._nodes)
        self._fwd_offsets, self._fwd_targets, self._fwd_weights = _build_csr(
            edges, n, forward=True
        )
        self._bwd_offsets, self._bwd_sources, self._bwd_weights = _build_csr(
            edges, n, forward=False
        )
        self._base_nodes = n
        self._fwd_over = {}
        self._bwd_over = {}
        self._overlay_ops = 0
        self._edge_count = len(edges)
        _overlay_compactions.inc(reason=reason)

    def adjacency_view(
        self, *, backward: bool = False
    ) -> Tuple[array, array, array, Optional[Dict[int, OverlayRow]], int]:
        """Return one direction's adjacency without forcing a compaction.

        Returns:
            ``(offsets, neighbours, weights, overlay_rows, base_nodes)``.
            ``overlay_rows`` is ``None`` when no overlay is pending (the
            caller's hot loop can skip the per-row lookup entirely); ids at
            or above ``base_nodes`` have no CSR segment and read only from
            the overlay.
        """
        if backward:
            return (
                self._bwd_offsets,
                self._bwd_sources,
                self._bwd_weights,
                self._bwd_over or None,
                self._base_nodes,
            )
        return (
            self._fwd_offsets,
            self._fwd_targets,
            self._fwd_weights,
            self._fwd_over or None,
            self._base_nodes,
        )

    # ------------------------------------------------------------- adjacency

    def successor_ids(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(target_id, weight)`` for the outgoing edges of ``node_id``."""
        row = self._fwd_over.get(node_id) if self._fwd_over else None
        if row is not None:
            yield from row
            return
        if node_id >= self._base_nodes:
            return
        start = self._fwd_offsets[node_id]
        stop = self._fwd_offsets[node_id + 1]
        targets = self._fwd_targets
        weights = self._fwd_weights
        for index in range(start, stop):
            yield targets[index], weights[index]

    def predecessor_ids(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(source_id, weight)`` for the incoming edges of ``node_id``."""
        row = self._bwd_over.get(node_id) if self._bwd_over else None
        if row is not None:
            yield from row
            return
        if node_id >= self._base_nodes:
            return
        start = self._bwd_offsets[node_id]
        stop = self._bwd_offsets[node_id + 1]
        sources = self._bwd_sources
        weights = self._bwd_weights
        for index in range(start, stop):
            yield sources[index], weights[index]

    def edge_weight(self, source: Node, target: Node) -> Optional[float]:
        """Return the weight of ``source -> target`` (the lowest of parallel entries), if any."""
        source_id = self._ids.get(source, -1)
        target_id = self._ids.get(target, -1)
        if source_id < 0 or target_id < 0:
            return None
        return min(
            (weight for entry_id, weight in self.successor_ids(source_id) if entry_id == target_id),
            default=None,
        )

    @property
    def forward_csr(self) -> Tuple[array, array, array]:
        """The forward adjacency as ``(offsets, targets, weights)`` arrays.

        Demanding raw CSR compacts any pending overlay first (recorded as a
        ``csr_access`` compaction) — direct array consumers never observe a
        stale row.
        """
        if self._fwd_over or self._bwd_over:
            self.compact_now(reason="csr_access")
        return self._fwd_offsets, self._fwd_targets, self._fwd_weights

    @property
    def backward_csr(self) -> Tuple[array, array, array]:
        """The backward adjacency as ``(offsets, sources, weights)`` arrays.

        Compacts any pending overlay first, like :attr:`forward_csr`.
        """
        if self._fwd_over or self._bwd_over:
            self.compact_now(reason="csr_access")
        return self._bwd_offsets, self._bwd_sources, self._bwd_weights

    def successor_masks(self) -> List[int]:
        """Return (and cache) one int-as-bitset of successors per node.

        ``masks[i]`` has bit ``j`` set iff the edge ``i -> j`` exists; the
        bitset BFS kernel ORs these masks word-parallel, which is how a pure
        Python loop gets within sight of the hardware's memory bandwidth.
        Overlay splices maintain the cached masks row by row, so the bitset
        kernels read through a pending overlay at full speed.
        """
        if self._succ_masks is None:
            masks = [0] * len(self._nodes)
            offsets = self._fwd_offsets
            targets = self._fwd_targets
            for node_id in range(self._base_nodes):
                mask = 0
                for index in range(offsets[node_id], offsets[node_id + 1]):
                    mask |= 1 << targets[index]
                masks[node_id] = mask
            for node_id, row in self._fwd_over.items():
                mask = 0
                for target_id, _ in row:
                    mask |= 1 << target_id
                masks[node_id] = mask
            self._succ_masks = masks
        return self._succ_masks

    def predecessor_masks(self) -> List[int]:
        """Return (and cache) one int-as-bitset of predecessors per node.

        The backward counterpart of :meth:`successor_masks`; the repair
        machinery uses it to run the bitset BFS *against* the edges ("which
        nodes reach u?") without materialising a reversed graph.
        """
        if self._pred_masks is None:
            masks = [0] * len(self._nodes)
            offsets = self._bwd_offsets
            sources = self._bwd_sources
            for node_id in range(self._base_nodes):
                mask = 0
                for index in range(offsets[node_id], offsets[node_id + 1]):
                    mask |= 1 << sources[index]
                masks[node_id] = mask
            for node_id, row in self._bwd_over.items():
                mask = 0
                for source_id, _ in row:
                    mask |= 1 << source_id
                masks[node_id] = mask
            self._pred_masks = masks
        return self._pred_masks

    def weighted_edges(self) -> List[Tuple[Node, Node, float]]:
        """Return every edge as original-node triples (for round-trips/tests)."""
        edges: List[Tuple[Node, Node, float]] = []
        for source_id in range(len(self._nodes)):
            source = self._nodes[source_id]
            for target_id, weight in self.successor_ids(source_id):
                edges.append((source, self._nodes[target_id], weight))
        return edges

    # ------------------------------------------------------- derived caches

    def derived_get(self, key: str) -> Optional[object]:
        """Return a cached derived structure (chain index, transit table, …)."""
        return self._derived.get(key)

    def derived_set(self, key: str, value: object) -> None:
        """Cache a derived structure under ``key``.

        The value persists through :meth:`state` — via its ``to_state()``
        when it has one, verbatim when it is already plain data — so warm
        reloads skip the derivation.  A ``to_state()`` returning ``None``
        keeps the value process-local: it is cached here and dropped by
        :meth:`apply_delta` like any other, but never written into a state,
        a worker payload or a snapshot.
        """
        self._derived[key] = value
        self._derived_states.pop(key, None)

    def derived_state(self, key: str) -> Optional[object]:
        """Return the reloaded plain-data state for ``key``, if any.

        States arrive through :meth:`from_state` and stay raw until a
        backend hydrates them (a loader without the backend's optional
        dependency passes them through untouched).
        """
        return self._derived_states.get(key)

    # ---------------------------------------------------------- plain state

    def state(self) -> Dict[str, object]:
        """Return the graph as a plain-data dictionary (snapshot wire format).

        Derived kernel structures ride along under ``"derived"``: hydrated
        objects are serialised through their ``to_state()``, unhydrated
        reloaded states pass through as-is, so the caches survive any number
        of ship/reload hops.  A pending overlay persists under ``"overlay"``
        as copied plain rows — shipping a state never forces a compaction,
        and later mutations of this graph cannot alias into a captured
        state.
        """
        state: Dict[str, object] = {
            "format": COMPACT_STATE_FORMAT,
            "nodes": list(self._nodes),
            "fwd_offsets": self._fwd_offsets,
            "fwd_targets": self._fwd_targets,
            "fwd_weights": self._fwd_weights,
            "bwd_offsets": self._bwd_offsets,
            "bwd_sources": self._bwd_sources,
            "bwd_weights": self._bwd_weights,
        }
        if self._fwd_over or self._bwd_over:
            state["overlay"] = {
                "ops": self._overlay_ops,
                "edge_count": self._edge_count,
                "fwd": {node_id: list(row) for node_id, row in self._fwd_over.items()},
                "bwd": {node_id: list(row) for node_id, row in self._bwd_over.items()},
            }
        derived: Dict[str, object] = dict(self._derived_states)
        for key, value in self._derived.items():
            to_state = getattr(value, "to_state", None)
            plain = to_state() if callable(to_state) else value
            if plain is not None:
                derived[key] = plain
        if derived:
            state["derived"] = derived
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "CompactGraph":
        """Rebuild a compact graph from :meth:`state` output.

        Raises:
            ValueError: when the state's format tag is not understood.
        """
        if state.get("format") != COMPACT_STATE_FORMAT:
            raise ValueError(
                f"compact graph state format {state.get('format')!r} is not supported"
            )
        graph = cls(
            state["nodes"],  # type: ignore[arg-type]
            state["fwd_offsets"],  # type: ignore[arg-type]
            state["fwd_targets"],  # type: ignore[arg-type]
            state["fwd_weights"],  # type: ignore[arg-type]
            state["bwd_offsets"],  # type: ignore[arg-type]
            state["bwd_sources"],  # type: ignore[arg-type]
            state["bwd_weights"],  # type: ignore[arg-type]
        )
        overlay = state.get("overlay")
        if overlay:
            graph._fwd_over = {
                int(node_id): [(int(t), float(w)) for t, w in row]
                for node_id, row in overlay["fwd"].items()  # type: ignore[index]
            }
            graph._bwd_over = {
                int(node_id): [(int(s), float(w)) for s, w in row]
                for node_id, row in overlay["bwd"].items()  # type: ignore[index]
            }
            graph._overlay_ops = int(overlay.get("ops", 0))  # type: ignore[union-attr]
            graph._edge_count = int(overlay["edge_count"])  # type: ignore[index]
        graph._derived_states = dict(state.get("derived") or {})  # type: ignore[arg-type]
        return graph

    # ------------------------------------------------------- in-place delta

    def apply_delta(self, delta: CompactDelta) -> None:
        """Splice an edge delta into this graph in O(delta) amortised time.

        The interner is reused (new endpoints are appended, so ids of
        existing nodes never move) and only the *touched rows* are
        materialised into the overlay — the CSR arrays, and every other
        row, are untouched until the overlay crosses
        :attr:`overlay_threshold` and is compacted in one pass.  Within a
        row the splice reproduces exactly what a full rebuild would emit
        (deletes drop every parallel entry, reweights collapse parallels at
        the first occurrence and upsert by appending, inserts append), so
        replicas applying the same deltas agree on logical adjacency no
        matter when each compacts.

        Cached successor/predecessor masks are *maintained* per touched row
        rather than invalidated.  A derived value with a
        ``survive_delta(removed, inserted)`` method (the local-query
        evaluator's border rows and transit table) outlives the delta: it is
        handed the arcs the delta took out and put in, as ``(source id,
        target id, weight)`` with the weights read before the splice, and
        drops whatever those arcs may have changed (the transit table keeps
        its old values aside, serving none of them).  Every other derived
        structure — chain index, shape stats, reloaded-state blobs — is
        dropped and rebuilt on next use, and so is everything when the delta
        interns a new node: a kernel query after a delta can never observe a
        stale cache.
        """
        if delta.is_empty():
            return
        node_count = len(self._nodes)
        fwd_touched: Set[int] = set()
        bwd_touched: Set[int] = set()
        removed: List[Tuple[int, int, float]] = []
        inserted: List[Tuple[int, int, float]] = []
        for source, target in delta.deletes:
            source_id = self._ids.get(source, -1)
            target_id = self._ids.get(target, -1)
            if source_id < 0 or target_id < 0:
                continue
            row = self._materialize(source_id, self._fwd_over, forward=True)
            removed += [(source_id, t, w) for t, w in row if t == target_id]
            before = len(row)
            row[:] = [entry for entry in row if entry[0] != target_id]
            dropped = before - len(row)
            if dropped:
                self._edge_count -= dropped
                back = self._materialize(target_id, self._bwd_over, forward=False)
                back[:] = [entry for entry in back if entry[0] != source_id]
                fwd_touched.add(source_id)
                bwd_touched.add(target_id)
        for source, target, weight in delta.reweights:
            source_id = self._intern(source)
            target_id = self._intern(target)
            value = float(weight)
            row = self._materialize(source_id, self._fwd_over, forward=True)
            removed += [(source_id, t, w) for t, w in row if t == target_id]
            inserted.append((source_id, target_id, value))
            self._edge_count += _reweight_row(row, target_id, value)
            back = self._materialize(target_id, self._bwd_over, forward=False)
            _reweight_row(back, source_id, value)
            fwd_touched.add(source_id)
            bwd_touched.add(target_id)
        for source, target, weight in delta.inserts:
            source_id = self._intern(source)
            target_id = self._intern(target)
            value = float(weight)
            self._materialize(source_id, self._fwd_over, forward=True).append(
                (target_id, value)
            )
            self._materialize(target_id, self._bwd_over, forward=False).append(
                (source_id, value)
            )
            self._edge_count += 1
            inserted.append((source_id, target_id, value))
            fwd_touched.add(source_id)
            bwd_touched.add(target_id)
        self._overlay_ops += delta.op_count()
        _overlay_depth.max_of(float(self._overlay_ops))
        interned = len(self._nodes) > node_count
        node_count = len(self._nodes)
        if self._succ_masks is not None:
            masks = self._succ_masks
            while len(masks) < node_count:
                masks.append(0)
            for source_id in fwd_touched:
                mask = 0
                for target_id, _ in self._fwd_over[source_id]:
                    mask |= 1 << target_id
                masks[source_id] = mask
        if self._pred_masks is not None:
            masks = self._pred_masks
            while len(masks) < node_count:
                masks.append(0)
            for target_id in bwd_touched:
                mask = 0
                for source_id, _ in self._bwd_over[target_id]:
                    mask |= 1 << source_id
                masks[target_id] = mask
        self._derived_states = {}
        survivors: Dict[str, object] = {}
        if not interned:
            for key, value in self._derived.items():
                survive = getattr(value, "survive_delta", None)
                if survive is not None:
                    survive(removed, inserted)
                    survivors[key] = value
        self._derived = survivors
        if self._overlay_ops >= self.overlay_threshold:
            self.compact_now(reason="threshold")

    def _materialize(
        self, node_id: int, over: Dict[int, OverlayRow], *, forward: bool
    ) -> OverlayRow:
        """Return the node's mutable overlay row, copying its CSR row on first edit."""
        row = over.get(node_id)
        if row is None:
            if node_id < self._base_nodes:
                if forward:
                    offsets, neighbours, weights = (
                        self._fwd_offsets,
                        self._fwd_targets,
                        self._fwd_weights,
                    )
                else:
                    offsets, neighbours, weights = (
                        self._bwd_offsets,
                        self._bwd_sources,
                        self._bwd_weights,
                    )
                row = [
                    (neighbours[index], weights[index])
                    for index in range(offsets[node_id], offsets[node_id + 1])
                ]
            else:
                row = []
            over[node_id] = row
        return row

    def _intern(self, node: Node) -> int:
        """Return the dense id of ``node``, interning it when new."""
        node_id = self._ids.get(node)
        if node_id is None:
            node_id = len(self._nodes)
            self._nodes.append(node)
            self._ids[node] = node_id
        return node_id

    def __getstate__(self) -> Dict[str, object]:
        return self.state()

    def __setstate__(self, state: Dict[str, object]) -> None:
        rebuilt = CompactGraph.from_state(state)
        for slot in CompactGraph.__slots__:
            setattr(self, slot, getattr(rebuilt, slot))

    def __repr__(self) -> str:
        overlay = f", overlay={self._overlay_ops}" if self.has_overlay() else ""
        return f"CompactGraph(nodes={self.node_count()}, edges={self.edge_count()}{overlay})"


def _reweight_row(row: OverlayRow, neighbour_id: int, weight: float) -> int:
    """Apply reweight semantics to one overlay row; return the edge-count delta.

    Every entry for ``neighbour_id`` collapses to a single entry at the
    position of the first occurrence; when the pair is absent the entry is
    appended (upsert) — byte-for-byte what the legacy full rebuild emitted.
    """
    before = len(row)
    replaced: OverlayRow = []
    seen = False
    for entry in row:
        if entry[0] == neighbour_id:
            if seen:
                continue
            seen = True
            replaced.append((neighbour_id, weight))
        else:
            replaced.append(entry)
    if not seen:
        replaced.append((neighbour_id, weight))
    row[:] = replaced
    return len(replaced) - before


def _build_csr(
    edge_list: List[Tuple[int, int, float]],
    node_count: int,
    *,
    forward: bool,
) -> Tuple[array, array, array]:
    """Build one direction's CSR arrays with a counting sort over the edges."""
    counts = [0] * (node_count + 1)
    key = 0 if forward else 1
    for edge in edge_list:
        counts[edge[key] + 1] += 1
    offsets = array(_OFFSET_TYPECODE, [0] * (node_count + 1))
    running = 0
    for index in range(node_count + 1):
        running += counts[index]
        offsets[index] = running
    cursor = list(offsets[:node_count]) if node_count else []
    neighbours = array(_TARGET_TYPECODE, [0] * len(edge_list))
    weights = array(_WEIGHT_TYPECODE, [0.0] * len(edge_list))
    other = 1 if forward else 0
    for edge in edge_list:
        row = edge[key]
        slot = cursor[row]
        cursor[row] = slot + 1
        neighbours[slot] = edge[other]
        weights[slot] = edge[2]
    return offsets, neighbours, weights
