"""Distributed catalog: what every site stores under the disconnection set approach.

The base relation is fragmented over ``n`` sites; each site stores its
fragment ``R_i``, the identity of its border nodes, and the complementary
information of every disconnection set it participates in (Sec. 2.1:
"Complementary information about the disconnection set DS_ij is stored at
both sites storing the fragments R_i and R_j").

The :class:`FragmentSite` value object materialises exactly that per-site
state; the :class:`DistributedCatalog` owns all sites plus the global metadata
a coordinator needs for planning (the fragmentation graph).  The placed
worker pool hands each :class:`FragmentSite` to its owner worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..closure import Semiring, shortest_path_semiring
from ..fragmentation import Fragmentation, FragmentationGraph
from ..graph import CompactDelta, CompactGraph, DiGraph, hop_diameter
from .complementary import ComplementaryInformation, precompute_complementary_information

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..incremental.delta import EdgeChange

Node = Hashable
FragmentPair = Tuple[int, int]


class CompactFragmentSite:
    """The plain-data, kernel-ready form of one fragment site.

    This is what crosses process and snapshot boundaries: the fragment's
    *augmented* graph (subgraph + complementary shortcuts) as a
    :class:`~repro.graph.compact.CompactGraph` state dictionary of lists and
    arrays, plus the cached iteration estimate.  Resident workers and snapshot
    reloads rebuild kernels directly from it — no dict-of-dicts adjacency is
    ever reconstructed on the hot path.

    :attr:`state` is *lazily refreshed*: an :meth:`apply_delta` only marks
    the captured state dirty, and the next reader (a snapshot writer, a
    worker shipment) re-captures it from the pinned graph — so an O(delta)
    splice is never followed by an eager O(V+E) state rebuild.

    Attributes:
        fragment_id: the fragment / site identifier.
        estimated_iterations: the site's cached ``hop_diameter + 1`` figure.
        border_nodes: the owning :class:`FragmentSite`'s border nodes, so the
            local-query evaluator memoizes here exactly what it memoizes
            there; ``None`` (a hand-built or reloaded site) means "unknown,
            search as before".  A hint only: what it selects is a pure
            function of the graph, so a stale set costs time, never answers.
    """

    __slots__ = ("fragment_id", "estimated_iterations", "border_nodes", "_state", "_graph")

    def __init__(
        self,
        fragment_id: int,
        state: Dict[str, object],
        estimated_iterations: int,
    ) -> None:
        self.fragment_id = fragment_id
        self.estimated_iterations = estimated_iterations
        self.border_nodes: Optional[FrozenSet[Node]] = None
        self._state: Optional[Dict[str, object]] = state
        self._graph: Optional[CompactGraph] = None

    @property
    def state(self) -> Dict[str, object]:
        """The augmented compact graph's plain-data state (lazily refreshed)."""
        if self._state is None:
            self._state = self.compact().state()
        return self._state

    def compact(self, *, use_shortcuts: bool = True) -> CompactGraph:
        """Return (and cache) the compact graph.

        Shortcuts are baked into the shipped state, so the no-shortcut
        (ablation) form does not exist here.

        Raises:
            ValueError: when ``use_shortcuts=False`` is requested — silently
                returning the augmented graph would fake the ablation.
        """
        if not use_shortcuts:
            raise ValueError(
                "a CompactFragmentSite only carries the shortcut-augmented graph; "
                "run ablations against the full FragmentSite"
            )
        if self._graph is None:
            self._graph = CompactGraph.from_state(self._state)
        return self._graph

    def local_iterations(self) -> int:
        """Return the precomputed semi-naive iteration estimate."""
        return self.estimated_iterations

    def derived_get(self, key: str) -> Optional[object]:
        """Return what the compact graph's derived store holds under ``key``.

        ``None`` when nothing does or the graph has not been rebuilt from the
        shipped state yet; a census read, it never builds anything.
        """
        return self._graph.derived_get(key) if self._graph is not None else None

    def derive(self, *, compact: bool = True, use_shortcuts: bool = True) -> bool:
        """Rebuild the graph from the shipped state if needed; return whether it was."""
        missing = compact and self._graph is None
        if missing:
            self.compact(use_shortcuts=use_shortcuts)
        return missing

    def apply_delta(
        self,
        delta: CompactDelta,
        estimated_iterations: int,
        border_nodes: Optional[FrozenSet[Node]] = None,
    ) -> None:
        """Apply an edge delta to the pinned compact graph in place.

        This is how a resident worker (or a snapshot-seeded site) absorbs an
        incremental update: the delta splices only the touched overlay rows
        of this fragment's compact graph (O(delta), no CSR rebuild), the
        captured plain-data ``state`` is marked stale and re-captured on the
        next read, and the iteration estimate is replaced by the
        coordinator's new figure — as is the border hint, when the write
        moved a disconnection set (``None`` keeps the current one).  Shipping
        a delta is the scoped alternative to re-shipping the whole fragment
        payload.
        """
        graph = self.compact()
        graph.apply_delta(delta)
        self._state = None
        self.estimated_iterations = estimated_iterations
        if border_nodes is not None:
            self.border_nodes = border_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactFragmentSite):
            return NotImplemented
        return (
            self.fragment_id == other.fragment_id
            and self.estimated_iterations == other.estimated_iterations
            and self.state == other.state
        )

    def __repr__(self) -> str:
        return (
            f"CompactFragmentSite(fragment_id={self.fragment_id}, "
            f"estimated_iterations={self.estimated_iterations})"
        )

    def __getstate__(self) -> Dict[str, object]:
        # Ship only the plain state; the worker rebuilds the graph lazily.
        return {
            "fragment_id": self.fragment_id,
            "state": self.state,
            "estimated_iterations": self.estimated_iterations,
            "border_nodes": self.border_nodes,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.fragment_id = state["fragment_id"]  # type: ignore[assignment]
        self.estimated_iterations = state["estimated_iterations"]  # type: ignore[assignment]
        self.border_nodes = state.get("border_nodes")  # type: ignore[assignment]
        self._state = state["state"]
        self._graph = None


@dataclass(frozen=True)
class SiteBorders:
    """What a site knows about its disconnection sets (all of it derived).

    Attributes:
        border_nodes: nodes shared with at least one other fragment.
        shortcuts: complementary-information shortcut edges
            ``(border, border, value)`` stored at the site.
        neighbours: adjacent fragment ids (nonempty disconnection sets).
        disconnection_sets: for each neighbour, the shared node set.
    """

    border_nodes: FrozenSet[Node]
    shortcuts: List[Tuple[Node, Node, object]]
    neighbours: List[int]
    disconnection_sets: Dict[int, FrozenSet[Node]]


@dataclass
class FragmentSite:
    """Everything one site (processor) stores.

    The mutable ``DiGraph`` subgraph stays the front-end representation; the
    first kernel evaluation builds (and caches) the fragment's
    :class:`~repro.graph.compact.CompactGraph` form via :meth:`compact`.

    A site outlives writes.  :meth:`apply_update` patches ``subgraph`` and
    the cached augmented compact graph in place, with the exact edge delta
    between the old and the new augmented adjacency (fragment edges *and*
    complementary shortcuts, so a repair caused by a write in a neighbouring
    fragment arrives as a delta too), and ``CompactGraph.apply_delta`` drops
    what the delta may have changed.  The kernels' indexes and the
    local-query evaluator's transit table go with any non-empty delta; a
    border row stays only when the delta provably cannot have moved it (no
    removed arc lies on one of its shortest paths, no inserted arc shortens
    one, no new node), and is then the row a fresh search would fill.  An
    empty delta leaves everything untouched.  The plain (no-shortcut)
    compact form is not patched: a write to the fragment's own edges
    discards it, and one that adds or removes an edge discards the
    iteration estimate with it (a hop diameter does not see weights).  The
    next evaluation re-derives the compact forms (:meth:`derive`); the
    estimate waits for its next reader (:meth:`local_iterations`).  Only a
    full catalog rebuild or a scoped refragmentation replaces the site
    object, and the replacement starts with no cached state at all.

    Attributes:
        fragment_id: the fragment / site identifier.
        subgraph: the fragment's edges as a graph (local base relation).
        border_nodes: nodes shared with at least one other fragment.
        shortcuts: complementary-information shortcut edges
            ``(border, border, value)`` stored at this site.
        neighbours: adjacent fragment ids (nonempty disconnection sets).
        disconnection_sets: for each neighbour, the shared node set.
    """

    fragment_id: int
    subgraph: DiGraph
    border_nodes: FrozenSet[Node]
    shortcuts: List[Tuple[Node, Node, object]] = field(default_factory=list)
    neighbours: List[int] = field(default_factory=list)
    disconnection_sets: Dict[int, FrozenSet[Node]] = field(default_factory=dict)
    _compact_augmented: Optional[CompactGraph] = field(
        default=None, init=False, repr=False, compare=False
    )
    _compact_plain: Optional[CompactGraph] = field(
        default=None, init=False, repr=False, compare=False
    )
    _local_iterations: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def augmented_subgraph(self) -> DiGraph:
        """Return the fragment subgraph with the complementary shortcuts added.

        Shortcut values that are not numeric (e.g. reachability booleans) are
        added as zero-weight edges; the local evaluator for those semirings
        only uses the adjacency anyway.
        """
        augmented = self.subgraph.copy()
        for (source, target), weight in self._shortcut_weights().items():
            if not augmented.has_edge(source, target) or weight < augmented.edge_weight(source, target):
                augmented.add_edge(source, target, weight)
        return augmented

    def _shortcut_weights(self) -> Dict[Tuple[Node, Node], float]:
        """Return the edge weight each shortcut key contributes (the lowest, if stored twice)."""
        weights: Dict[Tuple[Node, Node], float] = {}
        for source, target, value in self.shortcuts:
            weight = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else 0.0
            if weight < weights.get((source, target), weight + 1.0):
                weights[(source, target)] = weight
        return weights

    def compact(self, *, use_shortcuts: bool = True) -> CompactGraph:
        """Return (and cache) the fragment's immutable compact form.

        With ``use_shortcuts`` the compact graph is built from
        :meth:`augmented_subgraph`, so the kernels see exactly the adjacency
        the dict-based evaluator would.  The augmented form is built once
        and patched by :meth:`apply_update`; the plain form is rebuilt after
        a write.
        """
        if use_shortcuts:
            if self._compact_augmented is None:
                self._compact_augmented = CompactGraph.from_digraph(self.augmented_subgraph())
            return self._compact_augmented
        if self._compact_plain is None:
            self._compact_plain = CompactGraph.from_digraph(self.subgraph)
        return self._compact_plain

    def derived_get(self, key: str) -> Optional[object]:
        """Return what the augmented compact graph's derived store holds under ``key``.

        ``None`` when nothing does or no compact form exists yet; a census
        read, it never builds anything.
        """
        graph = self._compact_augmented
        return graph.derived_get(key) if graph is not None else None

    def local_iterations(self) -> int:
        """Return (and cache) the semi-naive iteration estimate (diameter + 1)."""
        if self._local_iterations is None:
            self._local_iterations = hop_diameter(self.subgraph) + 1
        return self._local_iterations

    def derive(self, *, compact: bool = True, use_shortcuts: bool = True) -> bool:
        """Build the lazy state an evaluation reads; return whether any was missing.

        That state is the compact graph, with ``compact`` (absent on a fresh
        or rebuilt site, and in its plain form after any own write); the dict
        fixpoint reads the subgraph and needs nothing.  The iteration
        estimate is not part of it: an evaluation never reads it, and its
        readers (:meth:`ExecutionReport.record_local`, the pool's re-pins and
        payloads) ask :meth:`local_iterations` themselves.  Callers that time
        kernels call this first, so a re-derivation after a write is never
        booked as kernel time.
        """
        graph = self._compact_augmented if use_shortcuts else self._compact_plain
        missing = compact and graph is None
        if missing:
            self.compact(use_shortcuts=use_shortcuts)
        return missing

    def to_compact_site(self) -> CompactFragmentSite:
        """Return the plain-data form shipped to workers and snapshots."""
        compact_site = CompactFragmentSite(
            fragment_id=self.fragment_id,
            state=self.compact().state(),
            estimated_iterations=self.local_iterations(),
        )
        compact_site.border_nodes = self.border_nodes
        return compact_site

    def seed_compact(self, compact_site: CompactFragmentSite) -> None:
        """Adopt a previously built compact form (snapshot reload fast path)."""
        self._compact_augmented = compact_site.compact()
        self._local_iterations = compact_site.estimated_iterations

    def apply_update(
        self,
        changes: Sequence["EdgeChange"],
        *,
        coordinates: DiGraph,
        borders: Optional["SiteBorders"] = None,
    ) -> Optional[CompactDelta]:
        """Absorb an incremental update in place; returns the compact delta.

        ``changes`` are the edge changes this fragment owns, in the order
        they were applied to the base graph: ``subgraph`` is patched with
        exactly those (an endpoint new to the fragment brings its coordinate
        from ``coordinates``, one that lost its last edge leaves).
        ``borders`` is given when a disconnection set of this fragment was
        repaired or changed membership, and replaces the border nodes,
        shortcuts and neighbourhood wholesale.

        The cached augmented compact graph is patched with the delta of the
        only edges that can have moved — the changed edges, and with
        ``borders`` the old and new shortcut keys — each compared between
        what the compact graph holds and what :meth:`augmented_subgraph`
        would now say; the cost follows the change, not the fragment.  The
        returned delta is what the resident worker pool ships to its workers
        so they can patch their pinned replica the same way; ``None`` means
        no compact form existed yet (nothing to patch, the next evaluation
        builds it lazily).

        The plain compact form is dropped when the fragment's own edges
        changed, the iteration estimate only when an edge came or went.
        """
        touched = [(change.source, change.target) for change in changes]
        subgraph = self.subgraph
        for change in changes:
            if change.op == "delete":
                subgraph.remove_edge(change.source, change.target)
                for node in (change.source, change.target):
                    if subgraph.has_node(node) and not subgraph.degree(node):
                        subgraph.remove_node(node)
                continue
            for node in (change.source, change.target):
                if not subgraph.has_node(node):
                    subgraph.add_node(node)
                    point = coordinates.coordinate(node)
                    if point is not None:
                        subgraph.set_coordinate(node, point)
            subgraph.add_edge(change.source, change.target, change.weight)
        if changes:
            self._compact_plain = None
            if any(change.op != "reweight" for change in changes):
                self._local_iterations = None
        if borders is not None:
            touched += [(source, target) for source, target, _ in self.shortcuts]
            self.border_nodes = borders.border_nodes
            self.shortcuts = borders.shortcuts
            self.neighbours = borders.neighbours
            self.disconnection_sets = borders.disconnection_sets
            touched += [(source, target) for source, target, _ in self.shortcuts]
        compact = self._compact_augmented
        if compact is None:
            return None
        # A shortcut joins two border nodes: nothing else needs the table.
        border = self.border_nodes
        shortcut_weights = (
            self._shortcut_weights()
            if any(source in border and target in border for source, target in touched)
            else {}
        )
        inserts: List[Tuple[Node, Node, float]] = []
        reweights: List[Tuple[Node, Node, float]] = []
        deletes: List[Tuple[Node, Node]] = []
        for source, target in dict.fromkeys(touched):
            weight = shortcut_weights.get((source, target))
            if subgraph.has_edge(source, target):
                own = subgraph.edge_weight(source, target)
                weight = own if weight is None else min(own, weight)
            old_weight = compact.edge_weight(source, target)
            if weight is None:
                if old_weight is not None:
                    deletes.append((source, target))
            elif old_weight is None:
                inserts.append((source, target, weight))
            elif old_weight != weight:
                reweights.append((source, target, weight))
        delta = CompactDelta(
            inserts=tuple(inserts), deletes=tuple(deletes), reweights=tuple(reweights)
        )
        compact.apply_delta(delta)
        return delta

    def stores_node(self, node: Node) -> bool:
        """Return ``True`` if the node appears in this site's fragment."""
        return self.subgraph.has_node(node)

    def edge_count(self) -> int:
        """Return the number of directed edges stored at this site."""
        return self.subgraph.edge_count()


class DistributedCatalog:
    """The full distributed database: one :class:`FragmentSite` per fragment.

    Args:
        fragmentation: the data fragmentation to deploy.
        semiring: the path problem the complementary information must support
            (defaults to shortest paths).
        complementary: reuse previously computed complementary information
            instead of recomputing it (e.g. when benchmarking the
            precomputation separately).
        compact_sites: previously built compact fragment forms (e.g. from a
            snapshot) to seed the sites' kernel caches, so a warm service
            never rebuilds adjacency.
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
        complementary: Optional[ComplementaryInformation] = None,
        compact_sites: Optional[Dict[int, CompactFragmentSite]] = None,
    ) -> None:
        self._fragmentation = fragmentation
        self._semiring = semiring or shortest_path_semiring()
        self._fragmentation_graph = FragmentationGraph(fragmentation)
        self._complementary = complementary or precompute_complementary_information(
            fragmentation, semiring=self._semiring
        )
        self._sites = self._build_sites(compact_sites or {})

    def _build_site(self, fragment_id: int, fragmentation: Fragmentation) -> FragmentSite:
        """Construct one site's full per-fragment state from a fragmentation.

        The single place site field wiring lives: initial catalog
        construction and a redraw's site rebuild both go through it, so a
        freshly-redrawn site can never diverge from a freshly-built one.
        """
        borders = self._site_borders(fragment_id, fragmentation)
        return FragmentSite(
            fragment_id=fragment_id,
            subgraph=fragmentation.fragment_subgraph(fragment_id),
            border_nodes=borders.border_nodes,
            shortcuts=borders.shortcuts,
            neighbours=borders.neighbours,
            disconnection_sets=borders.disconnection_sets,
        )

    def _site_borders(self, fragment_id: int, fragmentation: Fragmentation) -> SiteBorders:
        neighbours = fragmentation.adjacent_fragments(fragment_id)
        return SiteBorders(
            border_nodes=fragmentation.border_nodes(fragment_id),
            shortcuts=self._complementary.shortcut_edges(fragment_id, fragmentation),
            neighbours=neighbours,
            disconnection_sets={
                neighbour: fragmentation.disconnection_set(fragment_id, neighbour)
                for neighbour in neighbours
            },
        )

    def _build_sites(
        self, compact_sites: Dict[int, CompactFragmentSite]
    ) -> Dict[int, FragmentSite]:
        sites: Dict[int, FragmentSite] = {}
        for fragment in self._fragmentation.fragments:
            fragment_id = fragment.fragment_id
            site = self._build_site(fragment_id, self._fragmentation)
            if fragment_id in compact_sites:
                site.seed_compact(compact_sites[fragment_id])
            sites[fragment_id] = site
        return sites

    def compact_sites(self) -> Dict[int, CompactFragmentSite]:
        """Return every site's plain-data compact form (building as needed)."""
        return {
            fragment_id: site.to_compact_site()
            for fragment_id, site in sorted(self._sites.items())
        }

    def apply_incremental_update(
        self,
        fragmentation: Fragmentation,
        *,
        dirty_fragments: List[int],
        changes: Sequence["EdgeChange"],
        pairs_changed: Iterable[FragmentPair],
    ) -> Dict[int, Optional[CompactDelta]]:
        """Absorb an already-repaired layout change: patch or rebuild the dirty sites.

        The caller (the incremental maintainer) has already repaired the
        complementary information and knows exactly what moved: the edge
        ``changes`` (each names its owning fragment) and the disconnection
        sets whose values or membership changed (``pairs_changed``).  This
        method swaps in the new fragmentation metadata and, for a write,
        hands every dirty site its own changes, plus fresh borders when one
        of its pairs is among the changed ones.  No ``changes`` means a
        redraw: the layout moved edges between fragments over an unchanged
        graph, so each dirty site is rebuilt from its new fragment, and the
        sites of ids past the new fragment count are dropped.  Every other
        :class:`FragmentSite` object — including its cached compact form —
        stays untouched and object-identical.

        Returns each dirty fragment's compact delta (``None`` when the site
        had no compact form yet, or was rebuilt), which the worker pool
        re-pins with.
        """
        if fragmentation is not self._fragmentation:
            self._fragmentation = fragmentation
            self._fragmentation_graph = FragmentationGraph(fragmentation)
        for fragment_id in range(fragmentation.fragment_count(), len(self._sites)):
            del self._sites[fragment_id]
        repaired = {fragment_id for pair in pairs_changed for fragment_id in pair}
        site_deltas: Dict[int, Optional[CompactDelta]] = {}
        for fragment_id in dirty_fragments:
            if not changes:
                self._sites[fragment_id] = self._build_site(fragment_id, fragmentation)
                site_deltas[fragment_id] = None
                continue
            site_deltas[fragment_id] = self._sites[fragment_id].apply_update(
                [change for change in changes if change.fragment_id == fragment_id],
                coordinates=fragmentation.graph,
                borders=(
                    self._site_borders(fragment_id, fragmentation)
                    if fragment_id in repaired
                    else None
                ),
            )
        return site_deltas

    # ------------------------------------------------------------ accessors

    @property
    def fragmentation(self) -> Fragmentation:
        """The deployed fragmentation."""
        return self._fragmentation

    @property
    def fragmentation_graph(self) -> FragmentationGraph:
        """The fragment-level graph used for planning."""
        return self._fragmentation_graph

    @property
    def semiring(self) -> Semiring:
        """The path problem the catalog was built for."""
        return self._semiring

    @property
    def complementary(self) -> ComplementaryInformation:
        """The precomputed complementary information."""
        return self._complementary

    def sites(self) -> List[FragmentSite]:
        """Return every site, ordered by fragment id."""
        return [self._sites[fragment_id] for fragment_id in sorted(self._sites)]

    def site(self, fragment_id: int) -> FragmentSite:
        """Return the site storing ``fragment_id``."""
        return self._sites[fragment_id]

    def sites_storing_node(self, node: Node) -> List[int]:
        """Return the ids of the sites whose fragment contains ``node``, ascending.

        An index read on the deployed fragmentation, which every write and
        redraw replaces together with the sites it moved.
        """
        return self._fragmentation.fragments_of_node(node)
