"""Snapshot store: pay the preparation once, reload it per process.

The expensive half of the disconnection set approach is preparation —
fragmenting the base relation and precomputing the complementary information
(one global search per border node).  A snapshot captures the prepared state
— base graph, fragment edge lists, complementary values — in a directory with
a JSON manifest and a binary payload, so a serving process reloads a ready
:class:`~repro.disconnection.engine.DisconnectionSetEngine` without redoing
any search work.

The payload deliberately stores *plain data* (edge tuples, value mappings)
rather than pickling live engine objects: the wire format stays inspectable,
stable across refactors of the in-memory classes, and restricted to the two
standard semirings whose values (floats / booleans) serialise losslessly.
The manifest carries a content hash that doubles as the catalog version for
the result cache.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..closure import Semiring
from ..disconnection import CompactFragmentSite, ComplementaryInformation, DisconnectionSetEngine
from ..exceptions import ReproError
from ..fragmentation import Fragmentation
from ..graph import DiGraph, Point
from ..incremental import VersionVector
from ..placement import PlacementPlan
from .pool import semiring_from_name

Node = Hashable
PathLike = Union[str, Path]

MANIFEST_FILE = "manifest.json"
PAYLOAD_FILE = "payload.pkl"
SNAPSHOT_FORMAT = "repro-snapshot-v1"


class SnapshotError(ReproError):
    """A snapshot directory is missing, corrupt, or incompatible."""


@dataclass
class SnapshotPayload:
    """The plain-data body of a snapshot (everything needed to rebuild an engine).

    ``compact_fragments`` carries each site's prepared kernel form — the
    augmented :class:`~repro.graph.compact.CompactGraph` state (interned node
    list + CSR arrays) and the cached iteration estimate — so a reloaded
    service starts with warm kernels and never rebuilds adjacency.
    ``version_vector`` persists the per-fragment update versions, so a
    restored service resumes its incremental-maintenance stream instead of
    restarting from version zero.  ``placement`` persists the fragment ->
    owner-worker plan a routed pool was serving with (migrations included),
    and ``delta_sequence`` records where in the source database's delta log
    the snapshot was taken — the position a restored service replays a live
    log's tail from.  All of these are derived/operational data: the content
    hash deliberately excludes them, and snapshots written before they
    existed reload fine without them.  A snapshot that still carries the
    stored route expansions of older payloads reloads too: they were never
    hashed, and nothing reads them.
    """

    nodes: List[Node]
    edges: List[Tuple[Node, Node, float]]
    coordinates: Dict[Node, Tuple[float, float]]
    fragment_edges: List[List[Tuple[Node, Node]]]
    algorithm: str
    semiring_name: str
    complementary_values: Dict[Tuple[int, int], Dict[Tuple[Node, Node], object]]
    precompute_work: int = 0
    compact_fragments: Dict[int, Dict[str, object]] = field(default_factory=dict)
    version_vector: Dict[str, object] = field(default_factory=dict)
    placement: Dict[str, object] = field(default_factory=dict)
    delta_sequence: int = 0


@dataclass
class SnapshotManifest:
    """The JSON-visible description of a snapshot.

    Attributes:
        version: content hash of the payload; the service uses it as the
            catalog version in cache keys, so two snapshots of the same state
            share cached results.
        semiring_name / algorithm: what was prepared and how.
        fragment_count / node_count / edge_count / complementary_facts:
            size figures (the paper's storage-overhead accounting).
        format: payload format tag, checked on load.
    """

    version: str
    semiring_name: str
    algorithm: str
    fragment_count: int
    node_count: int
    edge_count: int
    complementary_facts: int
    format: str = SNAPSHOT_FORMAT

    def as_dict(self) -> Dict[str, object]:
        """Return the manifest as a JSON-serialisable dictionary."""
        return {
            "format": self.format,
            "version": self.version,
            "semiring": self.semiring_name,
            "algorithm": self.algorithm,
            "fragment_count": self.fragment_count,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "complementary_facts": self.complementary_facts,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "SnapshotManifest":
        """Rebuild a manifest from its JSON dictionary."""
        return cls(
            version=str(document["version"]),
            semiring_name=str(document["semiring"]),
            algorithm=str(document["algorithm"]),
            fragment_count=int(document["fragment_count"]),  # type: ignore[arg-type]
            node_count=int(document["node_count"]),  # type: ignore[arg-type]
            edge_count=int(document["edge_count"]),  # type: ignore[arg-type]
            complementary_facts=int(document["complementary_facts"]),  # type: ignore[arg-type]
            format=str(document.get("format", SNAPSHOT_FORMAT)),
        )


@dataclass
class LoadedSnapshot:
    """A reloaded snapshot: the prepared state plus its manifest."""

    manifest: SnapshotManifest
    fragmentation: Fragmentation
    complementary: ComplementaryInformation
    semiring: Semiring
    compact_sites: Dict[int, CompactFragmentSite] = field(default_factory=dict)
    version_vector: VersionVector = field(default_factory=VersionVector)
    placement_plan: Optional[PlacementPlan] = None
    delta_sequence: int = 0

# ----------------------------------------------------------- payload building


def _payload_from_engine(
    engine: DisconnectionSetEngine,
    *,
    version_vector: Optional[VersionVector] = None,
    placement: Optional[PlacementPlan] = None,
    delta_sequence: int = 0,
) -> SnapshotPayload:
    catalog = engine.catalog
    fragmentation = catalog.fragmentation
    semiring_from_name(catalog.semiring.name)  # reject non-serialisable semirings early
    graph = fragmentation.graph
    complementary = catalog.complementary
    compact_fragments = {
        fragment_id: {
            "state": compact_site.state,
            "iterations": compact_site.estimated_iterations,
        }
        for fragment_id, compact_site in catalog.compact_sites().items()
    }
    return SnapshotPayload(
        nodes=list(graph.nodes()),
        edges=list(graph.weighted_edges()),
        coordinates={node: (point.x, point.y) for node, point in graph.coordinates().items()},
        fragment_edges=[sorted(fragment.edges, key=repr) for fragment in fragmentation.fragments],
        algorithm=fragmentation.algorithm,
        semiring_name=catalog.semiring.name,
        complementary_values={pair: dict(values) for pair, values in complementary.values.items()},
        precompute_work=complementary.precompute_work,
        compact_fragments=compact_fragments,
        version_vector=version_vector.as_dict() if version_vector is not None else {},
        placement=placement.as_dict() if placement is not None else {},
        delta_sequence=delta_sequence,
    )


def compute_version(payload: SnapshotPayload) -> str:
    """Return the content hash of a payload (the snapshot / catalog version).

    The digest is over the ``repr`` of a canonical tuple — each section's
    items sorted by their ``repr`` — spelled out as a string so every item is
    ``repr``-ed once.  Snapshots on disk are compared against it: the text
    hashed here must not change.
    """
    sections = (
        _canonical(payload.nodes),
        _canonical(payload.edges),
        _canonical(payload.coordinates.items()),
        "[" + ", ".join(_canonical(edges) for edges in payload.fragment_edges) + "]",
        repr(payload.algorithm),
        repr(payload.semiring_name),
        "["
        + ", ".join(
            f"({pair!r}, {_canonical(payload.complementary_values[pair].items())})"
            for pair in sorted(payload.complementary_values)
        )
        + "]",
    )
    digest = hashlib.sha256(("(" + ", ".join(sections) + ")").encode("utf-8"))
    return digest.hexdigest()[:16]


def _canonical(items: Iterable[object]) -> str:
    """Return ``repr(sorted(items, key=repr))``, calling ``repr`` once per item."""
    return "[" + ", ".join(sorted(map(repr, items))) + "]"


# ----------------------------------------------------------------- save / load


def save_snapshot(
    directory: PathLike,
    engine: DisconnectionSetEngine,
    *,
    version_vector: Optional[VersionVector] = None,
    placement: Optional[PlacementPlan] = None,
    delta_sequence: int = 0,
) -> SnapshotManifest:
    """Serialise a prepared engine into ``directory`` and return its manifest.

    ``version_vector`` (when given) persists the per-fragment update
    versions, ``placement`` the fragment -> owner-worker plan, and
    ``delta_sequence`` the source delta log's position at snapshot time
    (what a restored service replays a live log from).  Like the compact
    fragments they are operational data and excluded from the content hash.
    """
    payload = _payload_from_engine(
        engine,
        version_vector=version_vector,
        placement=placement,
        delta_sequence=delta_sequence,
    )
    manifest = SnapshotManifest(
        version=compute_version(payload),
        semiring_name=payload.semiring_name,
        algorithm=payload.algorithm,
        fragment_count=len(payload.fragment_edges),
        node_count=len(payload.nodes),
        edge_count=len(payload.edges),
        complementary_facts=sum(len(values) for values in payload.complementary_values.values()),
    )
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    (target / PAYLOAD_FILE).write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    (target / MANIFEST_FILE).write_text(json.dumps(manifest.as_dict(), indent=2, sort_keys=True))
    return manifest


def is_snapshot_directory(directory: PathLike) -> bool:
    """Return ``True`` when ``directory`` looks like a saved snapshot."""
    target = Path(directory)
    return (target / MANIFEST_FILE).is_file() and (target / PAYLOAD_FILE).is_file()


def _read_manifest(directory: Path) -> SnapshotManifest:
    """Parse ``directory``'s manifest; anything short of a full one is a ``SnapshotError``."""
    try:
        return SnapshotManifest.from_dict(json.loads((directory / MANIFEST_FILE).read_text()))
    except (ValueError, KeyError, TypeError) as error:  # bad JSON, missing field, not an object
        raise SnapshotError(f"snapshot manifest in {directory} is unreadable: {error!r}") from error


def load_snapshot(directory: PathLike) -> LoadedSnapshot:
    """Reload a snapshot directory into a ready-to-query state.

    Raises:
        SnapshotError: when the directory is not a snapshot, its manifest or
            payload is truncated or corrupt, its format tag is not
            understood, or the payload does not hash to the manifest's
            version.  All of these are raised before any graph is built.
    """
    target = Path(directory)
    if not is_snapshot_directory(target):
        raise SnapshotError(f"{target} is not a snapshot directory (missing manifest or payload)")
    manifest = _read_manifest(target)
    if manifest.format != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot format {manifest.format!r} is not supported (expected {SNAPSHOT_FORMAT!r})"
        )
    try:
        payload = pickle.loads((target / PAYLOAD_FILE).read_bytes())
    except Exception as error:  # a damaged pickle can raise nearly anything
        raise SnapshotError(f"snapshot payload in {target} is unreadable: {error!r}") from error
    if not isinstance(payload, SnapshotPayload):
        raise SnapshotError(
            f"snapshot payload in {target} is a {type(payload).__name__}, not a SnapshotPayload"
        )
    actual_version = compute_version(payload)
    if actual_version != manifest.version:
        raise SnapshotError(
            f"snapshot payload does not match its manifest (payload hashes to "
            f"{actual_version}, manifest says {manifest.version}) — the directory "
            "is corrupt or mixes files from different snapshots"
        )
    graph = DiGraph(
        payload.edges,
        nodes=payload.nodes,
        coordinates={node: Point(x, y) for node, (x, y) in payload.coordinates.items()},
    )
    fragmentation = Fragmentation(graph, payload.fragment_edges, algorithm=payload.algorithm)
    complementary = ComplementaryInformation(
        semiring_name=payload.semiring_name,
        values={pair: dict(values) for pair, values in payload.complementary_values.items()},
        precompute_work=payload.precompute_work,
    )
    compact_sites = {
        fragment_id: CompactFragmentSite(
            fragment_id=fragment_id,
            state=entry["state"],  # type: ignore[arg-type]
            estimated_iterations=int(entry["iterations"]),  # type: ignore[arg-type]
        )
        for fragment_id, entry in getattr(payload, "compact_fragments", {}).items()
    }
    placement_state = getattr(payload, "placement", {}) or {}
    return LoadedSnapshot(
        manifest=manifest,
        fragmentation=fragmentation,
        complementary=complementary,
        semiring=semiring_from_name(payload.semiring_name),
        compact_sites=compact_sites,
        version_vector=VersionVector.from_dict(getattr(payload, "version_vector", {}) or {}),
        placement_plan=PlacementPlan.from_dict(placement_state) if placement_state else None,
        delta_sequence=int(getattr(payload, "delta_sequence", 0)),
    )
