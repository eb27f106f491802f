"""Snapshot store: pay the preparation once, reload it per process.

The expensive half of the disconnection set approach is preparation —
fragmenting the base relation and precomputing the complementary information
(one global search per border node).  A snapshot captures the prepared state
— base graph, fragment edge lists, complementary values — in a directory with
a JSON manifest and a binary payload, so a serving process reloads a ready
:class:`~repro.disconnection.engine.DisconnectionSetEngine` without redoing
any search work.

The payload, ``payload.bin`` (format ``repro-snapshot-v2``), is one
checksummed container of plain arrays, written with the standard library
only::

    MAGIC | header length (u32) | header crc32 (u32) | header JSON | sections

The header repeats the manifest's fields and lists every section's name,
``array`` typecode, item count and ``zlib.crc32``; the sections follow back
to back, little-endian.  *Content* sections — node labels (one JSON list of
ints, strings and tuples of these), edges as label-index arrays plus a
weight array, coordinates, each fragment's edge indices and the
complementary values — are written in a canonical order (labels sorted by
``repr`` once, everything else sorted as integers), and the snapshot
version is a sha256 over their raw bytes, so it is content-addressed and
does not depend on insertion order.  *Operational* sections — insertion
orders, the sites' CSR arrays with their overlays and persisted derived
states, the version vector, the placement and the delta sequence — are
checksummed like the rest but stay outside the version.

Loading checks every checksum, typecode, count, offset and index bound, and
every manifest field against the header, before any graph is built; any
damage is a :class:`SnapshotError`.  Nothing here unpickles.
"""

from __future__ import annotations

import functools
import json
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..closure import Semiring
from ..disconnection import CompactFragmentSite, ComplementaryInformation, DisconnectionSetEngine
from ..exceptions import ReproError
from ..fragmentation import Fragmentation
from ..graph import DiGraph, Point
from ..graph.compact import COMPACT_STATE_FORMAT
from ..incremental import VersionVector
from ..placement import PlacementPlan
from .pool import semiring_from_name

Node = Hashable
PathLike = Union[str, Path]

MANIFEST_FILE = "manifest.json"
PAYLOAD_FILE = "payload.bin"
SNAPSHOT_FORMAT = "repro-snapshot-v2"

MAGIC = b"REPROSNP"
_PREFIX = struct.Struct("<8sII")  # magic, header length, header crc32
_ITEMSIZE = {code: array(code).itemsize for code in "Bilqd"}
_SWAP = sys.byteorder != "little"  # sections are little-endian on disk
_INDEX = ("i", "q")  # label / edge index arrays: int32 when the count fits
_INTS = ("i", "l", "q")  # CSR offsets and neighbours keep the graph's own typecode
_OFFSETS = ("q",)
_FLOATS = ("d",)
_BYTES = ("B",)
_VALUE_TYPECODE = {"shortest_path": "d", "reachability": "B"}

# The content sections, in the order the version hashes them.
CONTENT_SECTIONS = (
    "labels", "edge_source", "edge_target", "edge_weight", "coord_node", "coord_xy",
    "fragment_offsets", "fragment_edges",
    "comp_pairs", "comp_offsets", "comp_source", "comp_target", "comp_value",
)
_SITE_ARRAYS = (
    ("fwd_offsets", _INTS),
    ("fwd_targets", _INTS),
    ("fwd_weights", _FLOATS),
    ("bwd_offsets", _INTS),
    ("bwd_sources", _INTS),
    ("bwd_weights", _FLOATS),
)
_MANIFEST_STRINGS = ("format", "version", "semiring", "algorithm")
_MANIFEST_COUNTS = ("fragment_count", "node_count", "edge_count", "complementary_facts")
_OPERATIONAL = ("precompute_work", "delta_sequence", "version_vector", "placement", "sites")


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
    hash deliberately excludes them.
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
        """Rebuild a manifest from its JSON dictionary.

        Raises:
            SnapshotError: when a field is missing, has the wrong JSON type,
                or is not one of the manifest's fields — a missing format tag
                included: it is never taken to mean the current format.
        """
        if not isinstance(document, dict):
            raise SnapshotError(f"a manifest is a JSON object, not {type(document).__name__}")
        unknown = set(document) - set(_MANIFEST_STRINGS) - set(_MANIFEST_COUNTS)
        if unknown:
            raise SnapshotError(f"manifest has unknown fields {sorted(unknown)}")
        for key in _MANIFEST_STRINGS:
            if not isinstance(document.get(key), str):
                raise SnapshotError(f"manifest field {key!r} is missing or not a string")
        for key in _MANIFEST_COUNTS:
            if not _is_count(document.get(key)):
                raise SnapshotError(f"manifest field {key!r} is missing or not a count")
        return cls(
            version=document["version"],  # type: ignore[arg-type]
            semiring_name=document["semiring"],  # type: ignore[arg-type]
            algorithm=document["algorithm"],  # type: ignore[arg-type]
            fragment_count=document["fragment_count"],  # type: ignore[arg-type]
            node_count=document["node_count"],  # type: ignore[arg-type]
            edge_count=document["edge_count"],  # type: ignore[arg-type]
            complementary_facts=document["complementary_facts"],  # type: ignore[arg-type]
            format=document["format"],  # type: ignore[arg-type]
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


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


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
        nodes=graph.nodes(),
        edges=graph.weighted_edges(),
        coordinates={node: (point.x, point.y) for node, point in graph.coordinates().items()},
        fragment_edges=[list(fragment.edges) for fragment in fragmentation.fragments],
        algorithm=fragmentation.algorithm,
        semiring_name=catalog.semiring.name,
        complementary_values=complementary.values,
        precompute_work=complementary.precompute_work,
        compact_fragments=compact_fragments,
        version_vector=version_vector.as_dict() if version_vector is not None else {},
        placement=placement.as_dict() if placement is not None else {},
        delta_sequence=delta_sequence,
    )


# ------------------------------------------------------------- JSON sections


def _json_bytes(document: object) -> bytes:
    return json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _as_label(value: object) -> Node:
    """Return the node label a decoded JSON value spells (lists become tuples)."""
    if type(value) is int or type(value) is str:
        return value  # type: ignore[return-value]
    if type(value) is list:
        return tuple(_as_label(item) for item in value)
    raise ValueError(f"node label {value!r} is not an int, a str or a tuple of these")


def _decode_labels(raw: bytes) -> List[Node]:
    document = json.loads(raw)
    if type(document) is not list:
        raise ValueError("the node labels are not a JSON list")
    return [_as_label(value) for value in document]


def _decode_overlay(raw: bytes, node_count: int) -> Dict[str, object]:
    """Decode a site's overlay into :meth:`CompactGraph.state` form, bounds checked."""
    document = json.loads(raw)
    if type(document) is not dict or set(document) != {"ops", "edge_count", "fwd", "bwd"}:
        raise ValueError("a site overlay is not an object of ops, edge_count, fwd and bwd")
    if not (_is_count(document["ops"]) and _is_count(document["edge_count"])):
        raise ValueError("a site overlay's ops / edge_count are not counts")
    overlay: Dict[str, object] = {"ops": document["ops"], "edge_count": document["edge_count"]}
    for direction in ("fwd", "bwd"):
        rows: Dict[int, List[Tuple[int, float]]] = {}
        if type(document[direction]) is not dict:
            raise ValueError(f"a site overlay's {direction} rows are not an object")
        for node_id, row in document[direction].items():
            entries = [(neighbour, weight) for neighbour, weight in row]
            if not all(
                type(neighbour) is int and 0 <= neighbour < node_count and type(weight) is float
                for neighbour, weight in entries
            ):
                raise ValueError(f"an overlay row holds an id outside [0, {node_count}) or a non-float")
            rows[int(node_id)] = entries
        if rows and (min(rows) < 0 or max(rows) >= node_count):
            raise ValueError(f"an overlay row is outside [0, {node_count})")
        overlay[direction] = rows
    return overlay


def _decode_derived(raw: bytes) -> Dict[str, object]:
    document = json.loads(raw)
    if type(document) is not dict:
        raise ValueError("a site's derived states are not a JSON object")
    return document


def _stored_json(what: str, document: object, decode: Callable[[bytes], object]) -> bytes:
    """Return ``document`` as JSON; a ``SnapshotError`` unless ``decode`` gives it back."""
    try:
        raw = _json_bytes(document)
        same = decode(raw) == document
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"{what} cannot be stored: {error}") from error
    if not same:
        raise SnapshotError(f"{what} does not survive a JSON round trip and cannot be stored")
    return raw


# ------------------------------------------------------------------ writing


class _Sections:
    """The section table and bodies of a container being written."""

    def __init__(self) -> None:
        self.table: List[List[object]] = []
        self.bodies: List[object] = []

    def add(self, name: str, typecode: str, body: object) -> None:
        if _SWAP and typecode != "B":
            body = array(typecode, body)  # type: ignore[arg-type]
            body.byteswap()
        self.table.append([name, typecode, len(body), zlib.crc32(body)])  # type: ignore[arg-type]
        self.bodies.append(body)


def _content_version(semiring_name: str, algorithm: str, sections: Sequence) -> str:
    """The sha256 of the content sections' raw bytes (first 16 hex digits).

    ``sections`` are ``(name, typecode, count, body)`` in
    :data:`CONTENT_SECTIONS` order, bodies in their on-disk byte order.
    """
    import hashlib  # here, not at module level: its OpenSSL library costs 3.6 MB resident

    digest = hashlib.sha256(_json_bytes([SNAPSHOT_FORMAT, semiring_name, algorithm]))
    for name, typecode, count, body in sections:
        digest.update(f"\0{name}\0{typecode}\0{count}\0".encode("utf-8"))
        digest.update(body)
    return digest.hexdigest()[:16]


def _ids(index_of: Dict[Node, int], nodes: Iterable[Node], what: str) -> List[int]:
    try:
        return [index_of[node] for node in nodes]
    except KeyError as error:
        raise SnapshotError(f"{what} {error.args[0]!r} is not a node of the graph") from None


def _edge_ids(rank_of: Dict[Tuple[Node, Node], int], pairs: Iterable, what: str) -> List[int]:
    try:
        return sorted([rank_of[pair] for pair in pairs])
    except KeyError as error:
        raise SnapshotError(f"{what} {error.args[0]!r} is not an edge of the graph") from None


def pack_payload(payload: SnapshotPayload) -> Tuple[SnapshotManifest, bytes]:
    """Encode a payload as a ``repro-snapshot-v2`` container; return its manifest too.

    Raises:
        SnapshotError: when the payload cannot be stored losslessly — a node
            label that is not an int, a str or a tuple of these, an edge,
            coordinate, fragment edge, complementary fact or site node that
            names no node, an edge listed twice, a fragment edge that is not
            an edge, or an overlay or derived state that JSON does not give
            back unchanged.
        ValueError: for a semiring other than the two standard ones.
    """
    value_typecode = _VALUE_TYPECODE.get(payload.semiring_name)
    if value_typecode is None:
        semiring_from_name(payload.semiring_name)  # raises the standard ValueError
    by_repr = {repr(node): node for node in payload.nodes}
    reprs = sorted(by_repr)
    labels = [by_repr[key] for key in reprs]
    try:
        raw_labels = _json_bytes(labels)
        same = [repr(label) for label in _decode_labels(raw_labels)] == reprs
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"a node label cannot be stored: {error}") from error
    if not same:
        raise SnapshotError("a node label does not survive a JSON round trip and cannot be stored")
    n = len(labels)
    index_of = {label: position for position, label in enumerate(labels)}
    if len(index_of) != n or len(payload.nodes) != n:
        raise SnapshotError("two nodes share a label")
    code = "i" if max(n, len(payload.edges)) < 2**31 else "q"

    # Edges sort as (source index, target index); ``edge_order`` gives each
    # edge's canonical position in insertion order.
    sources = _ids(index_of, [edge[0] for edge in payload.edges], "edge endpoint")
    targets = _ids(index_of, [edge[1] for edge in payload.edges], "edge endpoint")
    keys = [source * n + target for source, target in zip(sources, targets)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank_of_key = {keys[position]: rank for rank, position in enumerate(order)}
    if len(rank_of_key) != len(keys):
        raise SnapshotError("an edge is listed twice")
    edge_order = [rank_of_key[key] for key in keys]
    rank_of = dict(zip([(edge[0], edge[1]) for edge in payload.edges], edge_order))
    coordinate_ids = _ids(index_of, payload.coordinates, "coordinate node")
    coordinates = sorted(zip(coordinate_ids, payload.coordinates.values()))
    fragment_offsets, fragment_edges = array("q", [0]), array(code)
    for edges in payload.fragment_edges:
        fragment_edges.extend(_edge_ids(rank_of, edges, "fragment edge"))
        fragment_offsets.append(len(fragment_edges))
    comp_pairs, comp_offsets = array("q"), array("q", [0])
    comp_source, comp_target, comp_value = array(code), array(code), array(value_typecode)
    for pair in sorted(payload.complementary_values):
        facts = payload.complementary_values[pair]
        heads = _ids(index_of, [border_pair[0] for border_pair in facts], "complementary node")
        tails = _ids(index_of, [border_pair[1] for border_pair in facts], "complementary node")
        keyed = zip([head * n + tail for head, tail in zip(heads, tails)], heads, tails, facts.values())
        for _, head, tail, value in sorted(keyed):
            comp_source.append(head)
            comp_target.append(tail)
            comp_value.append(value)
        comp_pairs.extend(pair)
        comp_offsets.append(len(comp_source))

    sections = _Sections()
    sections.add("labels", "B", raw_labels)
    sections.add("edge_source", code, array(code, [sources[position] for position in order]))
    sections.add("edge_target", code, array(code, [targets[position] for position in order]))
    sections.add("edge_weight", "d", array("d", [payload.edges[position][2] for position in order]))
    sections.add("coord_node", code, array(code, [node for node, _ in coordinates]))
    sections.add("coord_xy", "d", array("d", [value for _, point in coordinates for value in point]))
    sections.add("fragment_offsets", "q", fragment_offsets)
    sections.add("fragment_edges", code, fragment_edges)
    sections.add("comp_pairs", "q", comp_pairs)
    sections.add("comp_offsets", "q", comp_offsets)
    sections.add("comp_source", code, comp_source)
    sections.add("comp_target", code, comp_target)
    sections.add("comp_value", value_typecode, comp_value)
    version = _content_version(
        payload.semiring_name,
        payload.algorithm,
        [(*entry[:3], body) for entry, body in zip(sections.table, sections.bodies)],
    )

    sections.add("node_order", code, array(code, _ids(index_of, payload.nodes, "node")))
    sections.add("edge_order", code, array(code, edge_order))
    sites = sorted(payload.compact_fragments.items())
    operational = {
        "precompute_work": payload.precompute_work,
        "delta_sequence": payload.delta_sequence,
        "version_vector": payload.version_vector,
        "placement": payload.placement,
        "sites": [[fragment_id, entry["iterations"]] for fragment_id, entry in sites],
    }
    sections.add("operational", "B", _json_bytes(operational))
    for fragment_id, entry in sites:
        state: Dict[str, object] = entry["state"]  # type: ignore[assignment]
        what = f"site {fragment_id}'s"
        prefix = f"site.{fragment_id}."
        if state.get("format") != COMPACT_STATE_FORMAT:
            raise SnapshotError(f"{what} state format {state.get('format')!r} is not supported")
        node_ids = _ids(index_of, state["nodes"], f"{what} node")  # type: ignore[arg-type]
        sections.add(prefix + "nodes", code, array(code, node_ids))
        for name, _ in _SITE_ARRAYS:
            body = state[name]
            sections.add(prefix + name, body.typecode, body)  # type: ignore[attr-defined]
        if state.get("overlay"):
            decode = functools.partial(_decode_overlay, node_count=len(node_ids))
            overlay = _stored_json(f"{what} overlay", state["overlay"], decode)
            sections.add(prefix + "overlay", "B", overlay)
        if state.get("derived"):
            derived = _stored_json(f"{what} derived state", state["derived"], _decode_derived)
            sections.add(prefix + "derived", "B", derived)

    manifest = SnapshotManifest(
        version=version,
        semiring_name=payload.semiring_name,
        algorithm=payload.algorithm,
        fragment_count=len(payload.fragment_edges),
        node_count=n,
        edge_count=len(keys),
        complementary_facts=len(comp_value),
    )
    header = _json_bytes({**manifest.as_dict(), "sections": sections.table})
    prefix = _PREFIX.pack(MAGIC, len(header), zlib.crc32(header))
    return manifest, b"".join([prefix, header, *sections.bodies])  # type: ignore[list-item]


# ------------------------------------------------------------------ reading


class _Container:
    """A verified container: every checksum matched, sections handed out by name."""

    def __init__(self, raw: bytes) -> None:
        view = memoryview(raw)
        if len(view) < _PREFIX.size:
            raise ValueError(f"{len(view)} bytes is shorter than the container prefix")
        magic, header_length, header_crc = _PREFIX.unpack_from(view)
        if magic != MAGIC:
            raise ValueError(f"magic tag {bytes(magic)!r} is not {MAGIC!r}")
        start = _PREFIX.size + header_length
        if start > len(view):
            raise ValueError("the header runs past the end of the file")
        header_bytes = view[_PREFIX.size : start]
        if zlib.crc32(header_bytes) != header_crc:
            raise ValueError("the header fails its crc32")
        header = json.loads(bytes(header_bytes))
        if type(header) is not dict or set(header) != {*_MANIFEST_STRINGS, *_MANIFEST_COUNTS, "sections"}:
            raise ValueError("the header does not hold exactly the manifest fields and sections")
        if header["format"] != SNAPSHOT_FORMAT:
            raise ValueError(f"the header's format {header['format']!r} is not {SNAPSHOT_FORMAT!r}")
        if not all(type(header[key]) is str for key in _MANIFEST_STRINGS) or not all(
            _is_count(header[key]) for key in _MANIFEST_COUNTS
        ):
            raise ValueError("a header field has the wrong JSON type")
        self.header: Dict[str, object] = header
        self._sections: Dict[str, Tuple[str, int, memoryview]] = {}
        for entry in header["sections"]:
            if not (
                type(entry) is list
                and len(entry) == 4
                and type(entry[0]) is str
                and entry[1] in _ITEMSIZE
                and _is_count(entry[2])
                and _is_count(entry[3])
            ):
                raise ValueError(f"section table entry {entry!r} is malformed")
            name, typecode, count, crc = entry
            if name in self._sections:
                raise ValueError(f"section {name!r} is listed twice")
            end = start + count * _ITEMSIZE[typecode]
            if end > len(view):
                raise ValueError(f"section {name!r} runs past the end of the file")
            body = view[start:end]
            if zlib.crc32(body) != crc:
                raise ValueError(f"section {name!r} fails its crc32")
            self._sections[name] = (typecode, count, body)
            start = end
        if start != len(view):
            raise ValueError(f"{len(view) - start} bytes follow the last section")

    def version(self) -> str:
        """Recompute the content version from the content sections' raw bytes."""
        return _content_version(
            self.header["semiring"],  # type: ignore[arg-type]
            self.header["algorithm"],  # type: ignore[arg-type]
            [(name, *self._entry(name)) for name in CONTENT_SECTIONS],
        )

    def _entry(self, name: str) -> Tuple[str, int, memoryview]:
        entry = self._sections.get(name)
        if entry is None:
            raise ValueError(f"section {name!r} is missing")
        return entry

    def has(self, name: str) -> bool:
        return name in self._sections

    def array(self, name: str, typecodes: Sequence[str], count: Optional[int] = None) -> array:
        """Take section ``name`` as an array whose typecode must be one of ``typecodes``."""
        typecode, length, body = self._entry(name)
        if typecode not in typecodes:
            raise ValueError(f"section {name!r} has typecode {typecode!r}, expected one of {typecodes}")
        if count is not None and length != count:
            raise ValueError(f"section {name!r} holds {length} items, expected {count}")
        del self._sections[name]
        values = array(typecode)
        values.frombytes(body)
        if _SWAP:
            values.byteswap()
        return values

    def json(self, name: str) -> bytes:
        """Take JSON section ``name``'s bytes."""
        return self.array(name, _BYTES).tobytes()

    def finish(self) -> None:
        if self._sections:
            raise ValueError(f"unexpected sections {sorted(self._sections)}")


def _check_bounds(values: array, bound: int, what: str) -> None:
    if values and (min(values) < 0 or max(values) >= bound):
        raise ValueError(f"{what} holds an index outside [0, {bound})")


def _check_offsets(offsets: array, entries: int, what: str) -> None:
    if not offsets or offsets[0] != 0 or offsets[-1] != entries or offsets.tolist() != sorted(offsets):
        raise ValueError(f"{what} are not offsets from 0 to {entries}")


def _check_distinct(values: array, what: str) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{what} lists an index twice")


def _decode_site(container: _Container, fragment_id: int, labels: List[Node]) -> Dict[str, object]:
    """Rebuild one site's :meth:`CompactGraph.state`, every CSR bound checked."""
    prefix = f"site.{fragment_id}."
    site_nodes = container.array(prefix + "nodes", _INDEX)
    k = len(site_nodes)
    _check_bounds(site_nodes, len(labels), prefix + "nodes")
    _check_distinct(site_nodes, prefix + "nodes")
    state: Dict[str, object] = {
        "format": COMPACT_STATE_FORMAT,
        "nodes": [labels[i] for i in site_nodes],
    }
    for name, typecodes in _SITE_ARRAYS:
        state[name] = container.array(prefix + name, typecodes)
    rows = len(state["fwd_offsets"]) - 1  # type: ignore[arg-type]
    arcs = len(state["fwd_targets"])  # type: ignore[arg-type]
    for offsets, neighbours, weights in (
        ("fwd_offsets", "fwd_targets", "fwd_weights"),
        ("bwd_offsets", "bwd_sources", "bwd_weights"),
    ):
        lengths = (len(state[offsets]) - 1, len(state[neighbours]), len(state[weights]))  # type: ignore[arg-type]
        if rows > k or lengths != (rows, arcs, arcs):
            raise ValueError(f"site {fragment_id}'s CSR arrays disagree on their row or arc counts")
        _check_offsets(state[offsets], arcs, prefix + offsets)  # type: ignore[arg-type]
        _check_bounds(state[neighbours], k, prefix + neighbours)  # type: ignore[arg-type]
    if container.has(prefix + "overlay"):
        state["overlay"] = _decode_overlay(container.json(prefix + "overlay"), k)
    if container.has(prefix + "derived"):
        state["derived"] = _decode_derived(container.json(prefix + "derived"))
    return state


def unpack_payload(raw: bytes) -> Tuple[Dict[str, object], SnapshotPayload]:
    """Decode a ``repro-snapshot-v2`` container into its header and payload.

    Every checksum, typecode, count, offset and index bound is checked, and
    the content version is recomputed from the raw bytes and compared with
    the header's.  Builds no graph.

    Raises:
        ValueError: (or ``TypeError`` / ``KeyError`` from a malformed JSON
            section) on any damage; :func:`load_snapshot` turns every one of
            them into a :class:`SnapshotError`.
    """
    container = _Container(raw)
    header = container.header
    value_typecode = _VALUE_TYPECODE.get(header["semiring"])  # type: ignore[arg-type]
    if value_typecode is None:
        raise ValueError(f"semiring {header['semiring']!r} is not a standard semiring")
    actual = container.version()
    if actual != header["version"]:
        raise ValueError(f"the content hashes to {actual}, the header says {header['version']}")
    n, m = header["node_count"], header["edge_count"]
    facts, fragment_count = header["complementary_facts"], header["fragment_count"]

    labels = _decode_labels(container.json("labels"))
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError(f"the {len(labels)} node labels are not {n} distinct labels")
    sources = container.array("edge_source", _INDEX, m)  # type: ignore[arg-type]
    targets = container.array("edge_target", _INDEX, m)  # type: ignore[arg-type]
    weights = container.array("edge_weight", _FLOATS, m)  # type: ignore[arg-type]
    coord_nodes = container.array("coord_node", _INDEX)
    coord_xy = container.array("coord_xy", _FLOATS, 2 * len(coord_nodes))
    fragment_offsets = container.array(
        "fragment_offsets", _OFFSETS, fragment_count + 1  # type: ignore[operator]
    )
    fragment_edges = container.array("fragment_edges", _INDEX)
    comp_pairs = container.array("comp_pairs", _OFFSETS)
    pair_count = len(comp_pairs) // 2
    comp_offsets = container.array("comp_offsets", _OFFSETS, pair_count + 1)
    comp_source = container.array("comp_source", _INDEX, facts)  # type: ignore[arg-type]
    comp_target = container.array("comp_target", _INDEX, facts)  # type: ignore[arg-type]
    comp_value = container.array("comp_value", (value_typecode,), facts)  # type: ignore[arg-type]
    node_order = container.array("node_order", _INDEX, n)  # type: ignore[arg-type]
    edge_order = container.array("edge_order", _INDEX, m)  # type: ignore[arg-type]
    for values, bound, what in (
        (sources, n, "edge_source"),
        (targets, n, "edge_target"),
        (coord_nodes, n, "coord_node"),
        (fragment_edges, m, "fragment_edges"),
        (comp_pairs, fragment_count, "comp_pairs"),
        (comp_source, n, "comp_source"),
        (comp_target, n, "comp_target"),
        (node_order, n, "node_order"),
        (edge_order, m, "edge_order"),
    ):
        _check_bounds(values, bound, what)  # type: ignore[arg-type]
    if value_typecode == "B":
        _check_bounds(comp_value, 2, "comp_value")
    for values, what in ((coord_nodes, "coord_node"), (node_order, "node_order"), (edge_order, "edge_order")):
        _check_distinct(values, what)
    _check_offsets(fragment_offsets, len(fragment_edges), "fragment_offsets")
    _check_offsets(comp_offsets, facts, "comp_offsets")  # type: ignore[arg-type]
    if len(comp_pairs) % 2 or len(set(zip(comp_pairs[0::2], comp_pairs[1::2]))) != pair_count:
        raise ValueError("comp_pairs is not a list of distinct fragment pairs")

    operational = json.loads(container.json("operational"))
    if type(operational) is not dict or set(operational) != set(_OPERATIONAL):
        raise ValueError(f"the operational section does not hold exactly {_OPERATIONAL}")
    if not (_is_count(operational["precompute_work"]) and _is_count(operational["delta_sequence"])):
        raise ValueError("precompute_work / delta_sequence are not counts")
    compact_fragments: Dict[int, Dict[str, object]] = {}
    for fragment_id, iterations in operational["sites"]:
        if not (_is_count(fragment_id) and _is_count(iterations)) or fragment_id in compact_fragments:
            raise ValueError(f"site entry {[fragment_id, iterations]!r} is malformed")
        state = _decode_site(container, fragment_id, labels)
        compact_fragments[fragment_id] = {"state": state, "iterations": iterations}
    container.finish()

    edges = [(labels[s], labels[t], w) for s, t, w in zip(sources, targets, weights)]
    to_value = bool if value_typecode == "B" else float
    payload = SnapshotPayload(
        nodes=[labels[i] for i in node_order],
        edges=[edges[i] for i in edge_order],
        coordinates=dict(zip([labels[i] for i in coord_nodes], zip(coord_xy[0::2], coord_xy[1::2]))),
        fragment_edges=[
            [edges[i][:2] for i in fragment_edges[fragment_offsets[f] : fragment_offsets[f + 1]]]
            for f in range(fragment_count)  # type: ignore[arg-type]
        ],
        algorithm=header["algorithm"],  # type: ignore[arg-type]
        semiring_name=header["semiring"],  # type: ignore[arg-type]
        complementary_values={
            (comp_pairs[2 * p], comp_pairs[2 * p + 1]): {
                (labels[comp_source[i]], labels[comp_target[i]]): to_value(comp_value[i])
                for i in range(comp_offsets[p], comp_offsets[p + 1])
            }
            for p in range(pair_count)
        },
        precompute_work=operational["precompute_work"],
        compact_fragments=compact_fragments,
        version_vector=_plain(VersionVector, operational["version_vector"]),
        placement=_plain(PlacementPlan, operational["placement"]),
        delta_sequence=operational["delta_sequence"],
    )
    return header, payload


def _plain(kind, document: object) -> Dict[str, object]:
    """Validate a version vector's or a placement's plain form by rebuilding it."""
    if type(document) is not dict:
        raise ValueError(f"a {kind.__name__} is not a JSON object")
    return kind.from_dict(document).as_dict() if document else {}


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
    manifest, raw = pack_payload(payload)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    (target / PAYLOAD_FILE).write_bytes(raw)
    (target / MANIFEST_FILE).write_text(json.dumps(manifest.as_dict(), indent=2, sort_keys=True))
    return manifest


def is_snapshot_directory(directory: PathLike) -> bool:
    """Return ``True`` when ``directory`` holds a snapshot manifest (of any format)."""
    return (Path(directory) / MANIFEST_FILE).is_file()


def _read_manifest(directory: Path) -> SnapshotManifest:
    """Parse ``directory``'s manifest; anything short of a full one is a ``SnapshotError``."""
    try:
        return SnapshotManifest.from_dict(json.loads((directory / MANIFEST_FILE).read_bytes()))
    except (ValueError, SnapshotError) as error:  # bad JSON or UTF-8, missing or mistyped field
        raise SnapshotError(f"snapshot manifest in {directory} is unreadable: {error}") from error


def load_snapshot(directory: PathLike) -> LoadedSnapshot:
    """Reload a snapshot directory into a ready-to-query state.

    Raises:
        SnapshotError: when the directory is not a snapshot, its manifest or
            payload is truncated or corrupt (a checksum, typecode, count,
            offset or index bound fails), its format tag is not understood
            (a ``repro-snapshot-v1`` directory included), or a manifest field
            differs from the payload header's.  All of these are raised
            before any graph is built.
    """
    target = Path(directory)
    if not is_snapshot_directory(target):
        raise SnapshotError(f"{target} is not a snapshot directory (missing {MANIFEST_FILE})")
    manifest = _read_manifest(target)
    if manifest.format != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot format {manifest.format!r} in {target} is not supported "
            f"(expected {SNAPSHOT_FORMAT!r}); take a new snapshot"
        )
    payload_path = target / PAYLOAD_FILE
    if not payload_path.is_file():
        raise SnapshotError(f"{target} is not a snapshot directory (missing {PAYLOAD_FILE})")
    try:
        header, payload = unpack_payload(payload_path.read_bytes())
    except (ValueError, TypeError, KeyError, RecursionError) as error:  # any damage at all
        raise SnapshotError(f"snapshot payload in {target} is unreadable: {error}") from error
    for key, value in manifest.as_dict().items():
        if header[key] != value:
            raise SnapshotError(
                f"snapshot payload in {target} does not match its manifest ({key}: "
                f"payload says {header[key]!r}, manifest says {value!r}) — the "
                "directory is corrupt or mixes files from different snapshots"
            )
    graph = DiGraph(
        payload.edges,
        nodes=payload.nodes,
        coordinates={node: Point(x, y) for node, (x, y) in payload.coordinates.items()},
    )
    fragmentation = Fragmentation(graph, payload.fragment_edges, algorithm=payload.algorithm)
    complementary = ComplementaryInformation(
        semiring_name=payload.semiring_name,
        values=payload.complementary_values,
        precompute_work=payload.precompute_work,
    )
    compact_sites = {
        fragment_id: CompactFragmentSite(
            fragment_id=fragment_id,
            state=entry["state"],  # type: ignore[arg-type]
            estimated_iterations=entry["iterations"],  # type: ignore[arg-type]
        )
        for fragment_id, entry in payload.compact_fragments.items()
    }
    return LoadedSnapshot(
        manifest=manifest,
        fragmentation=fragmentation,
        complementary=complementary,
        semiring=semiring_from_name(payload.semiring_name),
        compact_sites=compact_sites,
        version_vector=VersionVector.from_dict(payload.version_vector),
        placement_plan=PlacementPlan.from_dict(payload.placement) if payload.placement else None,
        delta_sequence=payload.delta_sequence,
    )
