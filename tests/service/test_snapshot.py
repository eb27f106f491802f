"""Tests for the snapshot store (prepare once, reload per process)."""

import inspect
import json
import pickle
import random
import struct
import zlib
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.disconnection.catalog as catalog_module
import repro.service.snapshot as snapshot_module
from repro.closure import chain_index, graph_shape, reachability_semiring, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import CompactDelta, CompactGraph, DiGraph, Point
from repro.incremental import VersionVector
from repro.placement import PlacementPlan
from repro.service import (
    QueryService,
    SnapshotError,
    is_snapshot_directory,
    load_snapshot,
    save_snapshot,
)
from repro.service.snapshot import (
    CONTENT_SECTIONS,
    MANIFEST_FILE,
    PAYLOAD_FILE,
    SnapshotPayload,
    pack_payload,
    unpack_payload,
)


@pytest.fixture(scope="module")
def prepared():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return graph, fragmentation, DisconnectionSetEngine(fragmentation)


def no_graph(*args, **kwargs):  # pragma: no cover - the point is it never runs
    raise AssertionError("a broken snapshot must be rejected before any graph is built")


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_answers(self, prepared, tmp_path):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)
        rebuilt = QueryService.from_snapshot(tmp_path / "snap")
        for source, target in [(0, 7), (1, 6), (3, 4), (0, 3)]:
            assert rebuilt.query(source, target).value == engine.query(source, target).value

    def test_round_trip_preserves_structure(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        manifest = save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.manifest.version == manifest.version
        assert loaded.fragmentation.fragment_count() == fragmentation.fragment_count()
        assert loaded.fragmentation.disconnection_sets() == fragmentation.disconnection_sets()
        assert loaded.complementary.values == engine.catalog.complementary.values
        assert manifest.edge_count == fragmentation.graph.edge_count()
        # Insertion orders are kept, so the rebuilt graph iterates as the saved one did.
        assert loaded.fragmentation.graph.nodes() == fragmentation.graph.nodes()
        assert loaded.fragmentation.graph.weighted_edges() == fragmentation.graph.weighted_edges()

    def test_load_does_not_recompute_complementary(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)

        def fail(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("snapshot load must not recompute complementary information")

        # The catalog calls the precomputation only when no complementary
        # information is supplied; a snapshot load must always supply it.
        monkeypatch.setattr(
            catalog_module, "precompute_complementary_information", fail
        )
        rebuilt = QueryService.from_snapshot(tmp_path / "snap")
        assert rebuilt.query(0, 7).value == engine.query(0, 7).value

    def test_version_is_content_addressed(self, prepared, tmp_path):
        _, _, engine = prepared
        first = save_snapshot(tmp_path / "one", engine)
        second = save_snapshot(tmp_path / "two", engine)
        assert first.version == second.version
        assert (tmp_path / "one" / PAYLOAD_FILE).read_bytes() == (
            tmp_path / "two" / PAYLOAD_FILE
        ).read_bytes()

    def test_version_differs_for_different_semirings(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        shortest = save_snapshot(tmp_path / "sp", engine)
        reach_engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        reach = save_snapshot(tmp_path / "reach", reach_engine)
        assert shortest.version != reach.version

    @pytest.mark.parametrize("semiring", [None, reachability_semiring()], ids=["sp", "reach"])
    def test_a_written_service_keeps_its_overlay_and_chain_index(self, semiring, tmp_path):
        # Labels of every stored kind, weights whose repr is not plain digits.
        left = [0, 1, "hub", ("x", 2)]
        right = ["it's", ("y", ("z", 0)), 7, "é"]
        weights = [1e-07, 1e16, 2.5, float("inf")]
        graph = DiGraph()
        for cluster in (left, right):
            for index, node in enumerate(cluster):
                graph.set_coordinate(node, Point(float(index), 1e-07 * index))
                for offset in (1, 2):
                    other = cluster[(index + offset) % len(cluster)]
                    graph.add_edge(node, other, weights[(index + offset) % len(weights)])
        graph.add_symmetric_edge("hub", "it's", 1.0)
        graph.add_symmetric_edge(("x", 2), 7, 3.0)
        fragmentation = GroundTruthFragmenter([set(left), set(right)]).fragment(graph)
        service = QueryService(fragmentation, semiring=semiring)
        for site in service.engine().catalog.sites():
            chain_index(site.compact())
            graph_shape(site.compact())
        service.update_edge(0, 1, 0.5)  # an overlay on fragment 0; fragment 1 keeps its index
        service.snapshot(tmp_path / "snap")
        expected = service.engine().catalog
        states = {f: site.state for f, site in expected.compact_sites().items()}
        assert "overlay" in states[0] and "chain_index" in states[1]["derived"]

        loaded = load_snapshot(tmp_path / "snap")
        assert {f: site.state for f, site in loaded.compact_sites.items()} == states
        assert loaded.version_vector == service.database.version_vector
        graph_now = expected.fragmentation.graph
        assert loaded.fragmentation.graph.nodes() == graph_now.nodes()
        assert loaded.fragmentation.graph.weighted_edges() == graph_now.weighted_edges()
        assert loaded.fragmentation.graph.coordinates() == graph_now.coordinates()
        assert [f.edges for f in loaded.fragmentation.fragments] == [
            f.edges for f in expected.fragmentation.fragments
        ]
        assert loaded.complementary.values == expected.complementary.values
        restored = QueryService.from_snapshot(tmp_path / "snap")
        for source in graph_now.nodes():
            for target in graph_now.nodes():
                assert restored.query(source, target).value == service.query(source, target).value


class TestSnapshotValidation:
    def test_rejects_non_snapshot_directory(self, tmp_path):
        assert not is_snapshot_directory(tmp_path)
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path)

    def test_rejects_payload_manifest_mismatch(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        save_snapshot(tmp_path / "a", engine)
        reach_engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        save_snapshot(tmp_path / "b", reach_engine)
        # Simulate a botched copy: snapshot a's manifest with b's payload.
        (tmp_path / "a" / PAYLOAD_FILE).write_bytes((tmp_path / "b" / PAYLOAD_FILE).read_bytes())
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            load_snapshot(tmp_path / "a")

    @pytest.mark.parametrize(
        "file_name, damage",
        [
            (PAYLOAD_FILE, lambda raw: raw[: len(raw) // 2]),
            (PAYLOAD_FILE, lambda raw: b""),
            (PAYLOAD_FILE, lambda raw: b"\x80\x04N."),  # a whole pickle, of None
            (PAYLOAD_FILE, lambda raw: raw + b"\0"),
            (MANIFEST_FILE, lambda raw: raw[: len(raw) // 2]),  # was json.JSONDecodeError
            (MANIFEST_FILE, lambda raw: b"{}"),  # was KeyError('version')
            (MANIFEST_FILE, lambda raw: b"[]"),
            (MANIFEST_FILE, lambda raw: raw.replace(b'"node_count": 8', b'"node_count": "many"')),
            (MANIFEST_FILE, lambda raw: raw.replace(b'"node_count": 8', b'"node_count": 8.0')),
            # A manifest that lost its format tag is not taken to be the current format.
            (
                MANIFEST_FILE,
                lambda raw: json.dumps(
                    {k: v for k, v in json.loads(raw).items() if k != "format"}
                ).encode(),
            ),
        ],
    )
    def test_broken_files_fail_closed(self, prepared, tmp_path, monkeypatch, file_name, damage):
        _, _, engine = prepared
        directory = tmp_path / "snap"
        save_snapshot(directory, engine)
        path = directory / file_name
        damaged = damage(path.read_bytes())
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        with pytest.raises(SnapshotError, match=str(directory)):
            load_snapshot(directory)

    def test_a_v1_directory_is_refused_by_its_format_tag(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        directory = write_v1_directory(tmp_path / "v1", engine)

        def no_unpickling(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("a snapshot load must never unpickle")

        monkeypatch.setattr(pickle, "loads", no_unpickling)
        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        assert is_snapshot_directory(directory)
        with pytest.raises(SnapshotError, match="repro-snapshot-v1"):
            load_snapshot(directory)

    def test_the_snapshot_module_has_no_pickle(self):
        source = inspect.getsource(snapshot_module)
        assert "import pickle" not in source and "pickle." not in source

    def test_rejects_nonstandard_semiring(self, prepared, tmp_path):
        _, fragmentation, _ = prepared
        engine = DisconnectionSetEngine(fragmentation, semiring=widest_path_semiring())
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "snap", engine)

    @pytest.mark.parametrize(
        "label", [1.5, True, ("x", 1.5), frozenset({1}), None], ids=repr
    )
    def test_a_label_json_cannot_give_back_is_refused_at_save(self, label):
        payload = SnapshotPayload([0, label], [(0, label, 1.0)], {}, [[(0, label)]], "", "shortest_path", {})
        with pytest.raises(SnapshotError, match="label"):
            pack_payload(payload)

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            ("edge_source", lambda values: values[:-1] + [-1], "outside"),
            ("edge_target", lambda values: values[:-1] + [8], "outside"),
            ("edge_weight", lambda values: values[:-1], "holds 27 items"),
            ("fragment_edges", lambda values: [-1] + values[1:], "outside"),
            ("fragment_offsets", lambda values: [0, 29, 28], "not offsets"),
            ("comp_source", lambda values: [-3] + values[1:], "outside"),
            ("comp_pairs", lambda values: [0, 2], "outside"),
            ("node_order", lambda values: [0] + values[:-1], "twice"),
            ("edge_order", lambda values: [-1] + values[1:], "outside"),
            ("site.0.nodes", lambda values: values[:-1] + [9], "outside"),
            ("site.0.fwd_targets", lambda values: [-1] + values[1:], "outside"),
            ("site.1.bwd_sources", lambda values: values[:-1] + [4], "outside"),
            ("site.1.fwd_offsets", lambda values: values[:-1] + [values[-1] + 1], "not offsets"),
            ("labels", lambda raw: b"[0,1,2,3,4,5,6,6]", "distinct"),
            ("labels", lambda raw: b"[0,1,2,3,4,5,6,7.5]", "not an int"),
            ("operational", lambda raw: b"{}", "operational"),
            ("site.1.derived", lambda raw: b"[]", "derived"),
        ],
    )
    def test_forged_sections_fail_closed(self, prepared, tmp_path, monkeypatch, section, edit, message):
        # A forged file carries valid checksums and a matching version: only
        # the typecode, count, offset and index-bound checks stand between it
        # and a graph.
        _, _, engine = prepared
        directory = tmp_path / "snap"
        save_snapshot(directory, engine)
        forge(directory, section, edit)
        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        with pytest.raises(SnapshotError, match=message):
            load_snapshot(directory)

    def test_an_unknown_section_fails_closed(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        directory = tmp_path / "snap"
        save_snapshot(directory, engine)
        forge(directory, "routes", lambda raw: b'{"(0, 1)": [3, 4]}')
        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        with pytest.raises(SnapshotError, match="unexpected sections"):
            load_snapshot(directory)

    def test_every_single_bit_flip_fails_closed(self, prepared, tmp_path, monkeypatch):
        """Each single-bit flip of either file raises ``SnapshotError`` before a graph.

        Tier-1 flips every bit of the manifest and of the payload's prefix
        and header plus a seeded sample of section bits; the ``ci``
        hypothesis profile (1 000 examples) flips every bit of both files.
        """
        _, _, engine = prepared
        directory = tmp_path / "snap"
        save_snapshot(directory, engine)
        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        exhaustive = settings.default.max_examples >= 1000
        escaped = []
        for name in (PAYLOAD_FILE, MANIFEST_FILE):
            path = directory / name
            pristine = path.read_bytes()
            bits = range(len(pristine) * 8)
            if name == PAYLOAD_FILE and not exhaustive:
                header_bits = 8 * (snapshot_module._PREFIX.size + struct.unpack_from("<8sII", pristine)[1])
                sample = random.Random(45).sample(range(header_bits, len(pristine) * 8), 400)
                bits = list(range(header_bits)) + sorted(sample)
            for bit in bits:
                damaged = bytearray(pristine)
                damaged[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(damaged)
                try:
                    load_snapshot(directory)
                except SnapshotError:
                    continue
                except Exception as error:  # noqa: BLE001 - every other outcome is an escape
                    escaped.append((name, bit, repr(error)))
                else:
                    escaped.append((name, bit, "loaded"))
            path.write_bytes(pristine)
        assert not escaped, escaped[:10]


def write_v1_directory(directory, engine):
    """A directory as the pickle-based format wrote it: v1 manifest, ``payload.pkl``."""
    save_snapshot(directory, engine)
    manifest = json.loads((directory / MANIFEST_FILE).read_text())
    manifest["format"] = "repro-snapshot-v1"
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (directory / PAYLOAD_FILE).unlink()
    (directory / "payload.pkl").write_bytes(pickle.dumps({"nodes": [0, 1]}))
    return directory


def forge(directory, section, edit):
    """Rewrite one payload section with valid checksums and a matching version.

    ``edit`` maps the section's values (a list for an array section, bytes
    for a JSON one) to new ones; a section not in the file is appended as a
    JSON section.
    """
    path = directory / PAYLOAD_FILE
    raw = path.read_bytes()
    _, length, _ = struct.unpack_from("<8sII", raw)
    start = snapshot_module._PREFIX.size
    header = json.loads(raw[start : start + length])
    offset = start + length
    bodies = {}
    for name, typecode, count, _ in header["sections"]:
        size = count * array(typecode).itemsize
        bodies[name] = raw[offset : offset + size]
        offset += size
    if section not in bodies:
        header["sections"].append([section, "B", 0, 0])
        bodies[section] = b""
    for entry in header["sections"]:
        name, typecode = entry[0], entry[1]
        if name == section:
            if typecode == "B":
                bodies[name] = edit(bodies[name])
            else:
                values = array(typecode)
                values.frombytes(bodies[name])
                bodies[name] = array(typecode, edit(values.tolist())).tobytes()
        entry[2] = len(bodies[name]) // array(typecode).itemsize
        entry[3] = zlib.crc32(bodies[name])
    table = {entry[0]: entry for entry in header["sections"]}
    header["version"] = snapshot_module._content_version(
        header["semiring"],
        header["algorithm"],
        [(name, table[name][1], table[name][2], bodies[name]) for name in CONTENT_SECTIONS],
    )
    encoded = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    path.write_bytes(
        struct.pack("<8sII", snapshot_module.MAGIC, len(encoded), zlib.crc32(encoded))
        + encoded
        + b"".join(bodies[entry[0]] for entry in header["sections"])
    )
    manifest = json.loads((directory / MANIFEST_FILE).read_text())
    manifest["version"] = header["version"]
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest))


# ---------------------------------------------------------- content version


LABEL = st.one_of(
    st.integers(min_value=-5, max_value=40),
    st.text(alphabet="ab'\"\\ é", max_size=4),  # quotes and escapes change how repr quotes
    st.tuples(st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=3)),
)
# 1e-07, 1e+16, inf and friends: floats whose repr is not plain digits.
WEIGHT = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([1e-7, 1e16, 1.5e300, 5e-324, float("inf"), 0.1 + 0.2, 2.0]),
)


@st.composite
def site_states(draw, nodes, edges):
    """A site's state as a real compact graph gives it: plain, overlaid or indexed."""
    graph = CompactGraph.from_edges(edges)
    kind = draw(st.sampled_from(["plain", "overlay", "chain"]))
    if kind == "overlay":
        node = st.sampled_from(nodes)
        graph.apply_delta(CompactDelta(inserts=((draw(node), draw(node), draw(WEIGHT)),)))
    elif kind == "chain":
        chain_index(graph)
        graph_shape(graph)
    return {"state": graph.state(), "iterations": draw(st.integers(min_value=0, max_value=9))}


@st.composite
def payloads(draw):
    nodes = draw(st.lists(LABEL, min_size=1, max_size=8, unique=True))
    node = st.sampled_from(nodes)
    pairs = draw(st.lists(st.tuples(node, node), max_size=12, unique=True))
    edges = [(source, target, draw(WEIGHT)) for source, target in pairs]
    fragment_count = draw(st.integers(min_value=1, max_value=3))
    owner = [draw(st.integers(min_value=0, max_value=fragment_count - 1)) for _ in pairs]
    fragment_edges = [[pair for pair, f in zip(pairs, owner) if f == fragment] for fragment in range(fragment_count)]
    semiring_name = draw(st.sampled_from(["shortest_path", "reachability"]))
    value = st.just(True) if semiring_name == "reachability" else WEIGHT
    fragment_pairs = [(i, j) for i in range(fragment_count) for j in range(i + 1, fragment_count)]
    complementary_values = (
        draw(
            st.dictionaries(
                st.sampled_from(fragment_pairs),
                st.dictionaries(st.tuples(node, node), value, max_size=4),
                max_size=3,
            )
        )
        if fragment_pairs
        else {}
    )
    compact_fragments = {
        fragment: draw(site_states(nodes, [edge for edge, f in zip(edges, owner) if f == fragment]))
        for fragment in range(fragment_count)
        if draw(st.booleans())
    }
    return SnapshotPayload(
        nodes=nodes,
        edges=edges,
        coordinates=draw(st.dictionaries(node, st.tuples(WEIGHT, WEIGHT), max_size=5)),
        fragment_edges=fragment_edges,
        algorithm=draw(st.sampled_from(["center-based", "it's \"quoted\"", ""])),
        semiring_name=semiring_name,
        complementary_values=complementary_values,
        precompute_work=draw(st.integers(min_value=0, max_value=10**6)),
        compact_fragments=compact_fragments,
        version_vector=VersionVector(
            {f: draw(st.integers(min_value=0, max_value=5)) for f in range(fragment_count)},
            epoch=draw(st.integers(min_value=0, max_value=3)),
        ).as_dict(),
        placement=draw(
            st.sampled_from(
                [{}, PlacementPlan({0: 1}, worker_count=2, replicas={0: (0,)}, policy="cost_balanced").as_dict()]
            )
        ),
        delta_sequence=draw(st.integers(min_value=0, max_value=10**6)),
    )


def comparable(payload):
    """A payload with each fragment's edge list as a set (stored sorted by edge index)."""
    return (
        payload.nodes,
        payload.edges,
        payload.coordinates,
        [set(edges) for edges in payload.fragment_edges],
        payload.algorithm,
        payload.semiring_name,
        payload.complementary_values,
        payload.precompute_work,
        payload.compact_fragments,
        payload.version_vector,
        payload.placement,
        payload.delta_sequence,
    )


def shuffled(payload, rng):
    """The same content with every insertion order shuffled (fragment ids kept)."""

    def mixed(items):
        items = list(items)
        rng.shuffle(items)
        return items

    return SnapshotPayload(
        nodes=mixed(payload.nodes),
        edges=mixed(payload.edges),
        coordinates=dict(mixed(payload.coordinates.items())),
        fragment_edges=[mixed(edges) for edges in payload.fragment_edges],
        algorithm=payload.algorithm,
        semiring_name=payload.semiring_name,
        complementary_values={
            pair: dict(mixed(payload.complementary_values[pair].items()))
            for pair in mixed(payload.complementary_values)
        },
        precompute_work=payload.precompute_work + 1,  # operational: outside the version
        delta_sequence=payload.delta_sequence + 1,
    )


class TestContentVersion:
    @settings(deadline=None)
    @given(payloads(), st.randoms(use_true_random=False))
    def test_version_ignores_insertion_order(self, payload, rng):
        assert pack_payload(shuffled(payload, rng))[0].version == pack_payload(payload)[0].version

    @settings(deadline=None)
    @given(payloads())
    @example(SnapshotPayload([0], [], {}, [[]], "", "shortest_path", {}))
    def test_a_round_trip_gives_back_the_payload(self, payload):
        manifest, raw = pack_payload(payload)
        header, loaded = unpack_payload(raw)
        assert header["version"] == manifest.version
        assert comparable(loaded) == comparable(payload)
        assert pack_payload(loaded) == (manifest, raw)

    def test_digest_of_a_fixed_payload_is_pinned(self):
        # Changing this literal orphans every snapshot already on disk: their
        # manifests say what their payloads hashed to when they were written.
        payload = SnapshotPayload(
            nodes=[0, 1, "hub", ("x", 2)],
            edges=[(0, 1, 1.0), (1, "hub", 2.5), ("hub", ("x", 2), 1e-07), (("x", 2), 0, 1e16)],
            coordinates={0: (0.0, 0.0), "hub": (1.5, -2.0)},
            fragment_edges=[[(0, 1), (1, "hub")], [("hub", ("x", 2)), (("x", 2), 0)], []],
            algorithm="center-based",
            semiring_name="shortest_path",
            complementary_values={(0, 1): {("hub", 0): 1e16, (0, "hub"): 3.5}, (1, 2): {}},
            precompute_work=7,  # operational: not part of the hash
        )
        assert pack_payload(payload)[0].version == "30146b45a977fc5c"
