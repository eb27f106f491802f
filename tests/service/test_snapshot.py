"""Tests for the snapshot store (prepare once, reload per process)."""

import hashlib
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.disconnection.catalog as catalog_module
import repro.service.snapshot as snapshot_module
from repro.closure import reachability_semiring, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.service import (
    QueryService,
    SnapshotError,
    is_snapshot_directory,
    load_snapshot,
    save_snapshot,
)
from repro.service.snapshot import SnapshotPayload, compute_version


@pytest.fixture(scope="module")
def prepared():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return graph, fragmentation, DisconnectionSetEngine(fragmentation)


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

    def test_a_snapshot_with_stored_route_expansions_still_loads(self, prepared, tmp_path):
        # Payloads written before routes were traced on demand carry a
        # complementary_paths field; it was never hashed and nothing reads it.
        _, _, engine = prepared
        manifest = save_snapshot(tmp_path / "snap", engine)
        path = tmp_path / "snap" / "payload.pkl"
        payload = pickle.loads(path.read_bytes())
        payload.complementary_paths = {(0, 1): {(3, 4): [3, 4]}}
        path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert load_snapshot(tmp_path / "snap").manifest.version == manifest.version
        rebuilt = QueryService.from_snapshot(tmp_path / "snap")
        assert rebuilt.catalog_version.startswith(f"{manifest.version}.")
        for source, target in [(0, 7), (1, 6), (3, 4), (0, 3)]:
            assert rebuilt.query(source, target).value == engine.query(source, target).value

    def test_version_differs_for_different_semirings(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        shortest = save_snapshot(tmp_path / "sp", engine)
        reach_engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        reach = save_snapshot(tmp_path / "reach", reach_engine)
        assert shortest.version != reach.version


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
        (tmp_path / "a" / "payload.pkl").write_bytes((tmp_path / "b" / "payload.pkl").read_bytes())
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            load_snapshot(tmp_path / "a")

    @pytest.mark.parametrize(
        "file_name, damage",
        [
            ("payload.pkl", lambda raw: raw[: len(raw) // 2]),  # was pickle.UnpicklingError
            ("payload.pkl", lambda raw: b""),  # was EOFError
            ("payload.pkl", lambda raw: b"\x80\x04N."),  # a whole pickle, of None
            ("manifest.json", lambda raw: raw[: len(raw) // 2]),  # was json.JSONDecodeError
            ("manifest.json", lambda raw: b"{}"),  # was KeyError('version')
            ("manifest.json", lambda raw: b"[]"),
            ("manifest.json", lambda raw: raw.replace(b'"node_count": 8', b'"node_count": "many"')),
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

        def no_graph(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("a broken snapshot must be rejected before any graph is built")

        monkeypatch.setattr(snapshot_module, "DiGraph", no_graph)
        with pytest.raises(SnapshotError, match=str(directory)):
            load_snapshot(directory)

    def test_rejects_nonstandard_semiring(self, prepared, tmp_path):
        _, fragmentation, _ = prepared
        engine = DisconnectionSetEngine(fragmentation, semiring=widest_path_semiring())
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "snap", engine)


# ------------------------------------------------------------- content hash


def compute_version_by_sorting(payload: SnapshotPayload) -> str:
    """The content hash as first written: sort by ``repr``, then ``repr`` the lot.

    Every snapshot on disk carries this digest in its manifest, so it is the
    reference ``compute_version`` has to keep reproducing.
    """
    canonical = (
        sorted(payload.nodes, key=repr),
        sorted(payload.edges, key=repr),
        sorted(payload.coordinates.items(), key=repr),
        [sorted(edges, key=repr) for edges in payload.fragment_edges],
        payload.algorithm,
        payload.semiring_name,
        sorted(
            (pair, sorted(values.items(), key=repr))
            for pair, values in payload.complementary_values.items()
        ),
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]


NODE_KEY = st.one_of(
    st.integers(min_value=-5, max_value=40),
    st.text(alphabet="ab'\"\\ é", max_size=4),  # quotes and escapes change how repr quotes
    st.tuples(st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=3)),
)
# 1e-07, 1e+16, inf and friends: floats whose repr is not plain digits.
VALUE = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([1e-7, 1e16, 1.5e300, 5e-324, float("inf"), 0.1 + 0.2, 2.0]),
    st.booleans(),
)
NODE_PAIR = st.tuples(NODE_KEY, NODE_KEY)
FRAGMENT_PAIR = st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))


@st.composite
def payloads(draw):
    return SnapshotPayload(
        nodes=draw(st.lists(NODE_KEY, max_size=8)),
        edges=draw(st.lists(st.tuples(NODE_KEY, NODE_KEY, VALUE), max_size=10)),
        coordinates=draw(st.dictionaries(NODE_KEY, st.tuples(VALUE, VALUE), max_size=5)),
        fragment_edges=draw(st.lists(st.lists(NODE_PAIR, max_size=5), max_size=4)),
        algorithm=draw(st.sampled_from(["center-based", "it's \"quoted\"", ""])),
        semiring_name=draw(st.sampled_from(["shortest_path", "reachability"])),
        # An empty table, and a fragment pair with no facts, both occur.
        complementary_values=draw(
            st.dictionaries(FRAGMENT_PAIR, st.dictionaries(NODE_PAIR, VALUE, max_size=4), max_size=4)
        ),
    )


class TestContentHash:
    @settings(max_examples=300, deadline=None)
    @given(payloads())
    @example(SnapshotPayload([], [], {}, [], "", "shortest_path", {}))
    def test_one_pass_hash_is_the_sorting_hash(self, payload):
        assert compute_version(payload) == compute_version_by_sorting(payload)

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
        assert compute_version(payload) == "7b07814a7ccd989d"

    def test_saved_manifest_carries_the_sorting_hash(self, prepared, tmp_path):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        payload = pickle.loads((tmp_path / "snap" / "payload.pkl").read_bytes())
        assert manifest["version"] == compute_version_by_sorting(payload)
