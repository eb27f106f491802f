"""Property tests for the compact-graph delta overlay.

Random insert/delete/reweight interleavings are applied one elementary
change at a time through :meth:`CompactGraph.apply_delta` with compaction
suppressed, so every query reads *through* a deep overlay.  Answers are
compared against a from-scratch rebuild of the same final graph: edge
lists, reachability rows (every kernel backend, pinned), Dijkstra distances
and a custom-semiring fixpoint must all be bit-identical.  Integer edge
weights keep float sums exact, so ``==`` comparisons are legitimate.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure import Semiring, numpy_available, packed_matrix
from repro.closure.backends import BACKEND_BIGINT, BACKEND_CHAIN, BACKEND_NUMPY, PACKED_KEY
from repro.closure.kernels import array_dijkstra, reachability_rows, seminaive_closure_ids
from repro.graph import CompactDelta, CompactGraph, DiGraph, dijkstra

INF = float("inf")


@st.composite
def op_sequences(draw):
    """Draw ``(base_edges, ops)``: a seed edge dict and an op interleaving.

    Ops reference only pairs that exist (delete/reweight) or do not exist
    (insert) at that point, mirroring the mutable front-end's discipline,
    so a plain ``{pair: weight}`` model tracks the expected graph exactly.
    """
    node_pool = list(range(draw(st.integers(min_value=4, max_value=8))))
    pair = st.tuples(st.sampled_from(node_pool), st.sampled_from(node_pool)).filter(
        lambda p: p[0] != p[1]
    )
    base_pairs = sorted(draw(st.sets(pair, min_size=2, max_size=10)))
    base = {p: float(draw(st.integers(min_value=1, max_value=9))) for p in base_pairs}
    current = dict(base)
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=18))):
        kind = draw(st.sampled_from(("insert", "delete", "reweight")))
        if kind == "insert":
            candidates = [
                p for a in node_pool for b in node_pool
                if a != b and (p := (a, b)) not in current
            ]
            if not candidates:
                continue
            target = draw(st.sampled_from(sorted(candidates)))
            weight = float(draw(st.integers(min_value=1, max_value=9)))
            current[target] = weight
            ops.append(("insert", target, weight))
        elif not current:
            continue
        elif kind == "delete":
            target = draw(st.sampled_from(sorted(current)))
            del current[target]
            ops.append(("delete", target, 0.0))
        else:
            target = draw(st.sampled_from(sorted(current)))
            weight = float(draw(st.integers(min_value=1, max_value=9)))
            current[target] = weight
            ops.append(("reweight", target, weight))
    return base, ops


def replay(base, ops, warm=None):
    """Return ``(overlay_graph, control_digraph, expected_edges)``.

    The overlay graph absorbs every op as its own one-element delta with
    compaction suppressed; the control digraph replays the same ops on the
    mutable front-end and is what a from-scratch rebuild sees.  ``warm`` is
    called on the overlay graph before the first op (to cache something the
    ops must then drop).
    """
    control = DiGraph([(a, b, w) for (a, b), w in base.items()])
    graph = CompactGraph.from_digraph(control.copy())
    graph.overlay_threshold = 10 ** 9
    if warm is not None:
        warm(graph)
    expected = dict(base)
    for kind, (a, b), weight in ops:
        if kind == "insert":
            graph.apply_delta(CompactDelta(inserts=((a, b, weight),)))
            control.add_edge(a, b, weight)
            expected[(a, b)] = weight
        elif kind == "delete":
            graph.apply_delta(CompactDelta(deletes=(((a, b)),)))
            control.remove_edge(a, b)
            del expected[(a, b)]
        else:
            graph.apply_delta(CompactDelta(reweights=((a, b, weight),)))
            control.add_edge(a, b, weight)
            expected[(a, b)] = weight
    return graph, control, expected


def reachable_names(graph, backend):
    rows, _ = reachability_rows(graph, list(range(graph.node_count())), backend=backend)
    return {
        graph.node_of(sid): {
            graph.node_of(tid)
            for tid in range(graph.node_count())
            if (mask >> tid) & 1
        }
        for sid, mask in rows.items()
    }


@settings(max_examples=30, deadline=None)
@given(op_sequences())
def test_overlay_edges_match_the_model(case):
    base, ops = case
    graph, _, expected = replay(base, ops)
    if ops:
        assert graph.overlay_depth() == len(ops)
    assert sorted(graph.weighted_edges()) == sorted(
        (a, b, w) for (a, b), w in expected.items()
    )
    assert graph.edge_count() == len(expected)


@settings(max_examples=30, deadline=None)
@given(op_sequences())
def test_overlay_reachability_matches_a_rebuild_on_every_backend(case):
    base, ops = case
    backends = [BACKEND_BIGINT, BACKEND_CHAIN]
    if numpy_available():
        backends.append(BACKEND_NUMPY)
    # A packed matrix of the base graph is dropped by the first op, not
    # patched: the pinned numpy rows below come from a matrix built after.
    graph, control, _ = replay(
        base, ops, warm=packed_matrix if BACKEND_NUMPY in backends else None
    )
    if ops:
        assert graph.derived_get(PACKED_KEY) is None
    rebuild = CompactGraph.from_digraph(control)
    # bigint first: it reads straight through the live overlay; the pinned
    # indexed backends then force a compaction and must agree afterwards.
    for backend in backends:
        assert reachable_names(graph, backend) == reachable_names(rebuild, backend), backend


@settings(max_examples=30, deadline=None)
@given(op_sequences())
def test_overlay_dijkstra_matches_the_mutable_front_end(case):
    base, ops = case
    graph, control, _ = replay(base, ops)
    assert sorted(graph.nodes()) == sorted(control.nodes())
    for source in control.nodes():
        distances, _, _ = array_dijkstra(graph, graph.node_id(source))
        via_overlay = {
            graph.node_of(nid): value
            for nid, value in enumerate(distances)
            if value != INF
        }
        expected, _ = dijkstra(control, source)
        assert via_overlay == expected


@settings(max_examples=20, deadline=None)
@given(op_sequences())
def test_overlay_custom_semiring_fixpoint_matches_a_rebuild(case):
    base, ops = case
    graph, control, _ = replay(base, ops)
    rebuild = CompactGraph.from_digraph(control)
    semiring = Semiring(
        name="widest", plus=max, times=min, zero=0.0, one=INF
    )

    def by_name(target, values):
        return {
            (target.node_of(a), target.node_of(b)): value
            for (a, b), value in values.items()
        }

    overlay_values, _ = seminaive_closure_ids(graph, semiring)
    rebuild_values, _ = seminaive_closure_ids(rebuild, semiring)
    assert by_name(graph, overlay_values) == by_name(rebuild, rebuild_values)


@settings(max_examples=20, deadline=None)
@given(op_sequences())
def test_overlay_state_survives_pickling_and_compaction(case):
    base, ops = case
    graph, _, expected = replay(base, ops)
    revived = pickle.loads(pickle.dumps(graph))
    assert sorted(revived.weighted_edges()) == sorted(graph.weighted_edges())
    assert revived.edge_count() == graph.edge_count()
    revived.compact_now()
    graph.compact_now()
    assert not graph.has_overlay()
    assert sorted(graph.weighted_edges()) == sorted(
        (a, b, w) for (a, b), w in expected.items()
    )
    assert sorted(revived.weighted_edges()) == sorted(graph.weighted_edges())
