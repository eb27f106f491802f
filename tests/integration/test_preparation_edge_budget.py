"""Preparation derives its graphs in bulk: a call-count guard, not a timing one.

Building a service, snapshotting it, restoring it and answering one query
used to rebuild the base graph edge by edge six times over (≈ 6
``DiGraph.add_edge`` calls per arc).  Every one of those derivations now
fills adjacency rows directly; what still calls ``add_edge`` is genuine
mutation — the complementary shortcuts of an augmented fragment and the
fragment-level graph — a few dozen calls that do not grow with the arcs.
"""

from collections import Counter

from repro.fragmentation import CenterBasedFragmenter
from repro.graph import DiGraph
from repro.service import QueryService
from tests import graph_build_oracles as oracles
from tests.transit_layouts import ring_layout


def count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ("add_edge", "add_node"):
        original = getattr(DiGraph, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DiGraph, name, counting)
    return calls


def test_build_snapshot_restore_query_adds_no_edge_per_arc(tmp_path, monkeypatch):
    fragmentation, layout = ring_layout(4, 30)
    smallest_fragment = min(len(fragment.edges) for fragment in fragmentation.fragments)
    source, target = layout[0][5], layout[2][10]
    expected = QueryService(fragmentation).query(source, target).value

    calls = count_calls(monkeypatch)
    service = QueryService(fragmentation)
    service.snapshot(tmp_path / "snap")
    restored = QueryService.from_snapshot(tmp_path / "snap")
    assert restored.query(source, target).value == expected

    # Rebuilding any one graph edge by edge — even a single fragment's — would
    # alone exceed this; the parent of the bulk path made > 2 000 calls here.
    assert 0 < calls["add_edge"] < smallest_fragment
    assert calls["add_node"] < fragmentation.graph.node_count()


def test_center_based_layout_survives_every_bulk_derivation(tmp_path):
    fragmentation, _ = ring_layout(4, 30)
    graph = fragmentation.graph
    for node in graph.nodes():
        graph.set_coordinate(node, (float(node // 30) * 40.0 + node % 30, float(node % 7)))

    def layout_of(candidate: DiGraph):
        fragmenter = CenterBasedFragmenter(4, center_selection="distributed", seed=11)
        return [fragment.edges for fragment in fragmenter.fragment(candidate).fragments]

    service = QueryService(fragmentation)
    service.snapshot(tmp_path / "snap")
    restored = QueryService.from_snapshot(tmp_path / "snap")

    # Center scores sum floats in neighbors() order: the same fragments come
    # out only if every derived graph kept every row in the per-edge order.
    expected = layout_of(oracles.copy_by_edges(graph))
    assert layout_of(graph.copy()) == expected
    assert layout_of(service.database.graph) == expected
    assert layout_of(restored.database.graph) == expected
