"""Randomized interleavings of updates, queries and live refragments.

The oracle is a from-scratch rebuild: after any prefix of the operation
stream, a service that absorbed everything in place (incremental updates +
scoped refragments) must answer exactly like a fresh engine built over the
current graph and layout — for both standard semirings.  A second oracle is
the replay path: a replica restoring a pre-stream snapshot and replaying the
log (refragments included) must converge on the same answers.
"""

import random

import pytest

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import DiGraph
from repro.service import QueryService


def seeded_graph(rng, blocks=3, size=4):
    graph = DiGraph()
    node_blocks = [list(range(i * size, (i + 1) * size)) for i in range(blocks)]
    for block in node_blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                weight = rng.uniform(0.5, 3.0)
                graph.add_edge(a, b, weight)
                graph.add_edge(b, a, weight)
    for i in range(blocks - 1):
        left, right = node_blocks[i][-1], node_blocks[i + 1][0]
        weight = rng.uniform(0.5, 3.0)
        graph.add_edge(left, right, weight)
        graph.add_edge(right, left, weight)
    return graph, node_blocks


def random_blocks(rng, nodes, count):
    """A random node partition with every block nonempty."""
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, len(shuffled)), count - 1))
    blocks = []
    start = 0
    for cut in cuts + [len(shuffled)]:
        blocks.append(set(shuffled[start:cut]))
        start = cut
    return blocks


def assert_matches_fresh(service, semiring, probes):
    fragmentation = service.database.fragmentation()
    fresh = DisconnectionSetEngine(fragmentation, semiring=semiring)
    for source, target in probes:
        got = service.query(source, target).value
        want = fresh.query(source, target).value
        if isinstance(want, float) and isinstance(got, float):
            assert got == pytest.approx(want), (source, target)
        else:
            assert got == want, (source, target)


@pytest.mark.parametrize("seed", [3, 17, 52])
@pytest.mark.parametrize(
    "make_semiring", [shortest_path_semiring, reachability_semiring]
)
def test_interleaved_stream_matches_from_scratch_rebuilds(seed, make_semiring):
    rng = random.Random(seed)
    semiring = make_semiring()
    graph, blocks = seeded_graph(rng)
    nodes = sorted(graph.nodes())
    service = QueryService(
        GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph),
        semiring=semiring,
    )
    refragments_applied = 0
    for step in range(40):
        op = rng.random()
        if op < 0.45:
            source, target = rng.sample(nodes, 2)
            service.query(source, target)
        elif op < 0.75:
            source, target = rng.sample(nodes, 2)
            if service.database.graph.has_edge(source, target) and rng.random() < 0.4:
                try:
                    service.update_edge(source, target, delete=True)
                except Exception:
                    pass  # deleting the last edge of a fragment may fall back
            else:
                service.update_edge(source, target, rng.uniform(0.5, 3.0))
        else:
            count = rng.choice([2, 3, 4])
            service.refragment(
                GroundTruthFragmenter(random_blocks(rng, nodes, count))
            )
            refragments_applied += 1
        if step % 10 == 9:
            probes = [tuple(rng.sample(nodes, 2)) for _ in range(6)]
            assert_matches_fresh(service, semiring, probes)
    assert refragments_applied > 0
    assert service.stats.refragments.value() == refragments_applied
    probes = [tuple(rng.sample(nodes, 2)) for _ in range(10)]
    assert_matches_fresh(service, semiring, probes)


@pytest.mark.parametrize("seed", [7, 23])
def test_replay_converges_across_interleaved_refragments(tmp_path, seed):
    rng = random.Random(seed)
    graph, blocks = seeded_graph(rng)
    nodes = sorted(graph.nodes())
    live = QueryService(
        GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
    )
    live.snapshot(tmp_path / "snap")
    for _ in range(12):
        op = rng.random()
        if op < 0.6:
            source, target = rng.sample(nodes, 2)
            live.update_edge(source, target, rng.uniform(0.5, 3.0))
        else:
            count = rng.choice([2, 3])
            live.refragment(GroundTruthFragmenter(random_blocks(rng, nodes, count)))
    restored = QueryService.from_snapshot(
        tmp_path / "snap", replay_log=live.database.delta_log
    )
    assert restored.database.delta_log.last_sequence == live.database.delta_log.last_sequence
    assert [f.edges for f in restored.database.fragmentation().fragments] == [
        f.edges for f in live.database.fragmentation().fragments
    ]
    for _ in range(10):
        source, target = rng.sample(nodes, 2)
        assert restored.query(source, target).value == pytest.approx(
            live.query(source, target).value
        )
