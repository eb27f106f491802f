"""The keyhole property of every fragmenter's layout (Sec. 2.1, footnote 2).

For each pair of fragments ``i`` and ``j``, every path that uses only edges of
the two fragments and runs from a node only ``i`` holds to a node only ``j``
holds passes through ``DS_ij``.  This is what makes the per-fragment searches
with disconnection-set selections correct and precise.  The check here is an
independent search over the fragments' edge sets, not the library's own.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.fragmentation import Fragmentation
from repro.generators import two_cluster_dumbbell
from repro.refragmentation import REFRAGMENT_ALGORITHMS, fragmenter_for


def keyhole_violations(fragmentation: Fragmentation, border_of=None):
    """Return ``(i, j, source, target)`` for every pair joined around ``DS_ij``."""
    border_of = border_of or fragmentation.disconnection_set
    violations = []
    fragments = fragmentation.fragments
    for i in range(len(fragments)):
        for j in range(i + 1, len(fragments)):
            border = border_of(i, j)
            edges = fragments[i].edges | fragments[j].edges
            successors = {}
            for source, target in edges:
                if source not in border and target not in border:
                    successors.setdefault(source, []).append(target)
            interior_j = fragments[j].nodes - fragments[i].nodes
            for start in fragments[i].nodes - fragments[j].nodes:
                seen = {start}
                queue = deque([start])
                while queue:
                    node = queue.popleft()
                    for successor in successors.get(node, ()):
                        if successor not in seen:
                            seen.add(successor)
                            queue.append(successor)
                violations.extend((i, j, start, target) for target in seen & interior_j)
    return violations


@pytest.fixture(params=["transportation", "dumbbell"])
def graph(request, small_transportation_network):
    if request.param == "dumbbell":
        return two_cluster_dumbbell(6, bridge_nodes=2)
    return small_transportation_network.graph


@pytest.mark.parametrize("algorithm", REFRAGMENT_ALGORITHMS)
def test_every_fragmenter_layout_has_the_keyhole_property(algorithm, graph):
    fragmentation = fragmenter_for(algorithm, 3, graph=graph, seed=5).fragment(graph)
    assert fragmentation.fragment_count() > 1
    assert keyhole_violations(fragmentation) == []


def test_the_check_finds_a_path_around_a_missing_border_node():
    graph = two_cluster_dumbbell(4, bridge_nodes=1)
    edges = graph.edges()
    left = [(a, b) for a, b in edges if a < 4 and b < 4]
    fragmentation = Fragmentation(graph, [left, [edge for edge in edges if edge not in set(left)]])
    assert fragmentation.disconnection_set(0, 1)
    assert keyhole_violations(fragmentation) == []
    assert keyhole_violations(fragmentation, border_of=lambda i, j: frozenset())
