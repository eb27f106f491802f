"""Small ring, chain and grid layouts with two-node disconnection sets.

Shared by the transit-table tests.  Every block is ``size`` nodes on a path
(with a few chords when symmetric); consecutive blocks are joined by two connecting edges, so
every disconnection set has two nodes and an intermediate fragment's
border-to-border subquery runs two searches.  Weights are small integers:
path sums are exact and ``==`` is a legitimate comparison.  Ring and chain
layouts give at most two chains a query; the grid layout gives up to 184.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st

import repro.closure.kernels as kernels_module
import repro.disconnection.local_query as local_query_module
from repro.disconnection.planner import LocalQuerySpec
from repro.fragmentation import Fragmentation, GroundTruthFragmenter
from repro.graph import DiGraph
from repro.graph.shortest_path import dijkstra
from repro.graph.traversal import bfs_levels
from repro.service import QueryService

Blocks = List[List[int]]


def node_blocks(blocks: int, size: int) -> Blocks:
    return [list(range(index * size, (index + 1) * size)) for index in range(blocks)]


def layout_graph(
    blocks: int, size: int, *, ring: bool, directed: bool, seed: int = 0
) -> Tuple[DiGraph, Blocks]:
    """``blocks`` clusters in a ring (or a line); one-way edges when ``directed``."""
    rng = random.Random(seed)
    graph = DiGraph()

    def connect(a: int, b: int) -> None:
        weight = float(rng.randint(1, 9))
        graph.add_edge(a, b, weight)
        if not directed:
            graph.add_edge(b, a, weight)

    layout = node_blocks(blocks, size)
    for block in layout:
        for a, b in zip(block, block[1:]):
            connect(a, b)
        if not directed:  # a one-way block stays a bare path: any deleted edge cuts it
            for offset in range(0, size - 2, 2):
                connect(block[offset], block[offset + 2])
    joins = blocks if ring else blocks - 1
    for index in range(joins):
        left, right = layout[index], layout[(index + 1) % blocks]
        connect(left[-1], right[0])
        connect(left[-2], right[1])
    return graph, layout


def fragment(graph: DiGraph, layout: Sequence[Sequence[int]]) -> Fragmentation:
    return GroundTruthFragmenter([set(block) for block in layout]).fragment(graph)


def ring_layout(blocks: int = 6, size: int = 6, seed: int = 0) -> Tuple[Fragmentation, Blocks]:
    """A symmetric ring: two chains per query, every fragment has two neighbours."""
    graph, layout = layout_graph(blocks, size, ring=True, directed=False, seed=seed)
    return fragment(graph, layout), layout


def chain_layout(blocks: int = 5, size: int = 6, seed: int = 0) -> Tuple[Fragmentation, Blocks]:
    """A one-way line: one chain per query, reachable only towards higher blocks."""
    graph, layout = layout_graph(blocks, size, ring=False, directed=True, seed=seed)
    return fragment(graph, layout), layout


def grid_layout(rows: int = 3, cols: int = 3, size: int = 8, seed: int = 0) -> Tuple[Fragmentation, Blocks]:
    """``rows x cols`` symmetric blocks, each joined to its grid neighbours: a cyclic layout.

    Block ``r * cols + c`` is a path of ``size >= 8`` nodes with chords; its
    first two nodes face west, the next two north, the next two south and the
    last two east, and two connecting edges join each facing pair.  The
    fragmentation graph is the ``rows x cols`` grid graph, so a corner-to-corner
    query has 12 chains on 3 x 3 blocks (under the planner's cap of 32) and
    184 on 4 x 4 (over it).  Every connecting edge outweighs any path inside
    a block: a detour out of a block and back is never shorter, so the chain
    cap is the only way a plan can miss the best path.
    """
    assert size >= 8, "four facing pairs need eight nodes a block"
    rng = random.Random(seed)
    graph = DiGraph()
    layout = node_blocks(rows * cols, size)
    for block in layout:
        for a, b in zip(block, block[1:]):
            graph.add_symmetric_edge(a, b, float(rng.randint(1, 9)))
        for offset in range(0, size - 2, 2):
            graph.add_symmetric_edge(block[offset], block[offset + 2], float(rng.randint(1, 9)))
    heavy = 10 * size  # more than the 9 * (size - 1) of any path inside a block
    for row in range(rows):
        for col in range(cols):
            block = layout[row * cols + col]
            if col + 1 < cols:
                east = layout[row * cols + col + 1]
                graph.add_symmetric_edge(block[-1], east[0], float(heavy + rng.randint(1, 9)))
                graph.add_symmetric_edge(block[-2], east[1], float(heavy + rng.randint(1, 9)))
            if row + 1 < rows:
                south = layout[(row + 1) * cols + col]
                graph.add_symmetric_edge(block[4], south[2], float(heavy + rng.randint(1, 9)))
                graph.add_symmetric_edge(block[5], south[3], float(heavy + rng.randint(1, 9)))
    return fragment(graph, layout), layout


def interior(layout: Blocks, block: int) -> List[int]:
    """Nodes of ``block`` that no connecting edge touches (never border nodes)."""
    return layout[block][2:-2]


def grid_neighbours(rows: int, cols: int) -> Set[FrozenSet[int]]:
    """The block pairs ``grid_layout(rows, cols)`` joins with connecting edges."""
    pairs = set()
    for block in range(rows * cols):
        if block % cols + 1 < cols:
            pairs.add(frozenset((block, block + 1)))
        if block + cols < rows * cols:
            pairs.add(frozenset((block, block + cols)))
    return pairs


def pairs_at(
    fragmentation: Fragmentation,
    layout: Blocks,
    where: str,
    *,
    ring: bool,
    neighbours: Optional[Set[FrozenSet[int]]] = None,
) -> Tuple[dict, List[Tuple[int, int]]]:
    """Node pairs of one location class, in the order a one-way chain allows.

    ``where`` is ``"inside"`` (one block, neither node a border node),
    ``"border"`` (one block, a border node at either end) or ``"connecting"``
    (adjacent blocks: consecutive ones, or the ``neighbours`` pairs of a grid).
    Returns ``(block of each node, pairs)``.
    """
    border = set()
    for fragment in fragmentation.fragments:
        border |= fragmentation.border_nodes(fragment.fragment_id)
    block_of = {node: index for index, block in enumerate(layout) for node in block}
    nodes = sorted(block_of)
    pairs = []
    for a in nodes:
        for b in nodes:
            if a == b or (not ring and a > b):
                continue
            gap = block_of[b] - block_of[a]
            if neighbours is None:
                adjacent = gap in (1, -1) or (ring and abs(gap) == len(layout) - 1)
            else:
                adjacent = frozenset((block_of[a], block_of[b])) in neighbours
            touches_border = a in border or b in border
            if (
                (where == "connecting" and adjacent)
                or (where == "border" and gap == 0 and touches_border)
                or (where == "inside" and gap == 0 and not touches_border)
            ):
                pairs.append((a, b))
    return block_of, pairs


def oracle_value(service: QueryService, source: int, target: int) -> Optional[object]:
    """The whole-graph answer over ``service``'s live base graph (``None``: no path).

    One ``dijkstra`` / ``bfs_levels`` over the whole graph: no fragmentation,
    no complementary information, no kernel, no table.
    """
    graph = service.database.graph
    if not (graph.has_node(source) and graph.has_node(target)):
        return None
    if service.semiring.name == "reachability":
        return True if target in bfs_levels(graph, source) else None
    distances, _ = dijkstra(graph, source, targets=[target])
    return distances.get(target)


def is_transit(site, task) -> bool:
    """Whether a ``(fragment, entry set, exit set)`` task is border-to-border at ``site``."""
    _, entry_nodes, exit_nodes = task
    return entry_nodes <= site.border_nodes and exit_nodes <= site.border_nodes


# ----------------------------------------------- local-query task sets

FRACTIONAL_BLOCKS, FRACTIONAL_SIZE = 5, 6
PICK = st.integers(min_value=0, max_value=10**6)
WRITE = st.tuples(
    st.sampled_from(("insert", "reweight", "delete")),
    st.sampled_from(range(FRACTIONAL_BLOCKS)),
    PICK,
    st.integers(min_value=1, max_value=97).map(lambda tenths: tenths / 10 + 0.01),
)
SPEC = st.tuples(
    st.sampled_from(("first", "last", "single", "transit", "border-to-set")),
    st.sampled_from(range(FRACTIONAL_BLOCKS)),
    st.integers(min_value=0, max_value=2),  # few distinct roots: task sets must collide
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)


def fractional_service(kind, semiring_factory, writes, **service_options):
    """A service over the ring or the one-way chain, with ``writes`` pending as overlay rows.

    Every weight has a fractional part on purpose: the plain layouts' integer
    weights make every path sum exact, and an inexact sum is what a changed
    summation order shows up in.
    """
    ring = kind == "ring"
    exact, layout = layout_graph(FRACTIONAL_BLOCKS, FRACTIONAL_SIZE, ring=ring, directed=not ring)
    graph = DiGraph(
        [(a, b, weight + ((a + b) % 7) / 10 + 0.01) for a, b, weight in exact.weighted_edges()]
    )
    service = QueryService(
        fragment(graph, layout), semiring=semiring_factory(), **service_options
    )
    for site in service.engine().catalog.sites():
        site.compact()  # a write to a site without a compact form rebuilds, not overlays
    for write in writes:
        apply_write(service, layout, write, ring=ring)
    return service, layout


def apply_write(service, layout, write, *, ring):
    """One drawn ``WRITE``: an edge between two nodes of one block, if the action applies."""
    action, block, pick, weight = write
    current = service.database.graph
    nodes = layout[block]
    a = nodes[pick % len(nodes)]
    b = nodes[(pick // len(nodes)) % len(nodes)]
    if a == b:
        return
    if not ring and a > b:
        a, b = b, a
    if current.has_edge(a, b):
        if action == "delete":
            service.update_edge(a, b, delete=True)
        else:
            service.update_edge(a, b, weight)
    elif action == "insert":
        service.update_edge(a, b, weight)


def specs_of(service, layout, draws, *, ring):
    fragmentation = service.engine().catalog.fragmentation
    count = fragmentation.fragment_count()
    specs = {}
    for where, block, pick_a, pick_b, clockwise in draws:
        step = 1 if clockwise or not ring else -1
        before, after = (block - step) % count, (block + step) % count
        if not ring and (block == 0 or block == count - 1):
            before = after = 1 if block == 0 else count - 2
        inside = interior(layout, block)
        a, b = inside[pick_a % len(inside)], inside[pick_b % len(inside)]
        incoming = fragmentation.disconnection_set(before, block)
        outgoing = fragmentation.disconnection_set(block, after)
        if where == "first":
            entries, exits = frozenset([a]), outgoing
        elif where == "last":
            entries, exits = incoming, frozenset([b])
        elif where == "single":
            entries, exits = frozenset([a]), frozenset([b])
        elif where == "transit":
            entries, exits = incoming, outgoing
        else:  # a query that starts on a border node
            entries, exits = frozenset([sorted(incoming)[pick_a % len(incoming)]]), outgoing
        spec = LocalQuerySpec(fragment_id=block, entry_nodes=entries, exit_nodes=exits)
        specs.setdefault(spec.key(), spec)
    return list(specs.values())


@contextmanager
def counted_searches():
    """Patch the evaluator's kernel; yields the settled count of every call made."""
    calls = []
    real = local_query_module.array_dijkstra

    def counting(*args, **kwargs):
        found = real(*args, **kwargs)
        calls.append(found[2])
        return found

    local_query_module.array_dijkstra = counting
    try:
        yield calls
    finally:
        local_query_module.array_dijkstra = real


@contextmanager
def counted_bfs():
    """Patch every full or keyhole BFS a local query runs; yields each call's root id.

    A bitset row fill calls the evaluator's ``bitset_reachable``; a
    reachability subquery that reads no rows runs the big-int backend of
    ``reachability_rows``.
    """
    calls = []
    real = kernels_module.bitset_reachable

    def counting(graph, source_id, **kwargs):
        calls.append(source_id)
        return real(graph, source_id, **kwargs)

    kernels_module.bitset_reachable = local_query_module.bitset_reachable = counting
    try:
        yield calls
    finally:
        kernels_module.bitset_reachable = local_query_module.bitset_reachable = real
