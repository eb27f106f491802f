"""Bond-energy fragmentation (Sec. 3.2 of the paper).

This algorithm aims at *small disconnection sets*.  It is a variant of the
bond energy algorithm (BEA) of McCormick, Schweitzer and White (1972):

1. Build the (symmetric) adjacency matrix of the graph, with the diagonal set
   to 1.
2. Reorder the columns so that closely related nodes end up next to each
   other: columns are placed one at a time at the position (leftmost,
   rightmost, or between any two placed columns) that maximises the sum of
   inner products of adjacent columns.  The outcome depends on the column
   chosen first, so the paper iterates over all possible first columns and
   keeps the best ordering; because that multiplies the cost by ``n`` we make
   the number of restarts configurable (``restarts=None`` reproduces the
   paper's exhaustive iteration).
3. Split the reordered matrix into blocks of contiguous columns.  The paper
   scans the columns left to right and splits when a *local condition* holds;
   it implements the **threshold** condition (split as soon as the number of
   connections from the current block to nodes outside it reaches a
   threshold) with a minimum block size to avoid fragments that are "too
   small".  Both are derived from the graph, and a local-minimum splitting
   policy is provided as well for completeness.

Each block of nodes becomes a fragment; edges inside a block belong to that
fragment, edges between blocks are assigned to the lower-indexed block (so the
shared endpoint becomes part of both fragments' node sets, i.e. of the
disconnection set).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph
from .base import Fragmentation, fragmentation_from_node_blocks
from .protocols import Fragmenter

Node = Hashable

SPLIT_THRESHOLD = "threshold"
SPLIT_LOCAL_MINIMUM = "local_minimum"

# The floor of the minimum block size, max(2, |V| / (2 * fragment_count)).
MIN_BLOCK_COLUMNS = 2


class BondEnergyFragmenter(Fragmenter):
    """The bond-energy fragmentation algorithm.

    Args:
        fragment_count: desired number of fragments.
        split_policy: ``"threshold"`` (the paper's implemented choice) or
            ``"local_minimum"`` (split at local minima of the external
            connection count).
        restarts: how many different first columns to try for the BEA
            ordering; ``None`` tries every column (the paper's exhaustive
            variant, quadratic in the node count on top of the placement
            cost).

    The split threshold is half the graph's average node degree (at least
    2).  A block holds at least ``max(MIN_BLOCK_COLUMNS, n // (2 *
    fragment_count))`` columns: the paper's "finetuning" against fragments
    that are too small.
    """

    name = "bond-energy"

    def __init__(
        self,
        fragment_count: int,
        *,
        split_policy: str = SPLIT_THRESHOLD,
        restarts: Optional[int] = 4,
    ) -> None:
        if fragment_count <= 0:
            raise FragmenterConfigurationError("fragment_count must be positive")
        if split_policy not in (SPLIT_THRESHOLD, SPLIT_LOCAL_MINIMUM):
            raise FragmenterConfigurationError(f"unknown split_policy {split_policy!r}")
        if restarts is not None and restarts <= 0:
            raise FragmenterConfigurationError("restarts must be positive or None")
        self.fragment_count = fragment_count
        self.split_policy = split_policy
        self.restarts = restarts

    # ------------------------------------------------------------------ API

    def fragment(self, graph: DiGraph) -> Fragmentation:
        """Fragment ``graph`` via BEA ordering plus contiguous-block splitting."""
        if graph.edge_count() == 0:
            raise FragmenterConfigurationError("cannot fragment a graph with no edges")
        ordering = self.order_columns(graph)
        blocks = self.split_ordering(graph, ordering)
        return fragmentation_from_node_blocks(graph, blocks, algorithm=self.name)

    # ------------------------------------------------------------- ordering

    def order_columns(self, graph: DiGraph) -> List[Node]:
        """Return the BEA column ordering of the graph's nodes."""
        nodes = graph.nodes()
        if len(nodes) <= 2:
            return list(nodes)
        adjacency = self._adjacency_rows(graph)
        inner = _InnerProductCache(adjacency)
        start_columns = self._start_columns(nodes)
        best_order: Optional[List[Node]] = None
        best_score = float("-inf")
        for start in start_columns:
            order, score = self._place_all(nodes, start, inner)
            if score > best_score:
                best_order, best_score = order, score
        assert best_order is not None  # at least one start column is tried
        return best_order

    def _start_columns(self, nodes: Sequence[Node]) -> List[Node]:
        if self.restarts is None or self.restarts >= len(nodes):
            return list(nodes)
        # Deterministic, spread over the node list.
        step = max(1, len(nodes) // self.restarts)
        return [nodes[index] for index in range(0, len(nodes), step)][: self.restarts]

    @staticmethod
    def _adjacency_rows(graph: DiGraph) -> Dict[Node, Set[Node]]:
        """Return, per column (node), the set of rows with a 1 (neighbours + self)."""
        rows: Dict[Node, Set[Node]] = {}
        for node in graph.nodes():
            rows[node] = set(graph.neighbors(node))
            rows[node].add(node)
        return rows

    def _place_all(
        self,
        nodes: Sequence[Node],
        start: Node,
        inner: "_InnerProductCache",
    ) -> Tuple[List[Node], float]:
        """Place every column greedily, starting from ``start``; return order and bond score."""
        placed: List[Node] = [start]
        remaining: List[Node] = [node for node in nodes if node != start]
        # Place the column maximising the inner product with the start column
        # first (the paper's explicit second step), then continue greedily.
        while remaining:
            best_node_index = 0
            best_position = 0
            best_gain = float("-inf")
            for node_index, node in enumerate(remaining):
                position, gain = self._best_position(placed, node, inner)
                if gain > best_gain:
                    best_gain = gain
                    best_node_index = node_index
                    best_position = position
            node = remaining.pop(best_node_index)
            placed.insert(best_position, node)
        score = sum(inner.product(placed[i], placed[i + 1]) for i in range(len(placed) - 1))
        return placed, float(score)

    @staticmethod
    def _best_position(
        placed: Sequence[Node],
        node: Node,
        inner: "_InnerProductCache",
    ) -> Tuple[int, float]:
        """Return the insertion position of ``node`` maximising the bond gain."""
        best_position = 0
        best_gain = float("-inf")
        for position in range(len(placed) + 1):
            left = placed[position - 1] if position > 0 else None
            right = placed[position] if position < len(placed) else None
            gain = 0.0
            if left is not None:
                gain += inner.product(left, node)
            if right is not None:
                gain += inner.product(node, right)
            if left is not None and right is not None:
                gain -= inner.product(left, right)
            if gain > best_gain:
                best_gain = gain
                best_position = position
        return best_position, best_gain

    # ------------------------------------------------------------ splitting

    def split_ordering(self, graph: DiGraph, ordering: Sequence[Node]) -> List[List[Node]]:
        """Split an ordered node sequence into contiguous blocks (fragments).

        The columns are scanned once, left to right (as in the paper); the
        number of connections from the current block to nodes outside it is
        maintained incrementally.  Under the threshold policy the block is cut
        as soon as that count has come down to the threshold — for a well
        clustered ordering the count rises while a cluster is being crossed
        and collapses to the few inter-cluster connections at its boundary,
        which is exactly where the cut should land.  If the count never
        reaches the threshold before the block hits its size cap (general
        graphs without sharp cluster structure), the cut is placed at the best
        (lowest-count) position seen so far.
        """
        n = len(ordering)
        if n == 0:
            return []
        threshold = self._derive_threshold(graph)
        # The paper's "finetuning" against fragments that are too small: a
        # block holds at least half a fair share of the columns.
        min_block = max(MIN_BLOCK_COLUMNS, n // (self.fragment_count * 2))
        neighbour_sets = {node: set(graph.neighbors(node)) for node in ordering}

        blocks: List[List[Node]] = []
        start = 0
        while start < n and len(blocks) < self.fragment_count - 1:
            remaining_blocks = self.fragment_count - len(blocks)
            remaining_columns = n - start
            if remaining_columns <= min_block * remaining_blocks:
                # Just enough room left: cut evenly and stop searching.
                cut = start + max(min_block, remaining_columns // remaining_blocks) - 1
                cut = min(cut, n - 1)
                blocks.append(list(ordering[start:cut + 1]))
                start = cut + 1
                continue
            size_cap = max(min_block, int(round(1.5 * remaining_columns / remaining_blocks)))
            cut = self._find_cut(
                ordering, start, neighbour_sets, threshold, min_block, size_cap, remaining_blocks
            )
            blocks.append(list(ordering[start:cut + 1]))
            start = cut + 1
        if start < n:
            blocks.append(list(ordering[start:]))
        return [block for block in blocks if block]

    def _find_cut(
        self,
        ordering: Sequence[Node],
        start: int,
        neighbour_sets: Dict[Node, Set[Node]],
        threshold: int,
        min_block: int,
        size_cap: int,
        remaining_blocks: int,
    ) -> int:
        """Return the index (inclusive) at which the block starting at ``start`` ends."""
        n = len(ordering)
        block: Set[Node] = set()
        external = 0
        best_index = min(start + min_block - 1, n - 2)
        best_external: Optional[int] = None
        previous_external = 0
        for index in range(start, n):
            node = ordering[index]
            inside = sum(1 for neighbour in neighbour_sets[node] if neighbour in block)
            outside = sum(
                1 for neighbour in neighbour_sets[node] if neighbour not in block and neighbour != node
            )
            # Adjacencies towards ``node`` were external, now internal; the
            # node's own adjacencies towards non-members become external.
            external += outside - inside
            block.add(node)
            size = index - start + 1
            columns_left = n - index - 1
            if columns_left < (remaining_blocks - 1) * min_block:
                break
            if size < min_block:
                previous_external = external
                continue
            if self.split_policy == SPLIT_THRESHOLD and external <= threshold:
                return index
            if self.split_policy == SPLIT_LOCAL_MINIMUM and external > previous_external and size > min_block:
                return index - 1
            if best_external is None or external < best_external:
                best_external = external
                best_index = index
            previous_external = external
            if size >= size_cap:
                break
        return best_index

    def _derive_threshold(self, graph: DiGraph) -> int:
        """Derive a split threshold from the graph's connectivity.

        The threshold is the external-connection count at which a block is
        considered cleanly separated.  Half the average node degree works well
        for transportation graphs: at a true cluster boundary only the few
        inter-cluster adjacencies remain, far below the degree of a single
        interior node, while inside a cluster the count stays far above it.
        """
        average_degree = (
            2.0 * graph.undirected_edge_count() / graph.node_count() if graph.node_count() else 0.0
        )
        return max(2, int(round(average_degree / 2.0)))


class _InnerProductCache:
    """Lazy cache of column inner products ``sum_k M[k,i] * M[k,j]``.

    For a 0/1 adjacency matrix the inner product of two columns is the number
    of rows where both have a 1, i.e. the size of the intersection of their
    row sets; computing it lazily from sets keeps the cost proportional to the
    sparsity of the graph instead of ``n`` per pair.
    """

    def __init__(self, adjacency_rows: Dict[Node, Set[Node]]) -> None:
        self._rows = adjacency_rows
        self._cache: Dict[Tuple[Node, Node], int] = {}

    def product(self, a: Node, b: Node) -> int:
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        if key not in self._cache:
            rows_a, rows_b = self._rows[a], self._rows[b]
            if len(rows_b) < len(rows_a):
                rows_a, rows_b = rows_b, rows_a
            self._cache[key] = sum(1 for row in rows_a if row in rows_b)
        return self._cache[key]
