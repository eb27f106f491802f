"""Parameterized reachability via SCC condensation + chain decomposition.

The bitset BFS kernel re-walks the graph for every source; on graphs whose
condensation is small — fragments dominated by a few strongly connected
components, or near-linear DAGs — almost all of that walking rediscovers the
same component-level facts.  Following the parameterized linear-time
construction of Kritikakis & Tollis, :class:`ChainIndex` collapses the graph
once (iterative Tarjan SCC, then a condensation DAG decomposed into ``k``
chains) and answers every subsequent reachability question from O(k) chain
labels:

* ``label[c][ch]`` is the smallest position in chain ``ch`` reachable from
  condensation component ``c`` — everything *after* that position on the
  chain is reachable too, so one integer summarises a whole suffix,
* a node-level query maps both endpoints through the condensation and
  compares one label against one chain position,
* a whole reachability row ORs the member masks of the reachable components,
  reusing the int-as-bitset interop of :mod:`repro.closure.kernels` so every
  caller sees bit-identical answers regardless of backend.

The index is plain data (`to_state`/`from_state`) and rides inside
:meth:`CompactGraph.state`, so snapshots and resident workers reload it
instead of re-deriving it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.compact import CompactGraph

CHAIN_STATE_FORMAT = "chain-index-v1"


def strongly_connected_components(graph: CompactGraph) -> Tuple[List[int], int]:
    """Return ``(comp_of, comp_count)`` via iterative Tarjan.

    Components are numbered in reverse topological order of the condensation:
    every edge ``u -> v`` crossing components satisfies
    ``comp_of[u] > comp_of[v]``, so descending component id *is* a
    topological order — the property the chain decomposition and the label
    sweep below both lean on.
    """
    n = graph.node_count()
    offsets, targets, _ = graph.forward_csr
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    comp_of = [-1] * n
    counter = 0
    comp_count = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
            descended = False
            for index in range(offsets[node] + ptr, offsets[node + 1]):
                target = targets[index]
                if index_of[target] == -1:
                    work[-1] = (node, index - offsets[node] + 1)
                    work.append((target, 0))
                    descended = True
                    break
                if on_stack[target] and index_of[target] < low[node]:
                    low[node] = index_of[target]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = comp_count
                    if member == node:
                        break
                comp_count += 1
    return comp_of, comp_count


class ChainIndex:
    """A chain-decomposition reachability index over one :class:`CompactGraph`.

    Attributes:
        comp_of: dense node id -> condensation component id.
        comp_count: number of components (``comp_count / n`` is the
            condensation ratio the dispatcher keys on).
        comp_cyclic: per component, whether it contains a cycle (size > 1 or
            a self-loop) — decides the ``(a, a)`` facts a fixpoint derives.
        chains: the decomposition — each chain is a list of component ids in
            topological order.
        chain_of / pos_of: per component, its chain and position on it.
        labels: per component, one minimum reachable position per chain
            (``comp_count + 1`` acts as the "nothing reachable" sentinel).
    """

    __slots__ = (
        "comp_of",
        "comp_count",
        "comp_cyclic",
        "chains",
        "chain_of",
        "pos_of",
        "labels",
        "_comp_masks",
        "_reach_masks",
    )

    def __init__(
        self,
        comp_of: List[int],
        comp_count: int,
        comp_cyclic: List[bool],
        chains: List[List[int]],
        chain_of: List[int],
        pos_of: List[int],
        labels: List[List[int]],
    ) -> None:
        self.comp_of = comp_of
        self.comp_count = comp_count
        self.comp_cyclic = comp_cyclic
        self.chains = chains
        self.chain_of = chain_of
        self.pos_of = pos_of
        self.labels = labels
        self._comp_masks: Optional[List[int]] = None
        self._reach_masks: Dict[int, int] = {}

    # ---------------------------------------------------------- construction

    @classmethod
    def from_graph(cls, graph: CompactGraph) -> "ChainIndex":
        """Build the index: SCCs, condensation, chains, then one label sweep."""
        n = graph.node_count()
        comp_of, comp_count = strongly_connected_components(graph)
        comp_cyclic = [False] * comp_count
        comp_size = [0] * comp_count
        for node_id in range(n):
            comp_size[comp_of[node_id]] += 1
        for comp, size in enumerate(comp_size):
            if size > 1:
                comp_cyclic[comp] = True
        # Condensation adjacency (deduplicated), plus self-loop detection.
        offsets, targets, _ = graph.forward_csr
        succs: List[List[int]] = [[] for _ in range(comp_count)]
        preds: List[List[int]] = [[] for _ in range(comp_count)]
        seen_edges = set()
        for source_id in range(n):
            cu = comp_of[source_id]
            for index in range(offsets[source_id], offsets[source_id + 1]):
                cv = comp_of[targets[index]]
                if cu == cv:
                    if targets[index] == source_id:
                        comp_cyclic[cu] = True
                    continue
                if (cu, cv) not in seen_edges:
                    seen_edges.add((cu, cv))
                    succs[cu].append(cv)
                    preds[cv].append(cu)
        # Greedy chain decomposition over the topological order (descending
        # component id): append a component to the chain whose current tail
        # is one of its condensation predecessors, else start a new chain.
        chain_of = [-1] * comp_count
        pos_of = [0] * comp_count
        chains: List[List[int]] = []
        tail_of_chain: List[int] = []
        for comp in range(comp_count - 1, -1, -1):
            placed = False
            for pred in preds[comp]:
                chain = chain_of[pred]
                if tail_of_chain[chain] == pred:
                    chains[chain].append(comp)
                    chain_of[comp] = chain
                    pos_of[comp] = len(chains[chain]) - 1
                    tail_of_chain[chain] = comp
                    placed = True
                    break
            if not placed:
                chain_of[comp] = len(chains)
                pos_of[comp] = 0
                chains.append([comp])
                tail_of_chain.append(comp)
        # Label sweep in reverse topological order (ascending component id):
        # a component reaches the elementwise-minimum positions its
        # successors reach, plus its own spot on its own chain.
        k = len(chains)
        sentinel = comp_count + 1
        labels: List[List[int]] = [[sentinel] * k for _ in range(comp_count)]
        for comp in range(comp_count):
            row = labels[comp]
            for succ in succs[comp]:
                succ_row = labels[succ]
                for chain in range(k):
                    if succ_row[chain] < row[chain]:
                        row[chain] = succ_row[chain]
            own = chain_of[comp]
            if pos_of[comp] < row[own]:
                row[own] = pos_of[comp]
        return cls(comp_of, comp_count, comp_cyclic, chains, chain_of, pos_of, labels)

    # -------------------------------------------------------------- queries

    def component_masks(self) -> List[int]:
        """Return (and cache) one int-as-bitset of member node ids per component."""
        if self._comp_masks is None:
            masks = [0] * self.comp_count
            for node_id, comp in enumerate(self.comp_of):
                masks[comp] |= 1 << node_id
            self._comp_masks = masks
        return self._comp_masks

    def component_reach_mask(self, comp: int) -> int:
        """Return the bitset of node ids reachable from component ``comp``.

        Every component after a label's position on its chain is reachable,
        so the row expands into ``k`` chain suffixes; per-component results
        are memoised because whole-closure callers ask for every component.
        """
        cached = self._reach_masks.get(comp)
        if cached is not None:
            return cached
        comp_masks = self.component_masks()
        mask = 0
        row = self.labels[comp]
        for chain_id, chain in enumerate(self.chains):
            position = row[chain_id]
            if position >= len(chain):
                continue
            for reached in chain[position:]:
                mask |= comp_masks[reached]
        self._reach_masks[comp] = mask
        return mask

    def reachable_mask(self, source_id: int) -> int:
        """Return the visited bitset for ``source_id`` (itself always included)."""
        return self.component_reach_mask(self.comp_of[source_id]) | (1 << source_id)

    # ----------------------------------------------------------- plain state

    def to_state(self) -> Dict[str, object]:
        """Return the index as a plain-data dictionary (snapshot wire format)."""
        return {
            "format": CHAIN_STATE_FORMAT,
            "comp_of": list(self.comp_of),
            "comp_count": self.comp_count,
            "comp_cyclic": [1 if flag else 0 for flag in self.comp_cyclic],
            "chains": [list(chain) for chain in self.chains],
            "chain_of": list(self.chain_of),
            "pos_of": list(self.pos_of),
            "labels": [list(row) for row in self.labels],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ChainIndex":
        """Rebuild an index from :meth:`to_state` output.

        Raises:
            ValueError: when the state's format tag is not understood.
        """
        if state.get("format") != CHAIN_STATE_FORMAT:
            raise ValueError(
                f"chain index state format {state.get('format')!r} is not supported"
            )
        return cls(
            list(state["comp_of"]),  # type: ignore[arg-type]
            int(state["comp_count"]),  # type: ignore[arg-type]
            [bool(flag) for flag in state["comp_cyclic"]],  # type: ignore[union-attr]
            [list(chain) for chain in state["chains"]],  # type: ignore[union-attr]
            list(state["chain_of"]),  # type: ignore[arg-type]
            list(state["pos_of"]),  # type: ignore[arg-type]
            [list(row) for row in state["labels"]],  # type: ignore[union-attr]
        )

    def __repr__(self) -> str:
        return (
            f"ChainIndex(components={self.comp_count}, chains={len(self.chains)})"
        )
