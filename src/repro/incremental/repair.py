"""Delta-scoped repair of complementary information.

A full complementary precomputation runs one whole-graph search per border
node of every disconnection set.  After a single edge change that is almost
always wasted work: the paper's locality argument (Sec. 2.1) says the change
can only affect the fragment that absorbed it and the disconnection sets
whose *whole-graph* border-to-border paths run through the changed edge.

:class:`ComplementaryRepairer` makes that argument operational and **exact**
for the two standard semirings:

* for an **insert** (or a weight decrease) of edge ``u -> v``, a stored value
  ``(a, b)`` can only improve when the composite ``dist(a, u) + w +
  dist(v, b)`` beats it — one backward and one forward kernel search from the
  changed edge decide this for *every* border pair at once,
* for a **delete** (or a weight increase), a stored value can only degrade
  when its optimal path ran through the edge, i.e. when the same composite
  (in the *old* graph, at the *old* weight) attains the stored value,
* both searches are **radius-bounded**: with non-negative weights the
  composite can only come within tolerance of a stored value ``(a, b)`` when
  each of its two legs does, so neither search needs to look farther from
  the changed edge than the largest stored value of the pairs under test —
  a border node beyond that radius is cleared exactly as an unreached one
  is.  Only a tested pair with *no* stored value (one an insert may make
  reachable for the first time) has no such radius, and the improvement
  probe then searches without one,
* the affected **rows** (one border source of one disconnection set) are then
  recomputed with exactly the
  :func:`~repro.disconnection.complementary.border_values_from` kernel the
  full precomputation uses, so repaired values are identical to what a
  from-scratch rebuild would produce.

Everything else — every row the composite test clears — is provably
unaffected and is left untouched, which is what keeps the other fragments'
compact states object-identical across an update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..closure.kernels import array_dijkstra, bitset_reachable, ids_to_mask
from ..closure.semiring import Semiring
from ..disconnection.complementary import ComplementaryInformation, border_values_from
from ..graph.compact import CompactGraph
from .delta import EdgeChange

Node = Hashable
FragmentPair = Tuple[int, int]
BorderSets = Mapping[FragmentPair, FrozenSet[Node]]

REPAIRABLE_SEMIRINGS = ("shortest_path", "reachability")

# Rows whose composite test lands within this tolerance of the stored value
# are recomputed rather than trusted: a false positive only costs one spare
# kernel search (the recomputed row comes back unchanged), while a false
# negative would leave a stale value behind.
_REL_TOLERANCE = 1e-9
_ABS_TOLERANCE = 1e-12


def _tolerance(value: float) -> float:
    return _ABS_TOLERANCE + _REL_TOLERANCE * abs(value)


@dataclass
class RepairReport:
    """Accounting of one delta-scoped repair pass.

    Attributes:
        pairs_changed: disconnection-set pairs whose stored values actually
            changed (their fragments' shortcut sets are stale).
        rows_recomputed: border-source rows re-searched.
        searches: kernel searches run (suspect probes + rows).
        probe_limit: the largest radius a probe search was given (``inf``
            for an unbounded one, ``0.0`` when no probe ran) — the input the
            probes' cost follows.
        probe_settled: nodes the probe searches settled (visited, for
            reachability), i.e. what that radius cost.
    """

    pairs_changed: Set[FragmentPair] = field(default_factory=set)
    rows_recomputed: int = 0
    searches: int = 0
    probe_limit: float = 0.0
    probe_settled: int = 0


class ComplementaryRepairer:
    """Repairs :class:`ComplementaryInformation` in place after edge changes.

    Args:
        semiring: the path problem; only the two standard semirings are
            supported (custom semirings fall back to a full rebuild upstream).

    Raises:
        ValueError: for an unsupported semiring.
    """

    def __init__(self, semiring: Semiring) -> None:
        if semiring.name not in REPAIRABLE_SEMIRINGS:
            raise ValueError(
                f"incremental complementary repair supports the {REPAIRABLE_SEMIRINGS} "
                f"semirings only, got {semiring.name!r}"
            )
        self._semiring = semiring

    # -------------------------------------------------------- suspect probes

    def affected_sources_before(
        self,
        info: ComplementaryInformation,
        old_graph: CompactGraph,
        changes: Iterable[EdgeChange],
        border_sets: BorderSets,
        report: Optional[RepairReport] = None,
    ) -> Dict[FragmentPair, Set[Node]]:
        """Return, per pair, the border sources whose values may *degrade*.

        Must run against the **pre-change** graph: a stored value is suspect
        exactly when the deleted (or up-weighted) edge lies on one of its old
        optimal paths, which only the old graph can witness.
        """
        suspects: Dict[FragmentPair, Set[Node]] = {}
        # Only pairs with a stored value are tested below, so the largest
        # stored value always bounds this probe.
        limit = self._stored_radius(info, border_sets, every_pair=False)
        for change in changes:
            if change.op == "insert":
                continue
            if change.op == "reweight":
                if self._semiring.name == "reachability":
                    continue  # weights are invisible to reachability
                if change.old_weight is None or change.weight <= change.old_weight:
                    continue  # a decrease can only improve values
                edge_weight = change.old_weight
            else:
                edge_weight = change.old_weight if change.old_weight is not None else 0.0
            probe = self._probe(
                old_graph, change.source, change.target, border_sets, report, limit
            )
            if probe is None:
                continue
            for pair, border in border_sets.items():
                stored = info.values.get(pair, {})
                if not stored:
                    continue
                marked = suspects.setdefault(pair, set())
                for a in border:
                    if a in marked:
                        continue
                    through_a = probe.to_edge(old_graph, a)
                    if through_a is None:
                        continue
                    for b in border:
                        if b == a or (a, b) not in stored:
                            continue
                        through_b = probe.from_edge(old_graph, b)
                        if through_b is None:
                            continue
                        if self._semiring.name == "reachability":
                            marked.add(a)
                            break
                        candidate = through_a + edge_weight + through_b
                        incumbent = float(stored[(a, b)])
                        if candidate <= incumbent + _tolerance(incumbent):
                            marked.add(a)
                            break
        return {pair: sources for pair, sources in suspects.items() if sources}

    def affected_sources_after(
        self,
        info: ComplementaryInformation,
        new_graph: CompactGraph,
        changes: Iterable[EdgeChange],
        border_sets: BorderSets,
        report: Optional[RepairReport] = None,
    ) -> Dict[FragmentPair, Set[Node]]:
        """Return, per pair, the border sources whose values may *improve*.

        Runs against the **post-change** graph: a value improves exactly when
        the new optimal path uses the inserted (or down-weighted) edge, and
        then ``dist(a, u) + w + dist(v, b)`` in the new graph *is* that
        optimum.
        """
        improved: Dict[FragmentPair, Set[Node]] = {}
        # A tested pair without a stored value is marked as soon as both of
        # its legs exist at any distance: that case has no radius.
        limit = self._stored_radius(info, border_sets, every_pair=True)
        for change in changes:
            if change.op == "delete":
                continue
            if change.op == "reweight":
                if self._semiring.name == "reachability":
                    continue
                if change.old_weight is not None and change.weight >= change.old_weight:
                    continue  # an increase was handled by the suspect probe
            probe = self._probe(
                new_graph, change.source, change.target, border_sets, report, limit
            )
            if probe is None:
                continue
            for pair, border in border_sets.items():
                stored = info.values.get(pair, {})
                marked = improved.setdefault(pair, set())
                for a in border:
                    if a in marked:
                        continue
                    through_a = probe.to_edge(new_graph, a)
                    if through_a is None:
                        continue
                    for b in border:
                        if b == a:
                            continue
                        through_b = probe.from_edge(new_graph, b)
                        if through_b is None:
                            continue
                        incumbent = stored.get((a, b))
                        if incumbent is None:
                            marked.add(a)
                            break
                        if self._semiring.name == "reachability":
                            continue  # already reachable: nothing to improve
                        candidate = through_a + change.weight + through_b
                        if candidate < float(incumbent) + _tolerance(float(incumbent)):
                            marked.add(a)
                            break
        return {pair: sources for pair, sources in improved.items() if sources}

    # --------------------------------------------------------- recomputation

    def recompute_rows(
        self,
        info: ComplementaryInformation,
        graph: CompactGraph,
        rows: Mapping[FragmentPair, Set[Node]],
        border_sets: BorderSets,
        report: RepairReport,
    ) -> None:
        """Re-search the given border-source rows on the post-change graph.

        Each row is recomputed with the same kernel the full precomputation
        uses, then swapped into ``info.values`` in place; pairs whose values
        actually moved are recorded in the report.
        """
        for pair in sorted(rows):
            border = border_sets.get(pair)
            if border is None:
                continue  # the pair vanished structurally; handled elsewhere
            pair_values = info.values.setdefault(pair, {})
            for source in sorted(rows[pair], key=repr):
                values, work = border_values_from(graph, source, set(border), self._semiring)
                info.precompute_work += work
                report.rows_recomputed += 1
                report.searches += 1
                old_row = {
                    b: value for (a, b), value in pair_values.items() if a == source
                }
                new_row = {b: value for b, value in values.items() if b != source}
                if new_row != old_row:
                    report.pairs_changed.add(pair)
                    for b in old_row:
                        del pair_values[(source, b)]
                    for b, value in new_row.items():
                        pair_values[(source, b)] = value

    def recompute_pair(
        self,
        info: ComplementaryInformation,
        graph: CompactGraph,
        pair: FragmentPair,
        border: FrozenSet[Node],
        report: RepairReport,
    ) -> None:
        """Recompute one disconnection set wholesale (its membership changed)."""
        new_values: Dict[Tuple[Node, Node], object] = {}
        for source in sorted(border, key=repr):
            values, work = border_values_from(graph, source, set(border), self._semiring)
            info.precompute_work += work
            report.rows_recomputed += 1
            report.searches += 1
            for target, value in values.items():
                if target != source:
                    new_values[(source, target)] = value
        if new_values != info.values.get(pair, {}):
            report.pairs_changed.add(pair)
        info.values[pair] = new_values

    def remove_pair(
        self, info: ComplementaryInformation, pair: FragmentPair, report: RepairReport
    ) -> None:
        """Drop a disconnection set that no longer exists."""
        if info.values.pop(pair, None):
            report.pairs_changed.add(pair)

    # -------------------------------------------------------------- internals

    def _stored_radius(
        self, info: ComplementaryInformation, border_sets: BorderSets, *, every_pair: bool
    ) -> float:
        """Return how far from a changed edge a probe has to search.

        ``dist(a, u) + w + dist(v, b)`` is a sum of non-negative terms, so it
        can only come within tolerance of a stored ``(a, b)`` when each leg
        is within that value: the largest stored value of ``border_sets``
        (plus its tolerance) is a radius beyond which no stored pair can be
        marked.  With ``every_pair`` the radius must also hold for border
        pairs that have *no* stored value; those are marked at any distance,
        so one missing pair makes the radius infinite.  Reachability probes
        carry no distances and are never bounded.
        """
        if self._semiring.name == "reachability":
            return inf
        largest = 0.0
        for pair, border in border_sets.items():
            stored = info.values.get(pair, {})
            if every_pair and len(stored) < len(border) * (len(border) - 1):
                return inf
            if stored:
                largest = max(largest, float(max(stored.values())))
        return largest + _tolerance(largest)

    def _probe(
        self,
        graph: CompactGraph,
        source: Node,
        target: Node,
        border_sets: BorderSets,
        report: Optional[RepairReport],
        limit: float,
    ) -> Optional["_EdgeProbe"]:
        """Run the two searches anchored at one changed edge, out to ``limit``."""
        source_id = graph.try_node_id(source)
        target_id = graph.try_node_id(target)
        if source_id < 0 or target_id < 0:
            return None
        border_ids = {
            node_id
            for border in border_sets.values()
            for node in border
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        }
        if self._semiring.name == "reachability":
            border_mask = ids_to_mask(border_ids)
            reaches_edge = bitset_reachable(graph, source_id, stop_mask=border_mask, backward=True)
            reached_from_edge = bitset_reachable(graph, target_id, stop_mask=border_mask)
            settled = reaches_edge.bit_count() + reached_from_edge.bit_count()
            probe = _EdgeProbe(reaches_edge=reaches_edge, reached_from_edge=reached_from_edge)
        else:
            to_edge, _, settled_to = array_dijkstra(
                graph, source_id, target_ids=border_ids, backward=True, limit=limit
            )
            from_edge, _, settled_from = array_dijkstra(
                graph, target_id, target_ids=border_ids, limit=limit
            )
            settled = settled_to + settled_from
            probe = _EdgeProbe(to_edge_dist=to_edge, from_edge_dist=from_edge)
        if report is not None:
            report.searches += 2
            report.probe_limit = max(report.probe_limit, limit)
            report.probe_settled += settled
        return probe


@dataclass
class _EdgeProbe:
    """The two search results anchored at a changed edge ``u -> v``.

    ``to_edge`` answers "how does border node ``a`` get *to* ``u``?" and
    ``from_edge`` answers "how does ``v`` get to border node ``b``?" — their
    composition over the edge is the only way a change can touch a stored
    border-to-border value.
    """

    to_edge_dist: Optional[List[float]] = None
    from_edge_dist: Optional[List[float]] = None
    reaches_edge: int = 0
    reached_from_edge: int = 0

    def to_edge(self, graph: CompactGraph, node: Node) -> Optional[float]:
        """Distance (or 0.0 for reachability) from ``node`` to the edge tail."""
        node_id = graph.try_node_id(node)
        if node_id < 0:
            return None
        if self.to_edge_dist is not None:
            distance = self.to_edge_dist[node_id]
            return distance if distance != inf else None
        return 0.0 if (self.reaches_edge >> node_id) & 1 else None

    def from_edge(self, graph: CompactGraph, node: Node) -> Optional[float]:
        """Distance (or 0.0 for reachability) from the edge head to ``node``."""
        node_id = graph.try_node_id(node)
        if node_id < 0:
            return None
        if self.from_edge_dist is not None:
            distance = self.from_edge_dist[node_id]
            return distance if distance != inf else None
        return 0.0 if (self.reached_from_edge >> node_id) & 1 else None
