"""Whole-stack interleavings with warm transit tables.

Hypothesis draws a sequence of ``query`` / ``query_batch`` / ``update_edge``
(insert, reweight, delete; inside a fragment, at a border node, on a
connecting edge) / ``refragment`` / snapshot→restore steps and runs it
against one long-lived ``QueryService`` — in-process and behind a placed pool
of two workers, for shortest paths on a ring and on 3 x 3 and 4 x 4 grids of
blocks, and reachability on a one-way chain.  After every step each answer
must equal a whole-graph search over the service's current edge list
(``transit_layouts.oracle_value``), which knows nothing of fragments,
transit tables or border-graph arcs, so a table or an arc that outlived the
adjacency it was computed from shows up as a wrong answer here.  The service
answers through the border graph, so no answer is ever flagged, whatever the
cycles: deletes may cut a grid block in two and redraws move nodes between
blocks, so a best path may leave its fragment and come back.  After every
write and redraw the catalog's owner-index read of the fragments storing a
node must equal a scan of every site.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.exceptions import NoChainError
from repro.fragmentation import GroundTruthFragmenter
from repro.service import QueryService

from tests.transit_layouts import (
    chain_layout,
    grid_layout,
    grid_neighbours,
    oracle_value,
    pairs_at,
    ring_layout,
)

BLOCKS, SIZE = 5, 6
GRIDS = {"grid": 3, "grid-4x4": 4}  # blocks a side
# Reachability: the one-way chain, and the ring with its one-way writes.
REACHABILITY_KINDS = ("chain", "ring-reach")
GRID_SIZE = 8
PICK = st.integers(min_value=0, max_value=10**6)

UPDATE = st.tuples(
    st.just("update"),
    st.sampled_from(("insert", "reweight", "delete")),
    st.sampled_from(("inside", "border", "connecting")),
    st.sampled_from(range(BLOCKS)),  # drawn apart from PICK, which leans towards 0
    PICK,
    st.integers(min_value=1, max_value=9),
)
STEP = st.one_of(
    st.tuples(st.just("query"), PICK, PICK),
    st.tuples(st.just("batch"), st.lists(st.tuples(PICK, PICK), min_size=2, max_size=5)),
    UPDATE,
    UPDATE,  # twice: writes are what a stale table would get wrong
    st.tuples(st.just("refragment"), PICK),
    st.tuples(st.just("snapshot")),
)
STEPS = st.lists(STEP, min_size=3, max_size=12)


class Deployment:
    """One service under test and its current node blocks."""

    def __init__(self, kind, **service_options):
        self.side = GRIDS.get(kind)
        self.ring = kind != "chain"  # symmetric edges: ring or grid
        self.semiring_factory = (
            reachability_semiring if kind in REACHABILITY_KINDS else shortest_path_semiring
        )
        if self.side is not None:
            fragmentation, layout = grid_layout(self.side, self.side, GRID_SIZE)
            self.neighbours = grid_neighbours(self.side, self.side)
        elif kind in ("ring", "ring-reach"):
            fragmentation, layout = ring_layout(BLOCKS, SIZE)
            self.neighbours = None
        else:
            fragmentation, layout = chain_layout(BLOCKS, SIZE)
            self.neighbours = None
        self.layout = layout  # the initial partition: never redrawn
        self.blocks = [list(block) for block in layout]  # the service's, redrawn live
        self.options = service_options
        self.service = QueryService(
            fragmentation, semiring=self.semiring_factory(), **service_options
        )
        self.nodes = sorted(self.service.database.graph.nodes())

    def close(self):
        self.service.close()

    # ------------------------------------------------------------- answers

    def node(self, pick):
        return self.nodes[pick % len(self.nodes)]

    def ask(self, source, target):
        """The answer's value; ``None`` is "no path", however the service says it.

        After deletes have parted two fragments the service may see no chain
        at all where a path merely does not exist.  Either way there is no path.
        """
        try:
            return self.service.query(source, target).value
        except NoChainError:
            return None

    def expect(self, value, source, target):
        """``value`` is the whole-graph answer."""
        assert value == oracle_value(self.service, source, target), (source, target)

    def check(self, pairs):
        for source, target in pairs:
            self.expect(self.ask(source, target), source, target)

    def probes(self):
        first, last = self.layout[0], self.layout[-1]
        middle = self.layout[len(self.layout) // 2]
        return [
            (first[2], last[3]),
            (last[3], first[2]),
            (first[3], middle[2]),
            (middle[3], last[2]),
            (first[0], middle[1]),  # border nodes at both ends
            (middle[2], middle[3]),
        ]

    # --------------------------------------------------------------- steps

    def run(self, step):
        kind = step[0]
        if kind == "query":
            self.check([(self.node(step[1]), self.node(step[2]))])
        elif kind == "batch":
            pairs = [(self.node(a), self.node(b)) for a, b in step[1]]
            for (source, target), answer in zip(pairs, self.service.query_batch(pairs)):
                if answer.error:
                    # The batch recorded an error: the same query must fail
                    # alone too — no chain, so no path.
                    assert answer.value is None
                    assert self.ask(source, target) is None
                    self.expect(None, source, target)
                else:
                    self.expect(answer.value, source, target)
        elif kind == "update":
            self.update(*step[1:])
            self.check_owner_index()
        elif kind == "refragment":
            self.refragment(step[1])
            self.check_owner_index()
        else:
            self.restore()
        self.check(self.probes())
        # No step here leaves the incremental envelope: a fallback would mean
        # the in-place write path raised and the rebuild covered for it.
        assert self.service.database.statistics.incremental_fallbacks == 0

    def check_owner_index(self):
        """Every node's storing sites, read off the live owner index, are those a scan finds."""
        catalog = self.service.engine().catalog
        sites = catalog.sites()
        for node in self.nodes:
            scanned = [site.fragment_id for site in sites if site.stores_node(node)]
            assert catalog.sites_storing_node(node) == scanned, node

    def candidates(self, where):
        """Node pairs of one location class, in the order a chain allows."""
        block_of, pairs = pairs_at(
            self.service.database.fragmentation(),
            self.layout,
            where,
            ring=self.ring,
            neighbours=self.neighbours,
        )
        return self.service.database.graph, block_of, pairs

    def update(self, action, where, block, pick, weight):
        graph, block_of, pairs = self.candidates(where)
        pairs = [pair for pair in pairs if block_of[pair[0]] == block] or pairs
        if action == "insert":
            pairs = [pair for pair in pairs if not graph.has_edge(*pair)]
        else:
            pairs = [pair for pair in pairs if graph.has_edge(*pair)]
        if action == "delete":
            pairs = [pair for pair in pairs if self.deletable(graph, block_of, *pair)]
        if not pairs:
            return
        source, target = pairs[pick % len(pairs)]
        if self.side is not None and block_of[source] != block_of[target]:
            weight += 10 * GRID_SIZE  # a grid's connecting edges outweigh any inside path
        self.service.update_edge(source, target, float(weight), delete=action == "delete")

    @staticmethod
    def deletable(graph, block_of, source, target):
        """Both endpoints keep an edge, and their blocks stay joined."""
        for node in (source, target):
            degree = len(list(graph.successors(node))) + len(list(graph.predecessors(node)))
            if degree < 2:
                return False
        if block_of[source] == block_of[target]:
            return True
        joined = {block_of[source], block_of[target]}
        others = [
            (a, b)
            for a, b in graph.edges()
            if (a, b) != (source, target) and {block_of[a], block_of[b]} == joined
        ]
        return bool(others)

    def refragment(self, pick):
        index = pick % (len(self.blocks) - 1)
        giver, taker = self.blocks[index], self.blocks[index + 1]
        if len(giver) < len(taker):
            giver, taker = taker, giver
        if len(giver) <= 3:
            return
        taker.append(giver.pop(len(giver) // 2))
        self.service.refragment(GroundTruthFragmenter([set(block) for block in self.blocks]))

    def restore(self):
        with tempfile.TemporaryDirectory() as directory:
            self.service.snapshot(Path(directory) / "snapshot")
            self.service.close()
            options = {key: value for key, value in self.options.items() if key == "workers"}
            self.service = QueryService.from_snapshot(Path(directory) / "snapshot", **options)


def run_interleaving(kind, steps, **service_options):
    deployment = Deployment(kind, **service_options)
    try:
        # Warm the tables first, so every later step runs against remembered
        # border-to-border results.
        deployment.check(deployment.probes())
        for step in steps:
            deployment.run(step)
    finally:
        deployment.close()
    return deployment


@pytest.mark.parametrize("kind", ["ring", "chain", "grid", "grid-4x4"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_in_process_answers_match_the_whole_graph_oracle(kind, steps):
    run_interleaving(kind, steps)


@pytest.mark.parametrize("kind", ["ring", "chain", "grid"])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_pooled_answers_match_the_whole_graph_oracle(kind, steps):
    run_interleaving(kind, steps, workers=2)


def test_the_grid_probes_are_answered_on_3x3_and_4x4_blocks():
    # Chain planning flagged the 4 x 4 corner-to-corner probes (184 chains).
    for kind in ("grid", "grid-4x4"):
        deployment = Deployment(kind)
        for source, target in deployment.probes():
            value = deployment.service.query(source, target).value
            assert value is not None
            assert value == oracle_value(deployment.service, source, target)
