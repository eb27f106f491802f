"""Whole-stack interleavings with warm transit tables.

Hypothesis draws a sequence of ``query`` / ``query_batch`` / ``update_edge``
(insert, reweight, delete; inside a fragment, at a border node, on a
connecting edge) / ``refragment`` / snapshot→restore steps and runs it
against one long-lived ``QueryService`` — in-process and behind a placed pool
of two workers, for shortest paths on a ring and reachability on a one-way
chain.  After every step each answer must equal a whole-graph search over
the service's current edge list (``transit_layouts.oracle_value``), which
knows nothing of fragments or transit tables, so a table that outlived the
adjacency it was computed from shows up as a wrong answer here.
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

from tests.transit_layouts import chain_layout, oracle_value, pairs_at, ring_layout

BLOCKS, SIZE = 5, 6
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
        self.ring = kind == "ring"
        self.semiring_factory = shortest_path_semiring if self.ring else reachability_semiring
        fragmentation, layout = (
            ring_layout(BLOCKS, SIZE) if self.ring else chain_layout(BLOCKS, SIZE)
        )
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

    def check(self, pairs):
        for source, target in pairs:
            assert self.ask(source, target) == oracle_value(self.service, source, target), (
                source,
                target,
            )

    def probes(self):
        first, last = self.layout[0], self.layout[-1]
        middle = self.layout[BLOCKS // 2]
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
                expected = oracle_value(self.service, source, target)
                assert (None if answer.error else answer.value) == expected
        elif kind == "update":
            self.update(*step[1:])
        elif kind == "refragment":
            self.refragment(step[1])
        else:
            self.restore()
        self.check(self.probes())
        # No step here leaves the incremental envelope: a fallback would mean
        # the in-place write path raised and the rebuild covered for it.
        assert self.service.database.statistics.incremental_fallbacks == 0

    def candidates(self, where):
        """Node pairs of one location class, in the order a chain allows."""
        block_of, pairs = pairs_at(
            self.service.database.fragmentation(), self.layout, where, ring=self.ring
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
        index = pick % (BLOCKS - 1)
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


@pytest.mark.parametrize("kind", ["ring", "chain"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_in_process_answers_match_the_whole_graph_oracle(kind, steps):
    run_interleaving(kind, steps)


@pytest.mark.parametrize("kind", ["ring", "chain"])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_pooled_answers_match_the_whole_graph_oracle(kind, steps):
    run_interleaving(kind, steps, workers=2)
