"""Cached answers a write keeps are the answers a fresh evaluation gives.

A write evicts a cached answer only when an input it read moved: an endpoint
value, or the border-graph arcs of a fragment it depends on (any change to
them, or an only-worse change on its chain).  Every other answer depending on
the written fragments is re-stamped and keeps serving.  Hypothesis draws
streams of inserts, reweights and deletes (inside a block, at a border node,
on a connecting edge, between any two nodes; deletes may cut a block in two),
redraws and queries against one long-lived ``QueryService`` whose cache was
filled first — in process and behind a placed pool of two workers, for
shortest paths on a ring and a 3 x 3 grid of blocks, and reachability on a
one-way chain and on the ring (whose one-way writes make it asymmetric).
Reachability answers read bitset border rows, and a write re-reads only the
endpoint tasks whose rows it dropped.  After every step each entry still cached must be current,
must equal an evaluation of its pair that bypasses the cache exactly, and
must equal a whole-graph search (``transit_layouts.oracle_value``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disconnection import answer_pairs
from repro.service import QueryService
from tests.integration.test_transit_interleaving import PICK, UPDATE, Deployment
from tests.transit_layouts import oracle_value, ring_layout

# An edge between any two nodes: the write that joins a node to another
# fragment, so that a border-graph search at it expands one more fragment.
LINK = st.tuples(st.just("link"), PICK, PICK, st.integers(min_value=1, max_value=9))
STEP = st.one_of(
    UPDATE,
    UPDATE,
    LINK,  # writes are what a kept answer could be wrong after
    st.tuples(st.just("refragment"), PICK),
    st.tuples(st.just("query"), PICK, PICK),
)
STEPS = st.lists(STEP, min_size=2, max_size=8)
WARM_PAIRS = 16


class CachedDeployment(Deployment):
    """A deployment whose cache holds answers across all fragments before the stream starts."""

    def warm(self):
        """Cache the probes and pairs from every few nodes to nodes about half the layout away."""
        nodes, count = self.nodes, len(self.nodes)
        stride = max(1, count // WARM_PAIRS)
        pairs = [(nodes[i], nodes[(i * 7 + count // 2) % count]) for i in range(0, count, stride)]
        self.service.query_batch(pairs + self.probes())

    def run(self, step):
        kind = step[0]
        if kind == "query":
            self.check([(self.node(step[1]), self.node(step[2]))])
        elif kind == "update":
            self.update(*step[1:])
        elif kind == "link":
            source, target = self.node(step[1]), self.node(step[2])
            if source != target and not self.service.database.graph.has_edge(source, target):
                self.service.update_edge(source, target, float(step[3]))
        else:
            self.refragment(step[1])
        self.check_cache()

    def check_cache(self):
        service = self.service
        catalog = service.engine().catalog
        vector = service.version_vector
        cached = list(service.cache.items())
        pairs = [(key.source, key.target) for key, _ in cached]
        fresh = answer_pairs(catalog, pairs, service._evaluate_tasks, service.semiring).answers
        for (key, entry), pair in zip(cached, pairs):
            assert vector.matches(entry.epoch, entry.fragment_versions), pair
            assert entry.value == fresh[pair].value, pair
            assert entry.value == oracle_value(service, *pair), pair


def run_stream(kind, steps, **service_options):
    deployment = CachedDeployment(kind, **service_options)
    try:
        deployment.warm()
        deployment.check_cache()
        for step in steps:
            deployment.run(step)
    finally:
        deployment.close()
    return deployment


def test_a_node_joining_another_fragment_evicts_the_answers_that_settled_it():
    fragmentation, _ = ring_layout(4, 8, seed=4)
    service = QueryService(fragmentation)
    assert service.query(21, 11).value == 25.0
    # Node 22 of block 2 joins fragment 0.  Fragment 2's site graph does not
    # change, but a search settling 22 now also expands fragment 0's arcs.
    service.update_edge(22, 5, 2.0)
    applied = service.database.last_delta
    assert applied.pairs_reshaped == ((0, 2),) and applied.site_deltas[2].is_empty()
    answer = service.query(21, 11)
    assert not answer.cached and answer.value == 20.0 == oracle_value(service, 21, 11)
    assert service.stats.cache_decisions()["arcs_moved"] == 1


@pytest.mark.parametrize("kind", ["ring", "ring-reach", "chain", "grid"])
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_every_kept_answer_equals_a_fresh_one_in_process(kind, steps):
    run_stream(kind, steps)


@pytest.mark.parametrize("kind", ["ring", "ring-reach", "chain", "grid"])
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_every_kept_answer_equals_a_fresh_one_on_a_pool(kind, steps):
    run_stream(kind, steps, workers=2)
