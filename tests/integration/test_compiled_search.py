"""The compiled border-graph search against the dict-probing one it replaced.

Every search the query core runs is checked as it runs: the oracle
(``tests.border_search_oracle.dict_search``) gets the same seeds, closing
values and direct value, reads each fragment's arcs where the transit table
holds them and its border nodes off the live catalog, and must settle the
same border nodes in the same order and give the same value, chain, relaxed
count and missing fragments, float for float.  Hypothesis draws streams of
queries and writes (insert, reweight, delete: inside a block or between any
two nodes, which moves border membership) with one redraw, over a ring, a
one-way chain and a 4 x 4 grid of blocks, for shortest paths and
reachability, in process and behind a placed pool of two workers.  So a
compiled row that outlived the arcs or the border sets it was built from
shows up as a difference here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.disconnection.core as core_module
from repro.closure import reachability_semiring, shortest_path_semiring
from repro.fragmentation import GroundTruthFragmenter
from repro.service import QueryService
from tests.border_search_oracle import dict_search, held_arcs
from tests.transit_layouts import chain_layout, grid_layout, oracle_value, ring_layout

LAYOUTS = {
    "ring": lambda: ring_layout(5, 6),
    "chain": lambda: chain_layout(5, 6),
    "grid-4x4": lambda: grid_layout(4, 4, 8),
}
SEMIRINGS = {"shortest_path": shortest_path_semiring, "reachability": reachability_semiring}
PICK = st.integers(min_value=0, max_value=10**6)
WRITE = st.tuples(
    st.just("write"),
    st.sampled_from(("insert", "reweight", "delete")),
    st.booleans(),  # inside one block, or between any two nodes
    PICK,
    PICK,
    st.integers(min_value=1, max_value=9),
)
QUERY = st.tuples(st.just("query"), st.lists(st.tuples(PICK, PICK), min_size=1, max_size=4))
STEPS = st.lists(st.one_of(WRITE, QUERY), min_size=1, max_size=6)


class Checked:
    """Wraps the core's ``search``: each call is replayed through the oracle and compared."""

    def __init__(self, service, real):
        self.service = service
        self.real = real
        self.searches = 0

    def __call__(self, graph, semiring, seeds, closing, direct=None):
        found = self.real(graph, semiring, seeds, closing, direct)
        catalog = self.service.engine().catalog
        count, nodes = graph.count, graph.nodes
        expected = dict_search(
            semiring,
            {(nodes[state // count], state % count): value for state, value in seeds.items()},
            {nodes[node]: closes for node, closes in closing.items()},
            lambda fragment: held_arcs(catalog.site(fragment), semiring),
            catalog.fragmentation.fragments_of_node,
            lambda fragment: catalog.site(fragment).border_nodes,
            direct,
        )
        assert found.value == expected.value
        assert found.chain == expected.chain
        assert [nodes[node] for node in found.settled] == list(expected.settled)
        assert found.relaxed == expected.relaxed
        assert list(found.missing) == list(expected.missing)
        self.searches += 1
        return found


def run_stream(layout_name, semiring_name, steps, redraw_at, **service_options):
    fragmentation, layout = LAYOUTS[layout_name]()
    service = QueryService(
        fragmentation, semiring=SEMIRINGS[semiring_name](), **service_options
    )
    blocks = [list(block) for block in layout]
    nodes = sorted(service.database.graph.nodes())
    checked = Checked(service, core_module.search)
    first, last = layout[0], layout[-1]
    probes = [(first[2], last[3]), (last[3], first[2]), (layout[1][0], layout[2][1])]

    def ask(pairs):
        service.cache.clear()
        for (source, target), answer in zip(pairs, service.query_batch(pairs)):
            assert answer.value == oracle_value(service, source, target), (source, target)

    def write(action, inside, pick_a, pick_b, weight):
        graph = service.database.graph
        pool = blocks[pick_a % len(blocks)] if inside else nodes
        source, target = pool[pick_a % len(pool)], pool[pick_b % len(pool)]
        if source == target:
            return
        if action == "insert" and not graph.has_edge(source, target):
            service.update_edge(source, target, float(weight))
        elif action != "insert" and graph.has_edge(source, target):
            service.update_edge(source, target, float(weight), delete=action == "delete")

    def redraw():
        giver, taker = blocks[1], blocks[2]
        taker.append(giver.pop(len(giver) // 2))
        service.refragment(GroundTruthFragmenter([set(block) for block in blocks]))

    core_module.search = checked
    try:
        ask(probes)
        for index, step in enumerate(steps):
            if index == redraw_at:
                redraw()
            if step[0] == "write":
                write(*step[1:])
            else:
                ask([(nodes[a % len(nodes)], nodes[b % len(nodes)]) for a, b in step[1]])
            ask(probes)
        if redraw_at >= len(steps):
            redraw()
            ask(probes)
    finally:
        core_module.search = checked.real
        service.close()
    assert checked.searches


@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(semiring=st.sampled_from(sorted(SEMIRINGS)), steps=STEPS, redraw_at=st.integers(0, 6))
def test_in_process_searches_match_the_dict_search(layout_name, semiring, steps, redraw_at):
    run_stream(layout_name, semiring, steps, redraw_at)


@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(semiring=st.sampled_from(sorted(SEMIRINGS)), steps=STEPS, redraw_at=st.integers(0, 6))
def test_pooled_searches_match_the_dict_search(layout_name, semiring, steps, redraw_at):
    run_stream(layout_name, semiring, steps, redraw_at, workers=2)
