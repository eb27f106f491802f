"""Border rows that outlive a write are the rows a fresh search would fill.

``CompactGraph.apply_delta`` hands a site graph's :class:`BorderRows` the arcs
a delta took out and put in.  A distance row keeps itself only when no
removed arc is tight on it and no inserted arc improves it; a reachability
bitset row only when no removed arc leaves its set and no inserted arc leads
out of it.  These properties fill every row of one site — forward and
backward, from every border node — apply random deltas (inserts, parallel
arcs, reweights up and down, deletes, arcs between border nodes as a
shortcut repair sends them, arcs exactly as long as a row's gap or inside a
bitset row's set, new nodes) and compare every surviving row with a fresh
search on the written graph: ``array_dijkstra`` float for float and settled
count for settled count, ``bitset_reachable`` bit for bit.

The CI workflow runs this module again under the ``ci`` hypothesis profile
(``--hypothesis-profile=ci``, registered in ``tests/conftest.py``) with ten
times the examples.
"""

import pickle
from contextlib import suppress
from functools import lru_cache

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.closure import (
    array_dijkstra,
    bitset_reachable,
    mask_to_ids,
    reachability_semiring,
    shortest_path_semiring,
)
from repro.disconnection import DisconnectionSetEngine, LocalQueryEvaluator
from repro.disconnection.local_query import ROWS_KEYS, BitsetRow
from repro.disconnection.planner import LocalQuerySpec
from repro.exceptions import NoChainError
from repro.graph import CompactDelta, DiGraph

from tests.transit_layouts import (
    WRITE,
    apply_write,
    chain_layout,
    fractional_service,
    fragment,
    grid_layout,
    ring_layout,
)

LAYOUTS = {"ring": ring_layout, "chain": chain_layout, "grid": grid_layout}
SEMIRINGS = {"shortest_path": shortest_path_semiring, "reachability": reachability_semiring}

PICK = st.integers(min_value=0, max_value=10**6)
OP = st.tuples(
    st.sampled_from(
        ("insert", "parallel", "up", "down", "delete", "shortcut", "tight", "new-node")
    ),
    PICK,
    PICK,
    st.integers(min_value=1, max_value=97).map(lambda tenths: tenths / 10 + 0.01),
)
DELTAS = st.lists(st.lists(OP, min_size=1, max_size=3), min_size=1, max_size=4)


@lru_cache(maxsize=None)
def pickled_sites(kind, semiring="shortest_path"):
    """Every site of ``kind``'s layout with fractional weights, pickled (no compact form)."""
    fragmentation, layout = LAYOUTS[kind]()
    graph = DiGraph(
        [
            (a, b, weight + ((a + b) % 7) / 10 + 0.01)
            for a, b, weight in fragmentation.graph.weighted_edges()
        ]
    )
    engine = DisconnectionSetEngine(fragment(graph, layout), semiring=SEMIRINGS[semiring]())
    return tuple(pickle.dumps(site) for site in engine.catalog.sites())


def fill_every_row(site, use_shortcuts, semiring="shortest_path"):
    """Fill the forward and the backward row of every border node of ``site``."""
    inside = sorted(set(site.subgraph.nodes()) - site.border_nodes)
    specs = []
    for border_node in sorted(site.border_nodes):
        one, other = frozenset([border_node]), frozenset([inside[0]])
        specs.append(LocalQuerySpec(site.fragment_id, one, other))
        specs.append(LocalQuerySpec(site.fragment_id, other, one))
    evaluator = LocalQueryEvaluator(semiring=SEMIRINGS[semiring](), use_shortcuts=use_shortcuts)
    evaluator.evaluate_many(lambda _: site, specs)
    rows = site.compact(use_shortcuts=use_shortcuts).derived_get(ROWS_KEYS[semiring])
    assert len(rows) == 2 * len(site.border_nodes)


def delta_of(graph, rows, border, ops):
    """Resolve drawn ``ops`` against the graph (and rows) as they are now."""
    nodes = graph.nodes()
    arcs = graph.weighted_edges()
    border = sorted(border)
    inserts, deletes, reweights = [], [], []
    for op, pick_a, pick_b, weight in ops:
        a, b = nodes[pick_a % len(nodes)], nodes[pick_b % len(nodes)]
        source, target, old = arcs[pick_a % len(arcs)]
        if op == "insert" and a != b:
            inserts.append((a, b, weight))
        elif op == "parallel":
            inserts.append((source, target, weight))
        elif op == "up":
            reweights.append((source, target, old + weight))
        elif op == "down":
            reweights.append((source, target, old * weight / 10))
        elif op == "delete":
            deletes.append((source, target))
        elif op == "shortcut":
            a, b = border[pick_a % len(border)], border[pick_b % len(border)]
            if a == b:
                continue
            if graph.edge_weight(a, b) is None:
                inserts.append((a, b, weight))
            elif pick_b % 2:
                deletes.append((a, b))
            else:
                reweights.append((a, b, weight))
        elif op == "tight" and rows:
            (root_id, backward), row = sorted(rows.items())[pick_a % len(rows)]
            if isinstance(row, BitsetRow):
                # An arc between two nodes of the set a row holds: it stays.
                held = mask_to_ids(row.reached)
                s, t = held[pick_b % len(held)], held[(pick_b // len(held)) % len(held)]
                if s != t:
                    s, t = (t, s) if backward else (s, t)
                    inserts.append((graph.node_of(s), graph.node_of(t), weight))
                continue
            # An arc exactly as long as the gap a row sees between its ends:
            # ``d[s] + w`` lands on ``d[t]`` or one rounding step off it.
            d = row.distances
            s, t = pick_b % len(d), (pick_b // len(d)) % len(d)
            if s != t and d[s] < d[t] < float("inf"):
                s, t = (t, s) if backward else (s, t)
                inserts.append((graph.node_of(s), graph.node_of(t), abs(d[t] - d[s])))
        elif op == "new-node":
            fresh = ("new", pick_b % 3)
            inserts.append((a, fresh, weight) if pick_b % 2 else (fresh, a, weight))
    return CompactDelta(
        inserts=tuple(inserts), deletes=tuple(deletes), reweights=tuple(reweights)
    )


def assert_rows_are_fresh(graph, rows):
    """Every stored row equals the search a fresh evaluation would run."""
    for (root_id, backward), row in rows.items():
        if isinstance(row, BitsetRow):
            reached = bitset_reachable(graph, root_id, backward=backward)
            assert row.reached == reached  # bit for bit
            assert row.settled == reached.bit_count()
            continue
        distances, _, settled = array_dijkstra(graph, root_id, backward=backward)
        assert list(row.distances) == distances  # float for float
        assert row.settled == settled


class TestRowsThatSurviveAreFresh:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(sorted(LAYOUTS)),
        use_shortcuts=st.booleans(),
        fragment_pick=PICK,
        deltas=DELTAS,
    )
    def test_a_kept_row_is_a_fresh_search(self, kind, use_shortcuts, fragment_pick, deltas):
        self.check_kept_rows("shortest_path", kind, use_shortcuts, fragment_pick, deltas)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(sorted(LAYOUTS)),
        use_shortcuts=st.booleans(),
        fragment_pick=PICK,
        deltas=DELTAS,
    )
    def test_a_kept_bitset_row_is_a_fresh_bfs(self, kind, use_shortcuts, fragment_pick, deltas):
        self.check_kept_rows("reachability", kind, use_shortcuts, fragment_pick, deltas)

    @staticmethod
    def check_kept_rows(semiring, kind, use_shortcuts, fragment_pick, deltas):
        sites = pickled_sites(kind, semiring)
        site = pickle.loads(sites[fragment_pick % len(sites)])
        fill_every_row(site, use_shortcuts, semiring)
        graph = site.compact(use_shortcuts=use_shortcuts)
        for ops in deltas:
            held = graph.derived_get(ROWS_KEYS[semiring])
            node_count = graph.node_count()
            graph.apply_delta(delta_of(graph, held, site.border_nodes, ops))
            rows = graph.derived_get(ROWS_KEYS[semiring])
            if graph.node_count() > node_count:
                assert rows is None  # a row has no slot for a new node
                event("a new node: every row dropped")
            else:
                event(f"{len(rows)} of {2 * len(site.border_nodes)} rows kept")
                assert_rows_are_fresh(graph, rows)
            fill_every_row(site, use_shortcuts, semiring)  # refill what was dropped

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(("ring", "chain")),
        semiring=st.sampled_from(sorted(SEMIRINGS)),
        writes=st.lists(WRITE, min_size=1, max_size=6),
    )
    def test_writes_through_the_service_keep_only_fresh_rows(self, kind, semiring, writes):
        # Service writes reach the site graphs as the repaired shortcut
        # deltas too, and rows filled by real queries are the ones they meet.
        service, layout = fractional_service(kind, SEMIRINGS[semiring], [])
        nodes = sorted(service.database.graph.nodes())
        for write in writes:
            for source, target in zip(nodes[::5], nodes[3::4]):
                with suppress(NoChainError):  # a delete can strand a chain's end
                    service.query(source, target)
            apply_write(service, layout, write, ring=kind == "ring")
            for site in service.engine().catalog.sites():
                rows = site.derived_get(ROWS_KEYS[semiring])
                if rows:
                    assert_rows_are_fresh(site.compact(), rows)
