"""One write costs what it changes, and changes exactly what the whole-graph version did.

Three constructions on the write path follow the change instead of the graph:
the repair probes stop at a radius read off the stored border-to-border
values, the post-write ``Fragmentation`` is derived from the previous one,
and a site patches its subgraph and compact graph from the edge changes it
owns.  Each is checked here against the construction it replaced
(``tests/incremental_oracles.py``) while real writes run — inside a fragment,
at a border node and on a connecting edge, symmetric and one-way, on a
symmetric ring and a one-way chain, for both semirings.  The ``paths`` cases
also trace, after each shortest-path write, a route across the written block
through the live engine and check it against the whole graph (a reachability
engine must keep refusing routes).
"""

from contextlib import contextmanager
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import reachability_semiring, shortest_path_semiring
from repro.closure.kernels import array_dijkstra
from repro.disconnection import FragmentedDatabase
from repro.disconnection.catalog import FragmentSite
from repro.disconnection.complementary import precompute_complementary_information
from repro.exceptions import DisconnectedError, NoChainError
from repro.graph import CompactGraph, DiGraph
from repro.graph.shortest_path import shortest_path_length
from repro.incremental.repair import ComplementaryRepairer

from tests import incremental_oracles as oracles
from tests.transit_layouts import chain_layout, interior, pairs_at, ring_layout

# Eight nodes a block: four of them interior, so "inside" has edges to insert.
BLOCKS, SIZE = 5, 8
PICK = st.integers(min_value=0, max_value=10**6)
WRITE = st.tuples(
    st.sampled_from(("insert", "reweight-up", "reweight-down", "delete")),
    st.sampled_from(("inside", "border", "connecting")),
    st.sampled_from(range(BLOCKS)),
    PICK,
    st.booleans(),  # symmetric
    st.integers(min_value=1, max_value=9),
)
WRITES = st.lists(WRITE, min_size=1, max_size=5)
SEMIRINGS = {"sp": shortest_path_semiring, "reach": reachability_semiring}


def deploy(layout_name, semiring_name, *, warm=True, blocks=BLOCKS, size=SIZE):
    """A live incremental database over a ring or a one-way chain."""
    make = ring_layout if layout_name == "ring" else chain_layout
    fragmentation, layout = make(blocks, size)
    semiring = SEMIRINGS[semiring_name]()
    info = precompute_complementary_information(fragmentation, semiring=semiring)
    database = FragmentedDatabase(
        fragmentation, semiring=semiring, complementary=info
    )
    if warm:  # a site without a compact form has nothing to patch
        for site in database.engine().catalog.sites():
            site.compact()
            site.local_iterations()
    return database, layout


def joined(layout, block):
    """Two interior nodes of ``block`` with an edge from the first to the second."""
    return tuple(interior(layout, block)[:2])


def apart(layout, block):
    """Two interior nodes of ``block`` with no edge between them."""
    nodes = interior(layout, block)
    return nodes[0], nodes[3]


# ------------------------------------------------------------------ checking


class Checks:
    """How often each comparison against an oracle ran."""

    def __init__(self):
        self.probes = 0
        self.site_patches = 0
        self.site_deltas = 0


@contextmanager
def checked_against_oracles(database, monkeypatch_context):
    """Compare every probe and every site patch of the block's writes with its oracle."""
    checks = Checks()
    semiring_name = database.engine().semiring.name
    real_before = ComplementaryRepairer.affected_sources_before
    real_after = ComplementaryRepairer.affected_sources_after
    real_apply = FragmentSite.apply_update

    def before(self, info, graph, changes, border_sets, report=None):
        changes = list(changes)
        marked = real_before(self, info, graph, changes, border_sets, report)
        assert marked == oracles.suspects_unbounded(
            semiring_name, info, graph, changes, border_sets
        )
        checks.probes += 1
        return marked

    def after(self, info, graph, changes, border_sets, report=None):
        changes = list(changes)
        marked = real_after(self, info, graph, changes, border_sets, report)
        assert marked == oracles.improvements_unbounded(
            semiring_name, info, graph, changes, border_sets
        )
        checks.probes += 1
        return marked

    def apply_update(site, changes, **kwargs):
        compact = site._compact_augmented
        old = oracles.compact_edges(compact) if compact is not None else None
        delta = real_apply(site, changes, **kwargs)
        checks.site_patches += 1
        if old is None:
            assert delta is None
        else:
            expected = oracles.full_diff_delta(old, oracles.augmented_edges(site))
            assert oracles.as_sets(delta) == oracles.as_sets(expected)
            assert oracles.compact_edges(compact) == oracles.augmented_edges(site)
            checks.site_deltas += 1
        return delta

    with monkeypatch_context() as patch:
        patch.setattr(ComplementaryRepairer, "affected_sources_before", before)
        patch.setattr(ComplementaryRepairer, "affected_sources_after", after)
        patch.setattr(FragmentSite, "apply_update", apply_update)
        yield checks


def assert_derived_equals_constructed(database):
    derived = database.fragmentation()
    constructed = oracles.constructed_fragmentation(database)
    assert [f.edges for f in derived.fragments] == [f.edges for f in constructed.fragments]
    assert [f.nodes for f in derived.fragments] == [f.nodes for f in constructed.fragments]
    assert list(derived.disconnection_sets().items()) == list(
        constructed.disconnection_sets().items()
    )
    for fragment in constructed.fragments:
        fragment_id = fragment.fragment_id
        assert derived.border_nodes(fragment_id) == constructed.border_nodes(fragment_id)
        assert derived.adjacent_fragments(fragment_id) == constructed.adjacent_fragments(fragment_id)
    for node in database.graph.nodes():
        assert derived.fragments_of_node(node) == constructed.fragments_of_node(node)
    for source, target in database.graph.edges():
        assert derived.edge_fragment(source, target) == constructed.edge_fragment(source, target)


def assert_sites_equal_a_fresh_catalog(database):
    fragmentation = database.fragmentation()
    catalog = database.engine().catalog
    for site in catalog.sites():
        fragment_id = site.fragment_id
        assert site.subgraph == fragmentation.fragment_subgraph(fragment_id)
        assert site.border_nodes == fragmentation.border_nodes(fragment_id)
        assert site.neighbours == fragmentation.adjacent_fragments(fragment_id)
        assert site.disconnection_sets == {
            neighbour: fragmentation.disconnection_set(fragment_id, neighbour)
            for neighbour in site.neighbours
        }
        assert sorted(site.shortcuts, key=repr) == sorted(
            catalog.complementary.shortcut_edges(fragment_id, fragmentation), key=repr
        )
        fresh = FragmentSite(fragment_id, site.subgraph, site.border_nodes)
        assert site.local_iterations() == fresh.local_iterations()


def assert_complementary_equals_a_rebuild(database):
    engine = database.engine()
    rebuilt = precompute_complementary_information(
        database.fragmentation(), semiring=engine.semiring
    )
    assert engine.catalog.complementary.values == rebuilt.values


def assert_routes_across_the_block_are_walks_at_the_whole_graph_cost(database, layout, block):
    """Route from the block before the written one into it and through it to the next."""
    graph = database.graph
    engine = database.engine()
    source = layout[block - 1][0]
    for target in layout[block] + layout[(block + 1) % len(layout)]:
        try:
            expected = shortest_path_length(graph, source, target)
        except DisconnectedError:
            with pytest.raises((DisconnectedError, NoChainError)):
                engine.route(source, target)
            continue
        routed = engine.route(source, target)
        assert routed.cost == pytest.approx(expected)
        assert routed.route[0] == source and routed.route[-1] == target
        walked = sum(graph.edge_weight(a, b) for a, b in zip(routed.route, routed.route[1:]))
        assert walked == pytest.approx(expected)


# ------------------------------------------------------------------- writing


def apply_write(database, layout, write, *, ring):
    """Apply one drawn write through the database's public methods; False when none fits."""
    action, where, block, pick, symmetric, amount = write
    graph = database.graph
    block_of, pairs = pairs_at(database.fragmentation(), layout, where, ring=ring)
    pairs = [pair for pair in pairs if block_of[pair[0]] == block] or pairs
    if action == "insert":
        pairs = [pair for pair in pairs if not graph.has_edge(*pair)]
    else:
        pairs = [pair for pair in pairs if graph.has_edge(*pair)]
    if not pairs:
        return False
    source, target = pairs[pick % len(pairs)]
    if action == "insert":
        database.insert_edge(source, target, float(amount), symmetric=symmetric)
    elif action == "delete":
        database.delete_edge(source, target, symmetric=symmetric)
    else:
        weight = graph.edge_weight(source, target)
        weight = weight + amount if action == "reweight-up" else weight / 2.0
        if symmetric:  # insert_edge on an existing edge reweights both directions
            database.insert_edge(source, target, weight, symmetric=True)
        else:
            database.update_edge_weight(source, target, weight)
    return True


@pytest.mark.parametrize("semiring_name", ["sp", "reach"])
@pytest.mark.parametrize("layout_name", ["ring", "chain"])
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(writes=WRITES)
def test_every_write_matches_its_whole_graph_oracles(
    layout_name, semiring_name, writes, monkeypatch
):
    database, layout = deploy(layout_name, semiring_name)
    with checked_against_oracles(database, monkeypatch.context) as checks:
        applied = 0
        for write in writes:
            if not apply_write(database, layout, write, ring=layout_name == "ring"):
                continue
            applied += 1
            assert database.statistics.incremental_fallbacks == 0
            assert database.statistics.incremental_updates == applied
            assert_derived_equals_constructed(database)
            assert_sites_equal_a_fresh_catalog(database)
            assert_complementary_equals_a_rebuild(database)
            if semiring_name == "sp":
                assert_routes_across_the_block_are_walks_at_the_whole_graph_cost(
                    database, layout, write[2]
                )
    assert checks.probes == 2 * applied
    assert checks.site_deltas == checks.site_patches >= applied


@pytest.mark.parametrize("layout_name", ["ring", "chain"])
def test_a_cold_site_patches_its_subgraph_and_ships_nothing(layout_name, monkeypatch):
    database, layout = deploy(layout_name, "sp", warm=False)
    a, b = apart(layout, 1)
    with checked_against_oracles(database, monkeypatch.context) as checks:
        database.insert_edge(b, a, 2.0)
        database.delete_edge(b, a)
    assert checks.site_patches == 2 and checks.site_deltas == 0
    assert database.last_delta.site_deltas == {1: None}
    assert_sites_equal_a_fresh_catalog(database)


def test_owner_lookups_match_a_scan_of_every_fragment():
    database, layout = deploy("ring", "sp")
    graph = database.graph
    nodes = sorted(graph.nodes()) + [10_000, 10_001]
    database.insert_edge(layout[0][2], 10_002, 1.0)  # a node new to every fragment
    database.delete_edge(*joined(layout, 2))
    for source in nodes:
        for target in nodes:
            if source == target:
                continue
            assert database._owner_of_edge(source, target) == oracles.owner_of_edge_by_scan(
                database, source, target
            )
            assert database._choose_owner(source, target) == oracles.choose_owner_by_scan(
                database, source, target
            )


# ----------------------------------------------------------- the two branches


def test_stored_values_bound_the_probe_radius_on_a_ring():
    database, layout = deploy("ring", "sp")
    values = database.engine().catalog.complementary.values
    largest = max(value for stored in values.values() for value in stored.values())
    a, b = joined(layout, 2)
    database.update_edge_weight(a, b, database.graph.edge_weight(a, b) + 1.0)
    report = database.last_delta.report
    assert largest <= report.probe_limit < largest + 1e-6
    assert 0 < report.probe_settled < database.graph.node_count()


def test_an_unreachable_border_pair_is_probed_without_a_radius_and_repaired(monkeypatch):
    """On a one-way chain no border node reaches its partner: no stored value, no radius."""
    database, layout = deploy("chain", "sp")
    info = database.engine().catalog.complementary
    pair = (1, 2)
    first, second = sorted(database.fragmentation().disconnection_set(*pair))
    assert (second, first) not in info.values[pair]
    # A back edge two blocks away closes a cycle through both border nodes.
    with checked_against_oracles(database, monkeypatch.context):
        database.insert_edge(layout[3][2], layout[0][2], 1.0)
    assert database.statistics.incremental_fallbacks == 0
    report = database.last_delta.report
    assert report.probe_limit == inf
    assert (second, first) in info.values[pair]
    assert pair in database.last_delta.pairs_changed
    assert_complementary_equals_a_rebuild(database)


def test_a_radius_that_ignores_missing_pairs_misses_the_repair(monkeypatch):
    """The mutant the oracle comparison exists for: every_pair treated as False."""
    real = ComplementaryRepairer._stored_radius

    def forgetful(self, info, border_sets, *, every_pair):
        return real(self, info, border_sets, every_pair=False)

    monkeypatch.setattr(ComplementaryRepairer, "_stored_radius", forgetful)
    database, layout = deploy("chain", "sp")
    with checked_against_oracles(database, monkeypatch.context):
        database.insert_edge(layout[3][2], layout[0][2], 1.0)
    # The comparison failed inside complete(); _apply_changes turned that into
    # a counted fallback (which the un-mutated run above asserts is zero).
    assert database.statistics.incremental_fallbacks == 1
    assert database.delta_log.last().incremental is False


# ------------------------------------------------------- the bounded kernel


def random_graph(seed, nodes=40, edges=110):
    import random

    rng = random.Random(seed)
    graph = DiGraph(nodes=range(nodes))
    while graph.edge_count() < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            graph.add_edge(a, b, float(rng.randint(1, 9)))
    return CompactGraph.from_digraph(graph)


def assert_bounded_search_is_exact(search, graph, source_id, limit, *, backward):
    full, _, _ = array_dijkstra(graph, source_id, backward=backward)
    bounded, predecessors, settled = search(graph, source_id, backward=backward, limit=limit)
    assert bounded == [distance if distance <= limit else inf for distance in full]
    assert settled == sum(distance <= limit for distance in full)
    for node_id, distance in enumerate(bounded):
        assert (predecessors[node_id] >= 0) == (distance != inf and node_id != source_id)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    source_id=st.integers(0, 39),
    limit=st.integers(0, 30),
    backward=st.booleans(),
    overlay=st.booleans(),
)
def test_a_bounded_search_reports_only_settled_distances(seed, source_id, limit, backward, overlay):
    graph = random_graph(seed)
    if overlay:
        from repro.graph import CompactDelta

        graph.apply_delta(CompactDelta(inserts=((source_id, (source_id + 7) % 40, 2.0),)))
    assert_bounded_search_is_exact(array_dijkstra, graph, source_id, float(limit), backward=backward)


def test_a_search_that_keeps_tentative_labels_is_caught():
    """The mutant: stop at the radius but leave the frontier's labels in place."""

    def leaky(graph, source_id, *, backward, limit):
        dist, pred, settled = array_dijkstra(graph, source_id, backward=backward, limit=limit)
        neighbours = graph.predecessor_ids if backward else graph.successor_ids
        for node_id, distance in enumerate(list(dist)):
            if distance == inf:
                continue
            for other, weight in neighbours(node_id):
                if dist[other] == inf or (pred[other] == -2 and distance + weight < dist[other]):
                    dist[other] = distance + weight
                    pred[other] = -2
        return dist, [max(p, -1) for p in pred], settled

    graph = random_graph(7)
    with pytest.raises(AssertionError):
        assert_bounded_search_is_exact(leaky, graph, 0, 6.0, backward=False)
    assert_bounded_search_is_exact(array_dijkstra, graph, 0, 6.0, backward=False)


def test_target_stop_and_radius_compose():
    graph = random_graph(3)
    full, _, _ = array_dijkstra(graph, 0)
    near = [node_id for node_id, distance in enumerate(full) if distance <= 5.0]
    dist, _, settled = array_dijkstra(graph, 0, target_ids=near, limit=50.0)
    assert [dist[node_id] for node_id in near] == [full[node_id] for node_id in near]
    assert settled <= sum(distance <= 50.0 for distance in full)
    assert all(d == inf or d == full[i] for i, d in enumerate(dist))  # nothing tentative left


# ------------------------------------------------------------- work counts


class TestWorkFollowsTheChange:
    CLUSTERS = 64

    @pytest.fixture(scope="class")
    def ring(self):
        return deploy("ring", "sp", blocks=self.CLUSTERS)

    def test_an_interior_reweight_searches_its_neighbourhood_and_reuses_every_fragment(self, ring):
        database, layout = ring
        a, b = joined(layout, 20)
        database.insert_edge(a, b, database.graph.edge_weight(a, b))  # builds the first snapshot
        before = database.fragmentation()
        database.update_edge_weight(a, b, database.graph.edge_weight(a, b) + 2.0)
        report = database.last_delta.report
        assert report.searches == 2 and report.rows_recomputed == 0
        assert report.probe_settled < 2 * SIZE
        after = database.fragmentation()
        reused = sum(new is old for new, old in zip(after.fragments, before.fragments))
        assert reused >= self.CLUSTERS - 2
        assert database.statistics.incremental_fallbacks == 0

    def test_an_interior_insert_replaces_one_fragment_object(self, ring):
        database, layout = ring
        before = database.fragmentation()
        a, b = apart(layout, 40)
        database.insert_edge(b, a, 3.0)
        after = database.fragmentation()
        replaced = [new.fragment_id for new, old in zip(after.fragments, before.fragments) if new is not old]
        assert replaced == [40]
        assert after.fragments[40].edges == before.fragments[40].edges | {(b, a)}
        assert_derived_equals_constructed(database)
        untouched = [site for site in database.engine().catalog.sites() if site.fragment_id != 40]
        assert all(site._local_iterations is not None for site in untouched)

    def test_only_a_structural_write_discards_the_iteration_estimate(self, ring):
        database, layout = ring
        site = database.engine().catalog.site(50)
        estimate = site.local_iterations()
        database.update_edge_weight(*joined(layout, 50), 7.0)
        assert site._local_iterations == estimate and site._compact_plain is None
        database.insert_edge(*apart(layout, 50), 1.0)
        assert site._local_iterations is None
