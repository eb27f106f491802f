"""The service's border graph: what it reads, keeps, depends on and refuses."""

import pytest

from repro.closure import shortest_path_semiring
from repro.disconnection import answer_pairs
from tests.border_search_oracle import held_arcs
from repro.disconnection.local_query import TRANSIT_KEY
from repro.exceptions import NoChainError
from repro.fragmentation import Fragmentation
from repro.graph import DiGraph
from repro.service import QueryService

from tests.transit_layouts import interior, oracle_value, ring_layout

BLOCKS = 6


def arcs_held(service):
    """``fragment -> arcs`` for every site whose transit table holds its border-graph arcs."""
    held = {}
    for site in service.engine().catalog.sites():
        arcs = held_arcs(site, shortest_path_semiring())
        if arcs is not None:
            held[site.fragment_id] = arcs
    return held


@pytest.fixture
def ring():
    fragmentation, layout = ring_layout(BLOCKS)
    return QueryService(fragmentation), layout


class TestArcs:
    def test_a_query_reads_only_the_arcs_its_search_reaches(self, ring):
        service, layout = ring
        source, target = interior(layout, 0)[1], interior(layout, 1)[1]
        answer = service.query(source, target)
        assert answer.value == oracle_value(service, source, target)
        held = arcs_held(service)
        # The search leaves fragment 0 by the source's rows and crosses into
        # fragment 1 by its arcs; the far side of the ring is never reached.
        assert 1 in held
        assert 3 not in held

    def test_arcs_are_the_transit_entry_and_a_write_re_reads_its_fragments(self, ring):
        service, layout = ring
        service.query(interior(layout, 0)[1], interior(layout, 3)[1])
        held = arcs_held(service)
        assert set(held) == {1, 2, 4, 5}  # crossed both ways round; the ends use rows
        catalog = service.engine().catalog
        site = catalog.site(1)
        (entry,) = [
            entry for key, entry in site.derived_get(TRANSIT_KEY).items()
            if key[:2] == (site.border_nodes, site.border_nodes)
        ]
        assert entry.values is held[1]  # one copy: the arcs are the transit entry
        assert site.derived_get(TRANSIT_KEY).to_state() is None
        assert TRANSIT_KEY not in site.compact().state().get("derived", {})
        a, b = interior(layout, 2)[:2]
        service.update_edge(a, b, 50.0)
        assert service.database.delta_log.last().dirty_fragments == (2,)
        # The cached answer crossed fragment 2, so the write re-read its arcs
        # (a fresh entry) to compare them with those it held before.
        after = arcs_held(service)
        assert set(after) == {1, 2, 4, 5}
        assert all(after[fragment] is held[fragment] for fragment in (1, 4, 5))
        table = catalog.site(2).derived_get(TRANSIT_KEY)
        border = catalog.site(2).border_nodes
        assert after[2] is not held[2]
        assert table.previous[(border, border, "shortest_path")] is held[2]


    def test_arcs_an_evaluation_does_not_file_are_compiled_from_its_reply(self, ring):
        service, layout = ring
        catalog = service.engine().catalog

        def evaluate_unfiled(tasks):
            results = service._evaluate_tasks(tasks)
            for site in catalog.sites():
                table = site.derived_get(TRANSIT_KEY)
                if table:
                    table.clear()
            return results

        source, target = interior(layout, 0)[1], interior(layout, 3)[1]
        run = answer_pairs(catalog, [(source, target)], evaluate_unfiled, service.semiring)
        assert run.answers[(source, target)].value == oracle_value(service, source, target)
        assert set(catalog.border_graphs["shortest_path"].arcs) == {1, 2, 4, 5}


class TestCompiledRows:
    def test_a_write_drops_its_fragments_rows_and_a_moved_border_drops_the_graph(self, ring):
        service, layout = ring
        service.query(interior(layout, 0)[1], interior(layout, 3)[1])
        catalog = service.engine().catalog
        graph = catalog.border_graphs["shortest_path"]
        count = graph.count
        borders = graph.borders
        at = {
            fragment: {state for state in graph.rows if state // count in borders[fragment]}
            for fragment in range(count)
        }
        assert graph.arcs and at[2]
        a, b = interior(layout, 2)[:2]
        service.update_edge(a, b, 50.0)
        assert service.database.delta_log.last().dirty_fragments == (2,)
        assert catalog.border_graphs["shortest_path"] is graph  # the ids stand
        assert 2 not in graph.arcs and not set(graph.rows) & at[2]
        assert set(graph.rows) == set().union(*at.values()) - at[2]
        # An edge from fragment 0 to an interior node of fragment 3 makes
        # that node a border node: the ids are rebuilt on the next query.
        service.update_edge(interior(layout, 0)[0], interior(layout, 3)[0], 5.0)
        assert "shortest_path" not in catalog.border_graphs
        source, target = interior(layout, 1)[1], interior(layout, 4)[1]
        assert service.query(source, target).value == oracle_value(service, source, target)
        assert catalog.border_graphs["shortest_path"] is not graph


class TestDependencies:
    def test_a_write_outside_the_search_evicts_nothing(self, ring):
        service, layout = ring
        source, target = interior(layout, 0)[1], interior(layout, 1)[1]
        service.query(source, target)
        (logged,) = service.query_log.recent()
        fragments = set(logged.fragments)
        assert 3 not in fragments
        a, b = interior(layout, 3)[:2]
        service.update_edge(a, b, 50.0)
        again = service.query(source, target)
        assert again.cached and again.value == oracle_value(service, source, target)

    def test_a_write_inside_the_search_evicts_the_answer(self, ring):
        service, layout = ring
        source, target = interior(layout, 0)[1], interior(layout, 1)[1]
        service.query(source, target)
        a, b = interior(layout, 0)[:2]
        service.update_edge(a, b, 50.0)
        again = service.query(source, target)
        assert not again.cached and again.value == oracle_value(service, source, target)


class TestNoChain:
    @pytest.fixture
    def two_islands(self):
        graph = DiGraph()
        for a, b in [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")]:
            graph.add_symmetric_edge(a, b, 1.0)
        fragments = [
            {("a", "b"), ("b", "a")},
            {("b", "c"), ("c", "b")},
            {("x", "y"), ("y", "x"), ("y", "z"), ("z", "y")},
        ]
        return QueryService(Fragmentation(graph, fragments))

    def test_fragments_no_chain_joins_raise(self, two_islands):
        assert two_islands.query("a", "c").value == 2.0
        with pytest.raises(NoChainError, match="no chain of fragments connects 'a'"):
            two_islands.query("a", "z")
        (answer,) = two_islands.query_batch([("a", "z")])
        assert answer.value is None and "no chain of fragments" in answer.error
