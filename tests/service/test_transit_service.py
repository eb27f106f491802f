"""Transit tables and border rows through the serving stack.

Work-count guards (so neither memo can silently stop working), what a write
and a shortcut repair set aside and a refragmentation drops, what a snapshot
contains, how a pool worker's border hint follows a write, and the records
the decisions leave: the ``memoized`` / ``rows_read`` / ``rows_filled`` span
attributes, the ``repro_transit_lookups_total`` and
``repro_border_row_lookups_total`` counters, the rows held per fragment, and
dispatch counts that describe only what was actually routed.  A
reachability service reads bitset rows, counted the same ways, in process
and on pool workers.
"""

import repro.disconnection.local_query as local_query_module
from repro.closure import reachability_semiring, shortest_path_cost
from repro.disconnection.local_query import BORDER_ROWS_KEY, ROWS_KEYS, TRANSIT_KEY
from repro.fragmentation import GroundTruthFragmenter
from repro.service import QueryService

from tests.tracing_helpers import spans_named
from tests.transit_layouts import (
    chain_layout,
    counted_bfs,
    interior,
    is_transit,
    oracle_value,
    ring_layout,
)

BLOCKS = 6


def warm_ring(service, layout):
    """Two queries per direction: every fragment has been a transit fragment both ways."""
    half = BLOCKS // 2
    for start in (0, 1):
        source, target = interior(layout, start)[0], interior(layout, start + half)[0]
        service.query(source, target)
        service.query(target, source)


def tables(service):
    return {
        site.fragment_id: site.compact().derived_get(TRANSIT_KEY)
        for site in service.engine().catalog.sites()
    }


BLOCK_PAIRS = [(0, 2), (5, 2), (3, 1), (4, 0), (2, 5), (1, 4)]


def cold_pairs(layout):
    """Interior pairs the warm-up did not ask (so no answer is a result-cache hit)."""
    return [(interior(layout, a)[1], interior(layout, b)[1]) for a, b in BLOCK_PAIRS]


class TestWorkCountGuards:
    def test_a_cold_query_fills_border_rows_once_and_then_searches_nothing(self, monkeypatch):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        calls = []
        real = local_query_module.array_dijkstra

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(local_query_module, "array_dijkstra", counting)
        catalog = service.engine().catalog
        for source, target in cold_pairs(layout):
            calls.clear()
            answer = service.query(source, target)
            assert not answer.cached
            assert answer.value == shortest_path_cost(service.database.graph, source, target)
            # Nothing in between, and at the two ends at most one fill per
            # border node: a backward row where the source's fragment is
            # left, a forward one where the target's is entered.
            ends = [
                site
                for site in catalog.sites()
                if site.stores_node(source) or site.stores_node(target)
            ]
            assert len(ends) == 2
            assert len(calls) <= sum(len(site.border_nodes) for site in ends)
        # Every fragment has now been left and entered through every border
        # node: a cold query between two of them is array reads only.
        calls.clear()
        for a, b in BLOCK_PAIRS:
            source, target = interior(layout, a)[0], interior(layout, b)[1]
            answer = service.query(source, target)
            assert not answer.cached
            assert answer.value == shortest_path_cost(service.database.graph, source, target)
        assert not calls
        held = service.border_rows()
        for site in catalog.sites():
            rows = 2 * len(site.border_nodes)
            assert held[site.fragment_id] == {
                "rows": rows, "bytes": rows * 8 * site.compact().node_count()
            }
        assert service.metrics("json")["border_rows"] == held

    def test_a_pooled_batch_ships_no_border_to_border_task(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2, placement="cost_balanced") as service:
            warm_ring(service, layout)
            pool = service._pool
            shipped = []
            real = pool.evaluate

            def recording(tasks, **kwargs):
                shipped.extend(tasks)
                for group in (kwargs.get("owner_groups") or {}).values():
                    shipped.extend(group)
                return real(tasks, **kwargs)

            pool.evaluate = recording
            routed_before = sum(service.stats.counts(service.stats.per_owner_dispatch).values())
            evaluations_before = service.stats.local_evaluations.value()
            lookups_before = service.stats.transit_lookups()
            pairs = cold_pairs(layout)
            answers = service.query_batch(pairs)
            for (source, target), answer in zip(pairs, answers):
                assert answer.value == shortest_path_cost(
                    service.database.graph, source, target
                )
            catalog = service.engine().catalog
            assert shipped
            assert not [task for task in shipped if is_transit(catalog.site(task[0]), task)]
            # Dispatch accounting describes what was routed, nothing more.
            routed = len(set(shipped))
            assert sum(service.stats.counts(service.stats.per_owner_dispatch).values()) - routed_before == routed
            assert service.stats.local_evaluations.value() - evaluations_before == routed
            # The coordinator's transit tables hold every fragment's
            # border-graph arcs since the warm-up, and the search reads them
            # there: no task of the batch is border-to-border, so no task
            # asks the tables.
            assert service.stats.transit_lookups() == lookups_before

    def test_worker_replies_fill_the_coordinators_tables(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2) as service:  # default cost_balanced plan
            assert not any(tables(service).values())
            warm_ring(service, layout)
            assert all(tables(service).values())
            lookups = service.stats.transit_lookups()
            assert lookups["miss"] == sum(len(table) for table in tables(service).values())


class TestTheWorkersBorderHint:
    """A pool worker knows its fragments' border nodes, and keeps knowing them."""

    def moved_set(self, service, layout):
        """Join two interiors across DS(1, 2): the set gains a node, fragment 2 no edge."""
        a, b = interior(layout, 1)[0], interior(layout, 2)[0]
        service.update_edge(a, b, 0.5)
        site = service.engine().catalog.site(2)
        assert b in site.border_nodes and len(site.disconnection_sets[1]) == 3
        assert service.database.last_delta.site_deltas[2].is_empty()
        return site

    def rows_at(self, service, fragment_id):
        """Rows read and filled by the last query's tasks on ``fragment_id``."""
        kernels = spans_named(service.tracer.recent(1)[0], "kernel")
        return sum(
            span.attributes["rows_read"] + span.attributes["rows_filled"]
            for span in kernels
            if span.attributes["fragment"] == fragment_id
        )

    def test_a_write_that_moves_a_disconnection_set_moves_the_hint(self):
        fragmentation, layout = ring_layout(BLOCKS)
        pooled_layout, _ = ring_layout(BLOCKS)
        in_process = QueryService(fragmentation)
        with QueryService(pooled_layout, workers=2) as pooled:
            for service in (in_process, pooled):
                warm_ring(service, layout)
                site = self.moved_set(service, layout)
            source, target = interior(layout, 2)[1], interior(layout, 5)[1]
            for service in (in_process, pooled):
                answer = service.query(source, target)
                assert answer.value == shortest_path_cost(service.database.graph, source, target)
                # The source's row leaves fragment 2 through rows: one per
                # node of either set, the new border node's among them.  A
                # worker still holding the old set would have searched
                # instead.
                assert self.rows_at(service, 2) == len(site.border_nodes) == 5
            assert pooled.query(source, target).value == in_process.query(source, target).value

    def test_a_migrated_and_a_respawned_worker_get_the_current_set(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2) as service:
            warm_ring(service, layout)
            site = self.moved_set(service, layout)
            owner = service.placement_plan.owner(2)
            assert service.migrate(2, 1 - owner)
            source, target = interior(layout, 2)[1], interior(layout, 5)[1]
            service.query(source, target)
            assert self.rows_at(service, 2) == len(site.border_nodes)
            worker = service._pool._workers[1 - owner].process
            worker.kill()
            worker.join(timeout=5)
            assert not worker.is_alive()
            target = interior(layout, 4)[1]
            answer = service.query(source, target)
            assert answer.value == shortest_path_cost(service.database.graph, source, target)
            assert service._pool.respawns == 1
            assert self.rows_at(service, 2) == len(site.border_nodes)


class TestWhatAWriteDrops:
    def test_only_the_dirty_fragments_tables_are_set_aside(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        before = tables(service)
        assert all(before.values())
        held = {fragment_id: dict(table) for fragment_id, table in before.items()}
        a, b = interior(layout, 3)[:2]
        service.update_edge(a, b, 50.0)
        dirty = set(service.database.delta_log.last().dirty_fragments)
        assert 3 in dirty and dirty != set(before)
        after = tables(service)
        catalog = service.engine().catalog
        for fragment_id, table in before.items():
            assert after[fragment_id] is table
            if fragment_id in dirty:
                # What it held is kept aside; it serves only what the write
                # re-read: the fragment's arcs, for the answers crossing it.
                assert table.previous == {
                    key: entry.values for key, entry in held[fragment_id].items()
                }
                border = catalog.site(fragment_id).border_nodes
                assert list(table) == [(border, border, "shortest_path")]
            else:
                assert table == held[fragment_id] and not table.previous
        for source, target in cold_pairs(layout):
            assert service.query(source, target).value == shortest_path_cost(
                service.database.graph, source, target
            )

    def test_a_shortcut_repair_alone_sets_the_neighbours_table_aside(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        catalog = service.engine().catalog
        # Fragment 1 stores a shortcut between the two nodes of DS(1, 2), which
        # are the first two nodes of block 2; the edge joining them belongs to
        # fragment 2.  Making it cheap changes that shortcut and nothing else
        # fragment 1 stores.
        a, b = sorted(catalog.site(1).disconnection_sets[2])
        assert service.database.graph.has_edge(a, b)
        edges_before = sorted(catalog.site(1).subgraph.weighted_edges())
        shortcuts_before = sorted(catalog.site(1).shortcuts)
        table_before = tables(service)[1]
        held = {key: entry.values for key, entry in table_before.items()}
        owner = service.update_edge(a, b, 0.5)
        assert owner == 2
        site = catalog.site(1)
        assert sorted(site.subgraph.weighted_edges()) == edges_before
        assert sorted(site.shortcuts) != shortcuts_before
        assert held and tables(service)[1] is table_before
        assert table_before.previous == held
        for source, target in cold_pairs(layout):
            assert service.query(source, target).value == shortest_path_cost(
                service.database.graph, source, target
            )

    def test_a_refragmentation_rebuilds_sites_without_tables(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        before = tables(service)
        moved = layout[-1][2]
        blocks = [set(block) for block in layout]
        blocks[-1].discard(moved)
        blocks[-2].add(moved)
        result = service.refragment(GroundTruthFragmenter(blocks))
        assert result is not None and result.changed and result.unchanged
        catalog = service.engine().catalog
        for fragment_id in result.changed:
            assert catalog.site(fragment_id)._compact_augmented is None
        for fragment_id in result.unchanged:
            assert tables(service)[fragment_id] is before[fragment_id]
        for source, target in cold_pairs(layout):
            assert service.query(source, target).value == shortest_path_cost(
                service.database.graph, source, target
            )


class TestSnapshots:
    def test_snapshot_bytes_do_not_depend_on_warm_tables(self, tmp_path):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        for site in service.engine().catalog.sites():
            site.derive()
        service.snapshot(tmp_path / "cold")
        warm_ring(service, layout)
        assert all(tables(service).values())
        service.snapshot(tmp_path / "warm")
        assert (tmp_path / "warm" / "payload.bin").read_bytes() == (
            tmp_path / "cold" / "payload.bin"
        ).read_bytes()
        restored = QueryService.from_snapshot(tmp_path / "warm")
        assert not any(tables(restored).values())
        for source, target in cold_pairs(layout):
            assert restored.query(source, target).value == service.query(source, target).value


class TestDecisionRecords:
    def test_kernel_spans_say_how_many_tasks_were_replayed(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        source, target = cold_pairs(layout)[4]
        service.query(source, target)
        kernels = [
            span for span in service.tracer.recent(1)[0].spans if span.name == "kernel"
        ]
        # Only the endpoints' fragments evaluate: every fragment's arcs are
        # held since the warm-up, which read them through backward rows from
        # every border node — the rows the source's fragment (2) reads — and
        # never entered fragment 5, whose target row needs forward rows.
        assert sorted(span.attributes["fragment"] for span in kernels) == [2, 5]
        for span in kernels:
            attributes = span.attributes
            rows = (attributes["rows_read"], attributes["rows_filled"])
            assert attributes["tasks"] == 1
            if attributes["fragment"] == 2:
                assert attributes["memoized"] == 1
                assert attributes["searches"] == 0 and rows == (4, 0)
            else:
                assert attributes["memoized"] == 0
                assert attributes["searches"] == 4 and rows == (0, 4)

    def test_pooled_spans_say_how_many_rows_the_workers_filled(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2, placement="cost_balanced") as service:
            warm_ring(service, layout)
            before = service.stats.border_row_lookups()
            service.query(*cold_pairs(layout)[4])
            trace = service.tracer.recent(1)[0]
            (evaluate,) = spans_named(trace, "evaluate")
            kernels = spans_named(trace, "kernel")
            # Two endpoint tasks, nothing else: fragment 2's owner reads four
            # rows the warm-up's arcs filled, fragment 5's fills four.
            assert evaluate.attributes["tasks"] == len(kernels) == 2
            assert evaluate.attributes["searches"] == 4
            assert sum(span.attributes["searches"] for span in kernels) == 4
            for span in kernels:
                rows = (span.attributes["rows_read"], span.attributes["rows_filled"])
                assert rows == ((4, 0) if span.attributes["fragment"] == 2 else (0, 4))
            # The workers' counts reach the coordinator's counter.
            after = service.stats.border_row_lookups()
            assert (after["read"] - before["read"], after["fill"] - before["fill"]) == (4, 4)
            assert sum(held["rows"] for held in service.border_rows().values()) == after["fill"]

    def test_the_lookup_counter_is_exported_and_round_trips(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        service.query(*cold_pairs(layout)[0])
        lookups = service.stats.transit_lookups()
        # One miss per fragment, when the first query read its arcs; the
        # border graph keeps them, so no later task asks the table again.
        assert lookups == {"hit": 0, "miss": BLOCKS}
        assert service.stats.as_dict()["transit_lookups"] == lookups
        exposition = service.metrics("prometheus")
        assert f'repro_transit_lookups_total{{outcome="miss"}} {lookups["miss"]}' in exposition
        rows = service.stats.border_row_lookups()
        assert rows["read"] > 0 and rows["fill"] > 0
        assert service.stats.as_dict()["border_row_lookups"] == rows
        assert f'repro_border_row_lookups_total{{outcome="read"}} {rows["read"]}' in exposition
        assert f'repro_border_row_lookups_total{{outcome="fill"}} {rows["fill"]}' in exposition

    def test_a_rederivation_after_a_write_is_its_own_span(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        a, b = interior(layout, 3)[:2]
        assert service.database.graph.has_edge(a, b)
        service.update_edge(a, b, delete=True)
        assert service.database.delta_log.last().dirty_fragments == (3,)
        source, target = interior(layout, 0)[1], interior(layout, 3)[1]
        # The delete was spliced into the site graph, and no evaluation
        # reads the iteration estimate it discarded: nothing to re-derive.
        service.query(source, target)
        assert "site_rederive" not in service.tracer.recent(1)[0].span_names()
        # A redraw rebuilds the sites it changes; each is re-derived once.
        blocks = [set(block) for block in layout]
        blocks[3].discard(layout[3][2])
        blocks[2].add(layout[3][2])
        result = service.refragment(GroundTruthFragmenter(blocks))
        assert set(result.changed) == {2, 3}
        answer = service.query(target, source)
        assert answer.value == shortest_path_cost(service.database.graph, target, source)
        spans = service.tracer.recent(1)[0].spans
        rederived = [s.attributes["fragment"] for s in spans if s.name == "site_rederive"]
        assert sorted(rederived) == [2, 3]
        service.query(source, target)
        assert "site_rederive" not in service.tracer.recent(1)[0].span_names()

    def test_a_reweight_leaves_nothing_to_rederive(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        a, b = interior(layout, 3)[:2]
        assert service.database.graph.has_edge(a, b)
        service.update_edge(a, b, 50.0)
        assert service.database.delta_log.last().dirty_fragments == (3,)
        service.query(interior(layout, 0)[1], interior(layout, 3)[1])
        assert "site_rederive" not in service.tracer.recent(1)[0].span_names()



class TestReachabilityRows:
    def census_after_queries(self, **service_options):
        fragmentation, layout = chain_layout(BLOCKS, 8)
        with QueryService(
            fragmentation, semiring=reachability_semiring(), **service_options
        ) as service:
            pairs = [
                (interior(layout, a)[0], interior(layout, b)[1])
                for a, b in [(0, 3), (1, 5), (2, 2), (4, 1), (3, 5)]
            ]
            for source, target in pairs:
                assert service.query(source, target).value == oracle_value(service, source, target)
            with counted_bfs() as calls:
                for source, target in pairs:
                    service.cache.clear()
                    service.query(source, target)
            lookups = service.stats.border_row_lookups()
            return service.border_rows(), lookups, calls, service.engine().catalog

    def test_endpoint_tasks_read_bitset_rows_and_the_census_counts_them(self):
        held, lookups, calls, catalog = self.census_after_queries()
        # Asked again, the same pairs read only rows: the one BFS left is the
        # keyhole search inside the same-fragment pair (2, 2).
        assert len(calls) == 1
        assert lookups["read"] > 0 and lookups["fill"] == sum(h["rows"] for h in held.values())
        for site in catalog.sites():
            rows = site.derived_get(ROWS_KEYS["reachability"]) or {}
            assert site.derived_get(BORDER_ROWS_KEY) is None
            assert len(rows) <= 2 * len(site.border_nodes)
            if rows:
                assert held[site.fragment_id] == {
                    "rows": len(rows),
                    "bytes": sum((row.reached.bit_length() + 7) // 8 for row in rows.values()),
                }

    def test_pool_workers_hold_the_rows_the_process_would(self):
        in_process, lookups, _, _ = self.census_after_queries()
        pooled, pooled_lookups, calls, _ = self.census_after_queries(
            workers=2, placement="cost_balanced"
        )
        assert pooled == in_process and pooled
        assert pooled_lookups == lookups
        assert not calls  # the coordinator ran no BFS: the workers did
