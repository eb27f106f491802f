"""Transit tables through the serving stack.

Work-count guards (so the table cannot silently stop working), what a write,
a shortcut repair and a refragmentation drop, what a snapshot contains, and
the records the decision leaves: the ``memoized`` span attribute, the
``repro_transit_lookups_total`` counter, and dispatch counts that describe
only what was actually routed.
"""

import repro.disconnection.local_query as local_query_module
from repro.closure import shortest_path_cost
from repro.disconnection.local_query import TRANSIT_KEY
from repro.fragmentation import GroundTruthFragmenter
from repro.service import QueryService, ServiceStatistics

from tests.transit_layouts import interior, is_transit, ring_layout

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


def cold_pairs(layout):
    """Interior pairs the warm-up did not ask (so no answer is a result-cache hit)."""
    return [
        (interior(layout, a)[1], interior(layout, b)[1])
        for a, b in [(0, 2), (5, 2), (3, 1), (4, 0), (2, 5), (1, 4)]
    ]


class TestWorkCountGuards:
    def test_a_cold_query_searches_only_its_endpoint_fragments(self, monkeypatch):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        calls = []
        real = local_query_module.array_dijkstra

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(local_query_module, "array_dijkstra", counting)
        for source, target in cold_pairs(layout):
            calls.clear()
            answer = service.query(source, target)
            assert not answer.cached
            assert answer.value == shortest_path_cost(service.database.graph, source, target)
            # Two chains round the ring: both leave the source through one
            # forward search and reach the target through one backward
            # search, whatever the width of the sets.  Nothing in between.
            assert len(calls) == 2

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
            routed_before = sum(service.stats.per_owner_dispatch.values())
            evaluations_before = service.stats.local_evaluations
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
            assert sum(service.stats.per_owner_dispatch.values()) - routed_before == routed
            assert service.stats.local_evaluations - evaluations_before == routed
            assert service.stats.transit_lookups()["hit"] > 0

    def test_worker_replies_fill_the_coordinators_tables(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2) as service:  # default cost_balanced plan
            assert not any(tables(service).values())
            warm_ring(service, layout)
            assert all(tables(service).values())
            lookups = service.stats.transit_lookups()
            assert lookups["miss"] == sum(len(table) for table in tables(service).values())


class TestWhatAWriteDrops:
    def test_only_the_dirty_fragments_tables_are_dropped(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        before = tables(service)
        assert all(before.values())
        a, b = interior(layout, 3)[:2]
        service.update_edge(a, b, 50.0)
        dirty = set(service.database.delta_log.last().dirty_fragments)
        assert 3 in dirty and dirty != set(before)
        after = tables(service)
        for fragment_id, table in before.items():
            if fragment_id in dirty:
                assert after[fragment_id] is None
            else:
                assert after[fragment_id] is table
        for source, target in cold_pairs(layout):
            assert service.query(source, target).value == shortest_path_cost(
                service.database.graph, source, target
            )

    def test_a_shortcut_repair_alone_drops_the_neighbours_table(self):
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
        owner = service.update_edge(a, b, 0.5)
        assert owner == 2
        site = catalog.site(1)
        assert sorted(site.subgraph.weighted_edges()) == edges_before
        assert sorted(site.shortcuts) != shortcuts_before
        assert table_before and tables(service)[1] is None
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
        assert (tmp_path / "warm" / "payload.pkl").read_bytes() == (
            tmp_path / "cold" / "payload.pkl"
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
        source, target = cold_pairs(layout)[0]
        service.query(source, target)
        kernels = [
            span for span in service.tracer.recent(1)[0].spans if span.name == "kernel"
        ]
        assert kernels
        endpoint_fragments = {0, 2}
        for span in kernels:
            attributes = span.attributes
            if attributes["fragment"] in endpoint_fragments:
                assert attributes["memoized"] < attributes["tasks"]
                # Both chains' subqueries at this end read one search.
                assert attributes["searches"] == 1
            else:
                assert attributes["memoized"] == attributes["tasks"] > 0
                assert attributes["searches"] == 0

    def test_pooled_spans_say_how_many_searches_the_workers_ran(self):
        fragmentation, layout = ring_layout(BLOCKS)
        with QueryService(fragmentation, workers=2, placement="cost_balanced") as service:
            warm_ring(service, layout)
            service.query(*cold_pairs(layout)[0])
            trace = service.tracer.recent(1)[0]
            (evaluate,) = trace.find("evaluate")
            kernels = trace.find("kernel")
            assert kernels and evaluate.attributes["memoized"] > 0
            # Each end's two subqueries reach their owner in one message.
            assert evaluate.attributes["searches"] == 2
            assert sum(span.attributes["searches"] for span in kernels) == 2

    def test_the_lookup_counter_is_exported_and_round_trips(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        service.query(*cold_pairs(layout)[0])
        lookups = service.stats.transit_lookups()
        assert lookups["hit"] > 0 and lookups["miss"] > 0
        assert service.stats.as_dict()["transit_lookups"] == lookups
        exposition = service.metrics("prometheus")
        assert f'repro_transit_lookups_total{{outcome="hit"}} {lookups["hit"]}' in exposition
        assert f'repro_transit_lookups_total{{outcome="miss"}} {lookups["miss"]}' in exposition
        restored = ServiceStatistics.from_dict(service.stats.as_dict())
        assert restored.transit_lookups() == lookups

    def test_a_rederivation_after_a_write_is_its_own_span(self):
        fragmentation, layout = ring_layout(BLOCKS)
        service = QueryService(fragmentation)
        warm_ring(service, layout)
        a, b = interior(layout, 3)[:2]
        assert service.database.graph.has_edge(a, b)
        service.update_edge(a, b, delete=True)
        dirty = set(service.database.delta_log.last().dirty_fragments)
        source, target = interior(layout, 0)[1], interior(layout, 3)[1]
        service.query(source, target)
        spans = service.tracer.recent(1)[0].spans
        rederived = {s.attributes["fragment"] for s in spans if s.name == "site_rederive"}
        assert rederived == dirty
        service.query(target, source)
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

