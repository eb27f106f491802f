"""``healthz``/``readyz`` over the network: pool death, saturation, SLO burn.

Liveness (``healthz``) fails only when the worker pool lost processes;
readiness (``readyz``) additionally drains on a saturated admission queue
or a page-severity SLO burn.  The probes are pure reads: observing a dead
worker must not respawn it (the routed pool heals lazily on the next
evaluate), and probing must not consume admission tokens.
"""

import asyncio

from repro.observability import BurnWindow, SLODefinition, SLOMonitor
from repro.serving import ClosureServer
from repro.service import QueryService

from tests.observability.test_service_telemetry import (
    clique_line_fragmentation,
    cross_fragment_queries,
)
from tests.serving.test_server import (
    Client,
    make_service,
    open_admission,
    tiny_config,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestHealthyBaseline:
    def test_healthz_and_readyz_report_ok(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    health = await client.rpc(op="healthz")
                    ready = await client.rpc(op="readyz")
            assert health["ok"] and health["status"] == "ok"
            assert ready["ok"] and ready["status"] == "ready"
            assert ready["reasons"] == []
            checks = ready["checks"]
            assert checks["catalog_version"] == service.catalog_version
            assert checks["pool"]["healthy"] is True
            assert checks["queue_depth"] == 0
            assert checks["slo"]["severity"] == "ok"

        asyncio.run(scenario())

    def test_placement_reports_the_mode_the_health_probe_reports(self):
        async def scenario(service):
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    return await client.rpc(op="placement")

        in_process = asyncio.run(scenario(make_service()))
        assert in_process["mode"] == "in-process" and in_process["placement"] is None
        with QueryService(clique_line_fragmentation(), workers=2) as service:
            unstarted = asyncio.run(scenario(service))
            service.query_batch(cross_fragment_queries())
            placed = asyncio.run(scenario(service))
        assert unstarted["mode"] == "unstarted" and placed["mode"] == "placed"
        assert placed["placement"] == unstarted["placement"]
        assert placed["placement"]["policy"] == "cost_balanced"

    def test_stats_response_carries_the_slo_section(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    await client.rpc(op="query", args=["0", "9"])
                    stats = await client.rpc(op="stats")
            assert stats["ok"]
            slo = stats["slo"]
            assert slo["severity"] in ("ok", "ticket", "page")
            names = {objective["name"] for objective in slo["objectives"]}
            assert {"query_latency", "serving_availability"} <= names

        asyncio.run(scenario())


class TestPoolDegradation:
    def test_killed_worker_flips_healthz_without_respawning(self):
        async def scenario():
            fragmentation = clique_line_fragmentation()
            with QueryService(
                fragmentation, placement="round_robin", workers=3
            ) as service:
                # Start the lazy pool, then kill one worker while it idles.
                service.query_batch(cross_fragment_queries())
                handle = service._pool._workers[0]
                handle.process.terminate()
                handle.process.join()
                async with ClosureServer(service, tiny_config()) as server:
                    async with Client(*server.address) as client:
                        health = await client.rpc(op="healthz")
                        ready = await client.rpc(op="readyz")
                        again = await client.rpc(op="healthz")
                assert not health["ok"] and health["status"] == "degraded"
                pool = health["checks"]["pool"]
                assert pool["mode"] == "placed"
                assert pool["alive"] == pool["workers"] - 1
                assert pool["per_worker"]["0"] is False
                assert not ready["ok"] and ready["status"] == "not_ready"
                assert "pool_degraded" in ready["reasons"]
                # The probe is a pure read: looking did not respawn the
                # worker, so a second probe still sees the degradation.
                assert not again["ok"]
                assert service._pool.liveness()[0] is False
                # The pool heals lazily on the next evaluate; health clears.
                service.cache.clear()
                service.query_batch(cross_fragment_queries())
                assert service.pool_health()["healthy"] is True

        asyncio.run(scenario())


class TestQueueSaturation:
    def test_full_admission_queue_drains_readyz(self):
        async def scenario():
            service = make_service()
            config = tiny_config(
                admission=open_admission(max_concurrent=1, max_queue=2)
            )
            async with ClosureServer(service, config) as server:
                admission = server.admission
                assert admission.admit("hog").status == "run"
                assert admission.admit("waiter_a").status == "queue"
                assert admission.admit("waiter_b").status == "queue"
                async with Client(*server.address) as client:
                    # The probes skip admission: they answer even though the
                    # queue is full, and answering consumes nothing.
                    health = await client.rpc(op="healthz")
                    ready = await client.rpc(op="readyz")
                    assert health["ok"], "liveness is about the pool, not load"
                    assert not ready["ok"] and ready["status"] == "not_ready"
                    assert ready["reasons"] == ["queue_saturated"]
                    assert ready["checks"]["queue_depth"] == 2

                    # Load drains; readiness recovers without a restart.
                    admission.abandon_queued("waiter_a")
                    admission.abandon_queued("waiter_b")
                    admission.finish("hog")
                    recovered = await client.rpc(op="readyz")
                    assert recovered["ok"] and recovered["status"] == "ready"

        asyncio.run(scenario())


class TestSLOBurn:
    def test_page_severity_burn_drains_readyz(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                # Swap in a monitor with tight windows and a fake clock so a
                # few samples replay a realistic page-severity episode.
                clock = FakeClock()
                slo = SLODefinition(
                    name="availability",
                    objective=0.999,
                    counter="probe_requests_total",
                    bad_label="outcome",
                    bad_values=("error",),
                )
                windows = (
                    BurnWindow(
                        long_seconds=600.0,
                        short_seconds=60.0,
                        factor=10.0,
                        severity="page",
                    ),
                )
                server.slo_monitor = SLOMonitor(
                    service.registry, (slo,), windows=windows, clock=clock
                )
                requests = service.registry.counter(
                    "probe_requests_total", "probe", labelnames=("outcome",)
                )
                async with Client(*server.address) as client:
                    ready = await client.rpc(op="readyz")
                    assert ready["ok"], "no burn yet: the server is ready"
                    # 5% errors against a 0.1% budget = 50x burn.
                    for _ in range(10):
                        requests.inc(95, outcome="ok")
                        requests.inc(5, outcome="error")
                        clock.advance(30.0)
                        server.slo_monitor.sample()
                    burning = await client.rpc(op="readyz")
                    assert not burning["ok"]
                    assert "slo_burn" in burning["reasons"]
                    assert burning["checks"]["slo"]["severity"] == "page"
                    # Liveness is unaffected: the pool never went away.
                    health = await client.rpc(op="healthz")
                    assert health["ok"]
                    # The bleeding stops; the short window clears the page.
                    for _ in range(4):
                        requests.inc(100, outcome="ok")
                        clock.advance(30.0)
                        server.slo_monitor.sample()
                    recovered = await client.rpc(op="readyz")
                    assert recovered["ok"]

        asyncio.run(scenario())


class TestPrometheusExposition:
    def test_serving_families_emit_exactly_one_help_and_type(self):
        async def scenario():
            service = make_service()
            async with ClosureServer(service, tiny_config()) as server:
                async with Client(*server.address) as client:
                    # Exercise enough of the surface that every serving
                    # family exists before the exposition is rendered.
                    await client.rpc(op="query", args=["0", "9"])
                    await client.rpc(op="healthz")
                    response = await client.rpc(op="stats", args=["prometheus"])
            return response["prometheus"]

        text = asyncio.run(scenario())
        help_lines, type_lines, samples = {}, {}, set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                name, _, help_text = line[len("# HELP ") :].partition(" ")
                help_lines.setdefault(name, []).append(help_text)
            elif line.startswith("# TYPE "):
                name, _, kind = line[len("# TYPE ") :].partition(" ")
                type_lines.setdefault(name, []).append(kind)
            elif line and not line.startswith("#"):
                samples.add(line.split("{")[0].split(" ")[0])
        serving_families = {
            name for name in type_lines if name.startswith("repro_serving_")
        }
        assert serving_families, "the serving tier must export metrics"
        for name in serving_families:
            # Exactly one TYPE and exactly one non-empty HELP per family:
            # a gauge re-registered by a second subsystem must not re-emit
            # headers or drop its description.
            assert len(type_lines[name]) == 1, name
            assert len(help_lines.get(name, [])) == 1, name
            assert help_lines[name][0].strip(), name
        # Histogram families surface as _bucket/_sum/_count samples; map
        # each sample back to a declared family and require headers for all.
        for sample in samples:
            family = sample
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix) and family[: -len(suffix)] in type_lines:
                    family = family[: -len(suffix)]
                    break
            assert family in type_lines, f"sample {sample} missing # TYPE"
