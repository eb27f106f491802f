"""Command-line interface for the library.

``python -m repro <command>`` exposes the main workflows without writing
Python:

* ``generate``  — generate a transportation or general random graph and write
  it to a JSON file,
* ``fragment``  — fragment a graph JSON file with one of the paper's
  algorithms (or the advisor's recommendation) and print the Table 1-3
  characteristics,
* ``query``     — answer a reachability or shortest-path query on a graph
  with the disconnection set approach,
* ``experiment``— regenerate one of the paper's tables (delegates to
  :mod:`repro.experiments`),
* ``snapshot``  — prepare a graph (fragment + complementary information) and
  persist the catalog so later commands skip the preparation,
* ``batch-query``— answer many queries in one shared-work batch, from a
  snapshot directory or a graph JSON file,
* ``serve``     — run a long-lived query service reading a line protocol
  (``query A B`` / ``update A B W`` / ``stats`` / ``trace on|off`` /
  ``slowlog N`` / ...) from stdin,
* ``net-serve`` — run the network serving tier: an asyncio TCP server
  speaking newline-delimited JSON over the same grammar, with preemptable
  closure streaming, continuation tokens, and admission control,
* ``stats``     — run a query workload and render the telemetry it produced
  (text with latency percentiles, JSON, or Prometheus text exposition;
  ``--health`` renders the pool-liveness/SLO health document instead),
* ``profile``   — run a query workload under the continuous sampling
  profiler and print the hot frames, span breakdown, and kernel-backend
  shares.

Both serving front-ends parse commands through the one shared grammar in
:mod:`repro.serving.protocol`, so the surfaces cannot drift apart.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .disconnection import DisconnectionSetEngine, RouteReconstructingEngine
from .exceptions import ReproError
from .experiments import render_result, run_experiment
from .experiments.reporting import format_table
from .fragmentation import AdvisorConstraints, Fragmenter, characterize, recommend
from .generators import (
    RandomGraphConfig,
    TransportationGraphConfig,
    generate_random_graph,
    generate_transportation_graph,
)
from .graph import DiGraph, load_json, save_json
from .observability import SamplingProfiler, SLOMonitor, default_slos
from .refragmentation import (
    REFRAGMENT_ALGORITHMS,
    RefragmentationAdvisor,
    fragmenter_for,
)
from .service import (
    QueryService,
    WorkerPoolError,
    is_snapshot_directory,
    save_snapshot,
    semiring_from_name,
)
from .serving import (
    AdmissionConfig,
    ClosureServer,
    Request,
    ServingConfig,
    commands_for,
    decode_node,
    parse_line,
)

# The one name -> algorithm set, shared with the serving layer's refragment
# strings so the two surfaces can never drift apart.
ALGORITHMS = REFRAGMENT_ALGORITHMS
SEMIRINGS = ("shortest-path", "reachability")


def _make_fragmenter(name: str, fragment_count: int, graph: DiGraph, seed: int) -> Fragmenter:
    """Map a CLI algorithm name to a configured fragmenter.

    Delegates to the shared :func:`repro.refragmentation.fragmenter_for`
    mapping; only the ``auto`` path differs (the CLI prints the advisor's
    rationale).
    """
    if name == "auto":
        recommendation = recommend(graph, AdvisorConstraints(processor_count=fragment_count))
        for line in recommendation.rationale:
            print(f"# advisor: {line}")
        return recommendation.fragmenter
    return fragmenter_for(name, fragment_count, graph=graph, seed=seed)


def _decode_node(value: str):
    """Interpret a CLI node argument: integers stay integers, the rest are strings."""
    return decode_node(value)


# ----------------------------------------------------------------- commands


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "transportation":
        config = TransportationGraphConfig(
            cluster_count=args.clusters,
            nodes_per_cluster=args.nodes,
            inter_cluster_edges=args.inter_cluster_edges,
        )
        network = generate_transportation_graph(config, seed=args.seed)
        graph = network.graph
    else:
        config = RandomGraphConfig(node_count=args.nodes, c1=args.c1, c2=args.c2)
        graph = generate_random_graph(config, seed=args.seed)
    save_json(graph, args.output)
    print(
        f"wrote {args.output}: {graph.node_count()} nodes, "
        f"{graph.undirected_edge_count()} undirected edges"
    )
    return 0


def _cmd_fragment(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    fragmenter = _make_fragmenter(args.algorithm, args.fragments, graph, args.seed)
    fragmentation = fragmenter.fragment(graph)
    fragmentation.validate()
    characteristics = characterize(fragmentation)
    rows = [characteristics.as_dict()]
    print(format_table(rows, ["algorithm", "fragment_count", "F", "DS", "AF", "ADS", "loosely_connected"]))
    if args.output:
        document = {
            "algorithm": fragmentation.algorithm,
            "fragments": [
                sorted([list(edge) for edge in fragment.edges], key=repr)
                for fragment in fragmentation.fragments
            ],
        }
        Path(args.output).write_text(json.dumps(document, indent=2, default=str))
        print(f"wrote fragmentation to {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    fragmenter = _make_fragmenter(args.algorithm, args.fragments, graph, args.seed)
    fragmentation = fragmenter.fragment(graph)
    source = _decode_node(args.source)
    target = _decode_node(args.target)
    if args.route:
        engine = RouteReconstructingEngine(fragmentation)
        answer = engine.shortest_path(source, target)
        print(f"cost: {answer.cost}")
        print(f"route: {' -> '.join(str(node) for node in answer.route)}")
        print(f"fragment chain: {list(answer.chain)}")
        return 0
    engine = DisconnectionSetEngine(fragmentation)
    result = engine.query(source, target)
    if not result.exists():
        print("no path")
        return 1
    print(f"cost: {result.value}")
    print(f"fragment chain: {list(result.chain or ())}")
    print(f"sites involved: {sorted(result.report.site_work)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.table, trials=args.trials, seed=args.seed)
    print(render_result(result, as_csv=args.csv))
    return 0


# -------------------------------------------------------- service commands


def _build_service(args: argparse.Namespace) -> QueryService:
    """Build a :class:`QueryService` from a snapshot directory or a graph JSON file."""
    source = Path(args.source)
    options = {"cache_size": args.cache_size, "workers": args.workers}
    if getattr(args, "auto_refragment", False):
        options["auto_refragment"] = True
    if getattr(args, "refragment_cadence", None):
        options["refragment_cadence"] = args.refragment_cadence
    placement = getattr(args, "placement", None)
    if placement is not None:
        # An explicit "none" ignores the snapshot's persisted plan; leaving
        # the flag off keeps whatever the snapshot (or the service default)
        # says.
        options["placement"] = (
            None if placement == "none" else placement.replace("-", "_")
        )
    if is_snapshot_directory(source):
        service = QueryService.from_snapshot(source, **options)
        print(f"# loaded snapshot {source} (version {service.catalog_version})")
        return service
    if source.is_dir():
        raise ReproError(
            f"{source} is a directory but not a snapshot (missing manifest.json/payload.pkl)"
        )
    if not source.is_file():
        raise ReproError(f"{source} does not exist")
    graph = load_json(source)
    fragmenter = _make_fragmenter(args.algorithm, args.fragments, graph, args.seed)
    fragmentation = fragmenter.fragment(graph)
    semiring = semiring_from_name(args.semiring.replace("-", "_"))
    print(f"# prepared {fragmentation.fragment_count()} fragments from {source}")
    return QueryService(fragmentation, semiring=semiring, **options)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    fragmenter = _make_fragmenter(args.algorithm, args.fragments, graph, args.seed)
    fragmentation = fragmenter.fragment(graph)
    fragmentation.validate()
    semiring = semiring_from_name(args.semiring.replace("-", "_"))
    engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
    manifest = save_snapshot(args.output, engine)
    for key, value in manifest.as_dict().items():
        print(f"{key}: {value}")
    print(f"wrote snapshot to {args.output}")
    return 0


def _parse_pairs(pairs: List[str]) -> List[tuple]:
    queries = []
    for pair in pairs:
        if ":" not in pair:
            raise ReproError(f"batch query {pair!r} is not of the form SOURCE:TARGET")
        source, _, target = pair.partition(":")
        queries.append((_decode_node(source), _decode_node(target)))
    return queries


def _print_answer(answer) -> None:
    if answer.error is not None:
        print(f"{answer.source} -> {answer.target}: error: {answer.error}")
    elif not answer.exists():
        print(f"{answer.source} -> {answer.target}: no path")
    else:
        cached = " (cached)" if answer.cached else ""
        chain = list(answer.chain) if answer.chain else []
        print(f"{answer.source} -> {answer.target}: value {answer.value}, chain {chain}{cached}")


def _print_stats(service: QueryService) -> None:
    for key, value in service.stats.as_dict().items():
        if isinstance(value, float) and "latency" in key:
            print(f"{key}: {value:.6f}s")
        else:
            print(f"{key}: {value}")
    for outcome in ("evaluated", "cached"):
        quantiles = service.stats.latency_quantiles(outcome=outcome)
        for name, value in quantiles.items():
            print(f"{outcome}_latency_{name}: {value:.6f}s")


def _print_slowlog(service: QueryService, count: int) -> None:
    entries = service.query_log.slowest(count)
    if not entries:
        print("slow log empty")
        return
    for entry in entries:
        suffix = " (cached)" if entry.cached else ""
        if entry.trace_id is not None:
            # The link into the tracing layer: feed this id to the tracer's
            # retained traces to see the query's full span tree.
            suffix += f" trace {entry.trace_id}"
        if entry.error is not None:
            suffix += f" error: {entry.error}"
        print(
            f"{entry.latency:.6f}s {entry.source} -> {entry.target} "
            f"fragments {list(entry.fragments)}{suffix}"
        )


def _render_metrics(service: QueryService, fmt: str) -> None:
    if fmt == "prometheus":
        sys.stdout.write(service.metrics("prometheus"))
    elif fmt == "json":
        print(json.dumps(service.metrics("json"), indent=2, default=str, sort_keys=True))
    else:
        _print_stats(service)


def _cmd_batch_query(args: argparse.Namespace) -> int:
    if args.queries:
        queries = [
            (_decode_node(str(pair[0])), _decode_node(str(pair[1])))
            for pair in json.loads(Path(args.queries).read_text())
        ]
    else:
        queries = _parse_pairs(args.pairs)
    if not queries:
        raise ReproError("no queries given: pass SOURCE:TARGET pairs or --queries FILE")
    with _build_service(args) as service:
        for answer in service.query_batch(queries):
            _print_answer(answer)
        if args.stats:
            _print_stats(service)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    queries = []
    if args.queries:
        queries = [
            (_decode_node(str(pair[0])), _decode_node(str(pair[1])))
            for pair in json.loads(Path(args.queries).read_text())
        ]
    elif args.pairs:
        queries = _parse_pairs(args.pairs)
    # The build chatter ("# prepared ...") goes to stderr so the rendered
    # metrics stay machine-parseable (JSON output especially).
    with contextlib.redirect_stdout(sys.stderr):
        service = _build_service(args)
    with service:
        # The monitor baselines *before* the workload so the health view
        # reflects what the workload did, not a zero-delta snapshot.
        monitor = SLOMonitor(service.registry, default_slos()) if args.health else None
        if queries:
            service.query_batch(queries)
        if monitor is not None:
            _print_health(service, monitor, ready=False)
        else:
            _render_metrics(service, args.format)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.queries:
        queries = [
            (_decode_node(str(pair[0])), _decode_node(str(pair[1])))
            for pair in json.loads(Path(args.queries).read_text())
        ]
    else:
        queries = _parse_pairs(args.pairs)
    if not queries:
        raise ReproError("no queries given: pass SOURCE:TARGET pairs or --queries FILE")
    with contextlib.redirect_stdout(sys.stderr):
        service = _build_service(args)
    with service:
        profiler = SamplingProfiler(args.interval, tracer=service.tracer)
        profiler.start()
        try:
            for _ in range(max(1, args.repeat)):
                # Re-evaluate every round: a cached repeat loop would give
                # the sampler nothing but cache hits to look at.
                service.cache.clear()
                service.query_batch(queries)
        finally:
            profiler.stop()
        if args.json:
            print(json.dumps(profiler.report(top=args.top), indent=2, sort_keys=True))
        else:
            _print_profile(profiler, args.top)
    return 0


def _print_placement(service: QueryService) -> None:
    plan = service.placement_plan
    mode = service.pool_health()["mode"]
    if plan is None:
        print(f"placement: {mode} (no worker pool)")
        return
    print(f"placement: {mode}, policy {plan.policy}, {plan.worker_count} workers")
    for worker in range(plan.worker_count):
        owned = plan.owned_by(worker)
        replicated = sorted(set(plan.fragments_on(worker)) - set(owned))
        suffix = f" (+replicas {replicated})" if replicated else ""
        print(f"worker {worker}: owns {owned}{suffix}")


def _print_health(
    service: QueryService, monitor: SLOMonitor, *, ready: bool
) -> None:
    """Console rendering of the ``healthz`` / ``readyz`` documents.

    Mirrors the network server's checks minus the admission queue (stdin
    serves one command at a time, so there is no queue to saturate).
    """
    pool = service.pool_health()
    statuses = monitor.evaluate()
    severity = monitor.worst_severity(statuses)
    healthy = bool(pool.get("healthy", True))
    if ready:
        is_ready = healthy and severity != "page"
        print("ready" if is_ready else "not_ready")
    else:
        print("ok" if healthy else "degraded")
    print(
        f"pool: {pool.get('mode')} ({pool.get('alive')}/{pool.get('workers')} "
        f"workers alive)"
    )
    print(f"catalog_version: {service.catalog_version}")
    print(f"slo_severity: {severity}")
    for status in statuses.values():
        print(
            f"slo {status.name}: error_rate {status.error_rate:.6f}, "
            f"budget_remaining {status.budget_remaining:.3f}, "
            f"severity {status.severity}"
        )


def _print_profile(profiler: Optional[SamplingProfiler], top: int) -> None:
    if profiler is None:
        print("profiling disabled (start with --profile-interval)")
        return
    report = profiler.report(top=top)
    print(
        f"samples: {report['samples']} (interval {report['interval_seconds']}s)"
    )
    for row in report["top_offenders"]:
        print(f"{row['share']:.3f} [{row['backend']}] {row['frame']}")
    for row in report["span_breakdown"]:
        print(f"span {row['span']} [{row['backend']}]: {row['share']:.3f}")
    for backend, share in sorted(report["backend_shares"].items()):
        print(f"backend {backend}: {share:.3f}")


def _execute_console_command(
    service: QueryService,
    request: Request,
    *,
    slo_monitor: Optional[SLOMonitor] = None,
    profiler: Optional[SamplingProfiler] = None,
) -> bool:
    """Execute one validated console command; returns ``False`` on quit/exit.

    Arity and choices were already checked by the shared grammar
    (:func:`repro.serving.protocol.parse_line`), so the dispatch below only
    interprets arguments — exactly what the network server does with the
    same :class:`~repro.serving.protocol.Request` objects.
    """
    op = request.op
    if op in ("quit", "exit"):
        return False
    if op == "query":
        _print_answer(service.query(request.node(0), request.node(1)))
    elif op == "batch":
        for answer in service.query_batch(request.pairs()):
            _print_answer(answer)
    elif op == "update":
        owner = service.update_edge(
            request.node(0), request.node(1), request.number(2, 1.0)
        )
        print(f"updated; fragment {owner}, catalog version {service.catalog_version}")
    elif op == "delete":
        owner = service.update_edge(request.node(0), request.node(1), delete=True)
        print(f"deleted; fragment {owner}, catalog version {service.catalog_version}")
    elif op == "stats":
        _render_metrics(service, (request.text(0, "text") or "text").lower())
    elif op == "trace":
        toggle = (request.text(0) or "").lower()
        if toggle == "on":
            service.tracer.enable()
        else:
            service.tracer.disable()
        print(f"tracing {toggle}")
    elif op == "slowlog":
        _print_slowlog(service, request.integer(0, 10) or 10)
    elif op in ("healthz", "readyz"):
        # A per-command throwaway monitor would baseline at the current
        # counters and report zero burn forever; the serve loop passes one
        # monitor that lives as long as the session.
        monitor = slo_monitor or SLOMonitor(service.registry, default_slos())
        _print_health(service, monitor, ready=op == "readyz")
    elif op == "profile":
        _print_profile(profiler, request.integer(0, 10) or 10)
    elif op == "placement":
        _print_placement(service)
    elif op == "migrate":
        fragment, worker = request.integer(0), request.integer(1)
        moved = service.migrate(fragment, worker)
        print(
            f"migrated fragment {fragment} to worker {worker}"
            if moved
            else f"fragment {fragment} already lives on worker {worker}"
        )
    elif op == "rebalance":
        migrations = service.rebalance()
        if not migrations:
            print("balanced; no migrations recommended")
        for migration in migrations:
            print(
                f"migrated fragment {migration.fragment_id}: worker "
                f"{migration.from_worker} -> {migration.to_worker} "
                f"({migration.reason})"
            )
    elif op == "refragment":
        redraws_before = service.stats.refragments
        result = service.refragment(request.text(0))
        if result is not None:
            print(
                f"refragmented live: rebuilt {len(result.changed)} "
                f"fragment(s), kept {len(result.unchanged)}, "
                f"recovered {result.border_nodes_recovered()} border "
                f"node(s); catalog version {service.catalog_version}"
            )
        elif service.stats.refragments > redraws_before:
            print(
                "refragmented (full rebuild); catalog version "
                f"{service.catalog_version}"
            )
        else:
            print("advisor found no worthwhile redraw; layout unchanged")
    elif op == "advise":
        advisor = service.refragment_advisor or RefragmentationAdvisor()
        fragmentation = service.database.fragmentation()
        assessment = advisor.assess(
            fragmentation,
            version_vector=service.version_vector,
            delta_log=service.database.delta_log,
            query_log=service.query_log,
        )
        for key, value in assessment.signals.as_dict().items():
            print(f"{key}: {value}")
        print(f"update_skew: {assessment.update_skew:.2f}")
        for line in advisor.recommend(fragmentation).rationale:
            print(f"# {line}")
    elif op == "snapshot":
        directory = request.text(0)
        manifest = service.snapshot(directory)
        print(f"wrote snapshot to {directory} (version {manifest.version})")
    return True


def _cmd_serve(args: argparse.Namespace) -> int:
    with _build_service(args) as service:
        slo_monitor = SLOMonitor(service.registry, default_slos())
        profiler: Optional[SamplingProfiler] = None
        if getattr(args, "profile_interval", None) is not None:
            # Sample the serve loop's own thread: stdin commands evaluate
            # synchronously right here.
            profiler = SamplingProfiler(args.profile_interval, tracer=service.tracer)
            profiler.start()
        print("# ready; commands: " + " | ".join(commands_for("console")))
        try:
            for line in sys.stdin:
                try:
                    # One grammar, one error path: parse_line validates against
                    # the same specs the network server enforces, and every
                    # grammar/service failure renders as the same "error: ...".
                    request = parse_line(line, surface="console")
                    if request is None:
                        continue
                    if not _execute_console_command(
                        service, request, slo_monitor=slo_monitor, profiler=profiler
                    ):
                        break
                except (ReproError, ValueError, OSError, WorkerPoolError) as error:
                    # A bad line must not take the server down — nor must a
                    # routed-pool failure (worker error reply, reply timeout).
                    print(f"error: {error}")
        finally:
            if profiler is not None:
                profiler.stop()
        print("# bye")
    return 0


def _cmd_net_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.idle_assess is not None and getattr(args, "auto_refragment", False):
        # The whole point of the idle task: assessment leaves the update
        # hot path and runs between requests instead.
        args.refragment_cadence = "background"
    with _build_service(args) as service:
        config = ServingConfig(
            host=args.host,
            port=args.port,
            quantum_seconds=args.quantum,
            page_size=args.page_size,
            quanta_per_call=args.quanta_per_call,
            preemption=not args.no_preemption,
            idle_assess_seconds=args.idle_assess,
            profile_interval=args.profile_interval,
            admission=AdmissionConfig(
                max_concurrent=args.max_concurrent,
                max_queue=args.max_queue,
            ),
        )

        async def _run() -> None:
            server = ClosureServer(service, config)
            host, port = await server.start()
            print(
                f"# serving on {host}:{port}; newline-delimited JSON "
                '({"op": "query", "args": [...]}); commands: '
                + " | ".join(commands_for("network"))
            )
            sys.stdout.flush()
            try:
                await server.serve_forever()
            finally:
                await server.aclose()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        print("# bye")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data fragmentation for parallel transitive closure strategies (ICDE 1993).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a graph and write it to JSON")
    generate.add_argument("output", help="output JSON path")
    generate.add_argument("--kind", choices=("transportation", "random"), default="transportation")
    generate.add_argument("--clusters", type=int, default=4)
    generate.add_argument("--nodes", type=int, default=25, help="nodes per cluster (or total for random)")
    generate.add_argument("--inter-cluster-edges", type=int, default=2)
    generate.add_argument("--c1", type=float, default=7800.0)
    generate.add_argument("--c2", type=float, default=0.08)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    fragment = subparsers.add_parser("fragment", help="fragment a graph JSON file")
    fragment.add_argument("graph", help="input graph JSON path")
    fragment.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    fragment.add_argument("--fragments", type=int, default=4)
    fragment.add_argument("--seed", type=int, default=0)
    fragment.add_argument("--output", help="optional output JSON path for the fragment edge lists")
    fragment.set_defaults(handler=_cmd_fragment)

    query = subparsers.add_parser("query", help="answer a path query with the disconnection set approach")
    query.add_argument("graph", help="input graph JSON path")
    query.add_argument("source")
    query.add_argument("target")
    query.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    query.add_argument("--fragments", type=int, default=4)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--route", action="store_true", help="also reconstruct the node sequence")
    query.set_defaults(handler=_cmd_query)

    experiment = subparsers.add_parser("experiment", help="regenerate a table of the paper")
    experiment.add_argument("table", choices=("table1", "table2", "table3"))
    experiment.add_argument("--trials", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--csv", action="store_true")
    experiment.set_defaults(handler=_cmd_experiment)

    def add_service_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "source", help="snapshot directory or graph JSON path"
        )
        subparser.add_argument("--algorithm", choices=ALGORITHMS, default="auto",
                               help="fragmenter when preparing from a graph JSON")
        subparser.add_argument("--fragments", type=int, default=4)
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument("--semiring", choices=SEMIRINGS, default="shortest-path")
        subparser.add_argument("--cache-size", type=int, default=1024)
        subparser.add_argument("--workers", type=int, default=None,
                               help="worker processes, cost-balanced placement unless "
                                    "--placement says otherwise (default: in-process "
                                    "evaluation)")
        subparser.add_argument(
            "--placement",
            choices=("none", "round-robin", "cost-balanced", "workload-aware"),
            default=None,
            help="shared-nothing placement policy: which owner worker each "
                 "fragment is routed to; 'none' ignores the snapshot's "
                 "persisted plan (default: the snapshot's plan, if any)",
        )
        subparser.add_argument(
            "--auto-refragment",
            action="store_true",
            help="watch the layout's locality (border growth, cross-fragment "
                 "edge ratio, update skew) and redraw fragment boundaries "
                 "live when it erodes",
        )

    snapshot = subparsers.add_parser(
        "snapshot", help="prepare a graph and persist the catalog for serving"
    )
    snapshot.add_argument("graph", help="input graph JSON path")
    snapshot.add_argument("output", help="output snapshot directory")
    snapshot.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    snapshot.add_argument("--fragments", type=int, default=4)
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--semiring", choices=SEMIRINGS, default="shortest-path")
    snapshot.set_defaults(handler=_cmd_snapshot)

    batch_query = subparsers.add_parser(
        "batch-query", help="answer a batch of queries with shared local work"
    )
    add_service_options(batch_query)
    batch_query.add_argument("pairs", nargs="*", help="queries as SOURCE:TARGET pairs")
    batch_query.add_argument("--queries", help="JSON file with a list of [source, target] pairs")
    batch_query.add_argument("--stats", action="store_true", help="also print service statistics")
    batch_query.set_defaults(handler=_cmd_batch_query)

    net_serve = subparsers.add_parser(
        "net-serve",
        help="run the network serving tier: asyncio TCP, newline-delimited "
             "JSON, preemptable closure streaming with continuation tokens, "
             "admission control",
    )
    add_service_options(net_serve)
    net_serve.add_argument("--host", default="127.0.0.1")
    net_serve.add_argument("--port", type=int, default=7432,
                           help="TCP port (0 picks an ephemeral port)")
    net_serve.add_argument("--quantum", type=float, default=0.02,
                           help="seconds one evaluation quantum may run before "
                                "yielding the event loop")
    net_serve.add_argument("--page-size", type=int, default=256,
                           help="maximum closure result rows per streamed page")
    net_serve.add_argument("--quanta-per-call", type=int, default=2,
                           help="quanta one closure/resume call runs before "
                                "suspending into a continuation token")
    net_serve.add_argument("--no-preemption", action="store_true",
                           help="disable quanta: closures run to completion in "
                                "one event-loop turn (benchmark baseline only)")
    net_serve.add_argument("--max-concurrent", type=int, default=8,
                           help="requests evaluating at once (admission slots)")
    net_serve.add_argument("--max-queue", type=int, default=64,
                           help="requests allowed to wait for a slot before "
                                "reject-with-retry-after")
    net_serve.add_argument("--idle-assess", type=float, default=None,
                           help="with --auto-refragment: assess the layout on "
                                "this idle cadence (seconds) instead of on the "
                                "update hot path")
    net_serve.add_argument("--profile-interval", type=float, default=None,
                           help="enable the continuous sampling profiler at "
                                "this interval (seconds); read it back with "
                                "the 'profile' command")
    net_serve.set_defaults(handler=_cmd_net_serve)

    serve = subparsers.add_parser(
        "serve", help="serve queries from stdin against a prepared catalog"
    )
    add_service_options(serve)
    serve.add_argument("--profile-interval", type=float, default=None,
                       help="enable the continuous sampling profiler at this "
                            "interval (seconds); read it back with the "
                            "'profile' command")
    serve.set_defaults(handler=_cmd_serve)

    stats = subparsers.add_parser(
        "stats", help="run a workload and render the telemetry it produced"
    )
    add_service_options(stats)
    stats.add_argument("pairs", nargs="*", help="queries as SOURCE:TARGET pairs")
    stats.add_argument("--queries", help="JSON file with a list of [source, target] pairs")
    stats.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="text prints counters plus latency percentiles; json dumps "
             "QueryService.metrics(); prometheus emits text exposition format",
    )
    stats.add_argument(
        "--health",
        action="store_true",
        help="render the health document (pool liveness, SLO burn) instead "
             "of the metrics",
    )
    stats.set_defaults(handler=_cmd_stats)

    profile = subparsers.add_parser(
        "profile",
        help="run a query workload under the sampling profiler and print the "
             "hot frames, span breakdown, and kernel-backend shares",
    )
    add_service_options(profile)
    profile.add_argument("pairs", nargs="*", help="queries as SOURCE:TARGET pairs")
    profile.add_argument("--queries", help="JSON file with a list of [source, target] pairs")
    profile.add_argument("--interval", type=float, default=0.002,
                         help="profiler sampling interval in seconds")
    profile.add_argument("--repeat", type=int, default=1,
                         help="run the workload this many times (later runs "
                              "profile the cache path)")
    profile.add_argument("--top", type=int, default=10, help="hot frames to print")
    profile.add_argument("--json", action="store_true",
                         help="dump the full profile report as JSON")
    profile.set_defaults(handler=_cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
