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
:mod:`repro.serving.protocol` and execute them through the one verb table in
:mod:`repro.serving.verbs`, so the surfaces cannot drift apart; ``serve``
only renders the documents ``net-serve`` sends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .disconnection import DisconnectionSetEngine
from .exceptions import DisconnectedError, ReproError
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
from .refragmentation import REFRAGMENT_ALGORITHMS, fragmenter_for
from .service import (
    QueryService,
    is_snapshot_directory,
    save_snapshot,
    semiring_from_name,
)
from .serving import (
    AdmissionConfig,
    ClosureServer,
    Request,
    SERVICE_ERRORS,
    ServingConfig,
    commands_for,
    decode_node,
    execute,
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
    engine = DisconnectionSetEngine(fragmentation)
    if args.route:
        try:
            routed = engine.route(source, target)
        except DisconnectedError:
            print("no path")
            return 1
        print(f"cost: {routed.cost}")
        print(f"route: {' -> '.join(str(node) for node in routed.route)}")
        print(f"fragment chain: {list(routed.chain or ())}")
        return 0
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
            f"{source} is a directory but not a snapshot (missing manifest.json)"
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


def _load_queries(args: argparse.Namespace, *, required: bool) -> List[tuple]:
    """The workload of ``batch-query`` / ``stats`` / ``profile``: the
    ``--queries FILE`` list of pairs, else the ``SOURCE:TARGET`` arguments."""
    queries = []
    if args.queries:
        for pair in json.loads(Path(args.queries).read_text()):
            queries.append((_decode_node(str(pair[0])), _decode_node(str(pair[1]))))
    else:
        for pair in args.pairs:
            if ":" not in pair:
                raise ReproError(f"batch query {pair!r} is not of the form SOURCE:TARGET")
            source, _, target = pair.partition(":")
            queries.append((_decode_node(source), _decode_node(target)))
    if required and not queries:
        raise ReproError("no queries given: pass SOURCE:TARGET pairs or --queries FILE")
    return queries


# ------------------------------------------------------ console rendering
#
# One function per verb turns the plain-data document of
# ``repro.serving.verbs`` into the console's text.  Nothing here sees the
# service: what the console prints is what the network sends.


def _render_answer(answer: dict) -> str:
    pair = f"{answer['source']} -> {answer['target']}"
    if answer["error"] is not None:
        return f"{pair}: error: {answer['error']}"
    if answer["value"] is None:
        return f"{pair}: no path"
    cached = " (cached)" if answer["cached"] else ""
    return f"{pair}: value {answer['value']}, chain {answer['chain'] or []}{cached}"


def _render_stats(document: dict) -> str:
    """The ``stats`` verb's three documents: exposition text verbatim, the
    full ``json`` export as JSON, the flat counters as ``key: value`` lines."""
    if "prometheus" in document:
        return document["prometheus"].rstrip("\n")
    if "metrics" in document:
        return json.dumps(document, indent=2, default=str, sort_keys=True)
    lines = []
    for key, value in document["stats"].items():
        if isinstance(value, float) and "latency" in key:
            lines.append(f"{key}: {value:.6f}s")
        else:
            lines.append(f"{key}: {value}")
    for outcome, quantiles in document["latency_quantiles"].items():
        for name, value in quantiles.items():
            lines.append(f"{outcome}_latency_{name}: {value:.6f}s")
    return "\n".join(lines)


def _render_slowlog(document: dict) -> str:
    lines = []
    for entry in document["slowlog"]:
        suffix = " (cached)" if entry["cached"] else ""
        if entry["trace"] is not None:
            suffix += f" trace {entry['trace']}"
        if entry["error"] is not None:
            suffix += f" error: {entry['error']}"
        lines.append(
            f"{entry['latency']:.6f}s {entry['source']} -> {entry['target']} "
            f"fragments {entry['fragments']}{suffix}"
        )
    return "\n".join(lines) or "slow log empty"


def _render_health(document: dict) -> str:
    checks = document["checks"]
    pool, slo = checks["pool"], checks["slo"]
    lines = [
        document["status"],
        f"pool: {pool.get('mode')} ({pool.get('alive')}/{pool.get('workers')} workers alive)",
        f"catalog_version: {checks['catalog_version']}",
        f"slo_severity: {slo['severity']}",
    ]
    for status in slo["objectives"]:
        lines.append(
            f"slo {status['name']}: error_rate {status['error_rate']:.6f}, "
            f"budget_remaining {status['budget_remaining']:.3f}, "
            f"severity {status['severity']}"
        )
    return "\n".join(lines)


def _render_profile(document: dict) -> str:
    report = document["profile"]
    lines = [f"samples: {report['samples']} (interval {report['interval_seconds']}s)"]
    for row in report["top_offenders"]:
        lines.append(f"{row['share']:.3f} [{row['backend']}] {row['frame']}")
    for row in report["span_breakdown"]:
        lines.append(f"span {row['span']} [{row['backend']}]: {row['share']:.3f}")
    for backend, share in sorted(report["backend_shares"].items()):
        lines.append(f"backend {backend}: {share:.3f}")
    return "\n".join(lines)


def _render_placement(document: dict) -> str:
    placement = document["placement"]
    if placement is None:
        return f"placement: {document['mode']} (no worker pool)"
    workers = placement["workers"]
    lines = [
        f"placement: {document['mode']}, policy {placement['policy']}, "
        f"{len(workers)} workers"
    ]
    for worker, pinned in workers.items():
        suffix = f" (+replicas {pinned['replicas']})" if pinned["replicas"] else ""
        lines.append(f"worker {worker}: owns {pinned['owns']}{suffix}")
    return "\n".join(lines)


def _render_migrate(document: dict) -> str:
    fragment, worker = document["fragment"], document["worker"]
    if document["moved"]:
        return f"migrated fragment {fragment} to worker {worker}"
    return f"fragment {fragment} already lives on worker {worker}"


def _render_rebalance(document: dict) -> str:
    return "\n".join(
        f"migrated fragment {migration['fragment']}: worker "
        f"{migration['from_worker']} -> {migration['to_worker']} "
        f"({migration['reason']})"
        for migration in document["migrations"]
    ) or "balanced; no migrations recommended"


def _render_refragment(document: dict) -> str:
    if document["scoped"]:
        return (
            f"refragmented live: rebuilt {document['changed']} "
            f"fragment(s), kept {document['unchanged']}, "
            f"recovered {document['border_nodes_recovered']} border "
            f"node(s); catalog version {document['version']}"
        )
    if document["refragmented"]:
        return f"refragmented (full rebuild); catalog version {document['version']}"
    return "advisor found no worthwhile redraw; layout unchanged"


def _render_advise(document: dict) -> str:
    lines = [f"{key}: {value}" for key, value in document["signals"].items()]
    lines.append(f"update_skew: {document['update_skew']:.2f}")
    lines.extend(f"# {line}" for line in document["rationale"])
    return "\n".join(lines)


_RENDERERS = {
    "query": lambda d: _render_answer(d["answer"]),
    "batch": lambda d: "\n".join(_render_answer(answer) for answer in d["answers"]),
    "update": lambda d: f"updated; fragment {d['fragment']}, catalog version {d['version']}",
    "delete": lambda d: f"deleted; fragment {d['fragment']}, catalog version {d['version']}",
    "stats": _render_stats,
    "slowlog": _render_slowlog,
    "trace": lambda d: f"tracing {'on' if d['tracing'] else 'off'}",
    "healthz": _render_health,
    "readyz": _render_health,
    "profile": _render_profile,
    "placement": _render_placement,
    "migrate": _render_migrate,
    "rebalance": _render_rebalance,
    "refragment": _render_refragment,
    "advise": _render_advise,
    "snapshot": lambda d: f"wrote snapshot to {d['directory']} (version {d['version']})",
}


def render(op: str, document: dict) -> str:
    """Render the document ``repro.serving.execute`` returned for ``op`` as
    the console's text (no trailing newline)."""
    if not document["ok"] and "error" in document:
        return f"error: {document['error']}"
    return _RENDERERS[op](document)


def _run_verb(service: QueryService, monitor: SLOMonitor, op: str, *arguments: object) -> str:
    """Execute one verb for a one-shot command and render its document."""
    request = Request(op, arguments)
    return render(op, execute(service, request, monitor=monitor, profiler=None))


def _cmd_batch_query(args: argparse.Namespace) -> int:
    queries = _load_queries(args, required=True)
    with _build_service(args) as service:
        monitor = SLOMonitor(service.registry, default_slos())
        print(_run_verb(service, monitor, "batch", *(node for pair in queries for node in pair)))
        if args.stats:
            print(_run_verb(service, monitor, "stats"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    queries = _load_queries(args, required=False)
    # The build chatter ("# prepared ...") goes to stderr so the rendered
    # metrics stay machine-parseable (JSON output especially).
    with contextlib.redirect_stdout(sys.stderr):
        service = _build_service(args)
    with service:
        # The monitor baselines *before* the workload so the health view
        # reflects what the workload did, not a zero-delta snapshot.
        monitor = SLOMonitor(service.registry, default_slos())
        if queries:
            service.query_batch(queries)
        if args.health:
            print(_run_verb(service, monitor, "healthz"))
        else:
            print(_run_verb(service, monitor, "stats", args.format))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    queries = _load_queries(args, required=True)
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
        report = profiler.report(top=args.top)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render("profile", {"ok": True, "profile": report}))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with _build_service(args) as service:
        # One monitor for the session: a per-command throwaway would baseline
        # at the current counters and report zero burn forever.
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
                    # One grammar, one verb table, one error path: the same
                    # parse, the same execute and the same failures as the
                    # network server; only the rendering is the console's.
                    request = parse_line(line, surface="console")
                    if request is None:
                        continue
                    if request.op in ("quit", "exit"):
                        break
                    document = execute(
                        service, request, monitor=slo_monitor, profiler=profiler
                    )
                    print(render(request.op, document))
                except SERVICE_ERRORS as error:
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
