#!/usr/bin/env python3
"""The scale harness's one command.

``run.py --workload W --seed N --seconds S --trace 0|1`` runs one workload
and prints, as the last line of standard output, the result object the
benchmark contract in ``BENCHMARK.json`` describes.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run of the
same op stream.  The fuller report (per-op-kind latencies, raw wall-clock
values, sample counts) goes to the lines above it and to
``out/<workload>.<seed>.summary.json``.

Subcommands: ``all`` (passes over every workload, optionally saved as a result
set), ``compare A B`` and ``gate --baseline FILE`` (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = (
    "prepare", "sp-cold", "reach-cold", "hot-batch", "write-mixed", "pool-batch", "net-closure"
)
SCALES = ("gate", "tiny")


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
) -> Dict[str, object]:
    """Run one workload; returns the summary document (also written to ``out/``)."""
    try:
        import netload
        import session
        import tracing
    except ImportError as error:
        # No program to measure (a checkout without src/): say so and fail.
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        raise SystemExit(2)

    if workload == "net-closure":
        runner = netload.run_traced if trace else netload.run_untraced
    else:
        runner = tracing.run_traced if trace else session.run_untraced
    outcome = runner(workload, seed, seconds, scale)
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        **{key: outcome[key] for key in ("graph", "nodes", "arcs", "attempted", "failed")},
        "failure_messages": outcome["failure_messages"],
        "metrics": _plain(outcome["metrics"]),
        # Traced runs: whether a value is the workload's own (stream, setup) or a probe's.
        "sources": outcome.get("sources", {}),
        "report": _plain(outcome["report"]),
        "notes": outcome.get("notes", []),
        "claim": None,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    suffix = "trace-summary" if trace else "summary"
    with open(out / f"{workload}.{seed}.{suffix}.json", "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=1)
    return summary


def _plain(metrics: Dict[str, tuple]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_summary(summary: Dict[str, object]) -> None:
    print(
        f"# {summary['workload']} seed={summary['seed']} scale={summary['scale']} "
        f"graph={summary['graph']} nodes={summary['nodes']} arcs={summary['arcs']} "
        f"trace={summary['trace']}"
    )
    for section in ("metrics", "report"):
        for name, entry in summary[section].items():
            source = summary["sources"].get(name, "") if section == "metrics" else ""
            print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']:8s} {source}".rstrip())
    for note in summary["notes"]:
        print(f"# note: {note}")
    for message in summary["failure_messages"]:
        print(f"# failure: {message}")
    print(json.dumps(summary))


def contract_line(summary: Dict[str, object]) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": summary["metrics"],
        }
    )


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return float(json.load(stream)["run_seconds"])


def run_passes(
    seeds: Sequence[int],
    passes: int,
    seconds: Optional[float],
    scale: str,
    *,
    trace: bool = False,
) -> List[Dict[str, object]]:
    """``passes`` passes over every workload for each seed, one fresh process per run.

    A process per run, as the benchmark driver does it: peak memory is a
    high-water mark of the process, and one workload's must not show up in
    the next one's.
    """
    seconds = default_seconds() if seconds is None else seconds
    runs = []
    for _ in range(passes):
        for seed in seeds:
            for name in WORKLOADS:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", scale,
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
                lines = done.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]))  # everything but the contract line
                runs.append(json.loads(lines[-2]))
    return runs


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("compare", "gate"):
        import compare

        return compare.main(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    everything = bool(argv) and argv[0] == "all"
    if everything:
        argv = argv[1:]
        parser.add_argument("--seeds", default="11", help="comma-separated workload seeds")
        parser.add_argument("--passes", type=int, default=1)
        parser.add_argument("--out", type=Path, help="write the result set here")
    else:
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="gate")
    args = parser.parse_args(argv)
    if everything:
        seeds = [int(seed) for seed in args.seeds.split(",")]
        runs = run_passes(seeds, args.passes, args.seconds, args.scale, trace=bool(args.trace))
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as stream:
                json.dump({"runs": runs, "claim": None}, stream, indent=1)
        return 1 if any(run["failed"] for run in runs) else 0
    seconds = default_seconds() if args.seconds is None else args.seconds
    summary = run_one(args.workload, args.seed, seconds, bool(args.trace), args.scale)
    print_summary(summary)
    print(contract_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
