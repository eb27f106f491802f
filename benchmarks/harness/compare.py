"""``compare A.json B.json`` and ``gate --baseline FILE``.

A result set is what ``run.py all --out FILE`` writes: the run summaries of
one or more passes over the workloads.  ``compare`` reads two of them (A the
parent, B the change) and applies the measuring rules the benchmark was built
to (``choosing-metrics`` guide, section 8) to every pairing of workload and
metric: the end-to-end metrics of ``BENCHMARK.json`` with the bounds given
there, and the op-specific report metrics in ``REPORT_BOUNDS`` on the
workloads that report them (a pairing that is not defined has no row).

* each side's median and quartiles are printed, every pairing in its own row;
* a **regression** is B's better quartile worse than A's worse quartile by
  more than the bound, or B's median worse than A's by more than the bound
  plus the wider side's quartile distance — noise on either side does not
  excuse a slowdown that clears it;
* otherwise a side whose quartile distance exceeds the bound makes the row
  **unresolved** — never "unchanged";
* otherwise B's median worse than A's by more than the bound is a regression;
* B is **better** only when its median beats A's by more than the distance
  between A's own quartiles *and* B wins at least nine tenths of the runs
  paired by (seed, pass), ties counting for neither side;
* any failed operation on side B is a regression whatever the timings say.

Exit status: 1 when any row regressed or an operation failed, 2 when nothing
regressed but a row is unresolved (not being able to tell is not a pass), else
0.  ``gate`` runs fresh passes and compares them with a committed baseline the
same way — the one line a CI job needs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WIN_SHARE = 0.9
MIN_PAIRS_FOR_A_CLAIM = 10
MIN_SAMPLES_FOR_QUARTILES = 4

# Op-specific metrics of the full report that no contract metric already
# carries (``read_p50_ms``, ``prepare_s`` and ``closure_rows_s`` are the
# workload's ``op_p50_ms`` / ``throughput_ops_s``): ``metric -> (better, bound)``.
REPORT_BOUNDS: Dict[str, Tuple[str, float]] = {
    "batch_p50_ms": ("lower", 0.15),
    "write_p50_ms": ("lower", 0.25),  # sits between the insert and the reweight mode
    "write_p90_ms": ("lower", 0.25),
    "raw_read_p50_ms": ("lower", 0.15),
}


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)``: BENCHMARK.json's end-to-end metrics, then the report's."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        document = json.load(stream)
    bounds = {m["name"]: (m["better"], float(m["bound"])) for m in document["end_to_end"]}
    return {**REPORT_BOUNDS, **bounds}


def load_runs(path: Path) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    return [run for run in document["runs"] if not run.get("trace")]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Quartiles as ``statistics.quantiles`` gives them; of under four values, the range.

    (``quantiles`` extrapolates: of two values it puts the quartiles 1.5 times
    as far apart as the values themselves.)
    """
    if len(values) < MIN_SAMPLES_FOR_QUARTILES:
        return min(values), statistics.median(values), max(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(
    better: str,
    bound: float,
    a: Sequence[Tuple[Tuple, float]],
    b: Sequence[Tuple[Tuple, float]],
) -> Dict[str, object]:
    """One row: ``a`` and ``b`` are ``((seed, pass), value)`` samples of one metric."""
    a_q1, a_median, a_q3 = quartiles([value for _, value in a])
    b_q1, b_median, b_q3 = quartiles([value for _, value in b])
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    # How far B's better quartile lies beyond A's worse one.
    a_worst, b_best = (a_q3, b_q1) if better == "lower" else (a_q1, b_q3)
    clear_by = sign * (b_best - a_worst) / abs(a_median) if a_median else 0.0
    a_spread = (a_q3 - a_q1) / abs(a_median) if a_median else 0.0
    b_spread = (b_q3 - b_q1) / abs(b_median) if b_median else 0.0
    paired_b = dict(b)
    wins = losses = 0
    for key, a_value in a:
        if key in paired_b and paired_b[key] != a_value:
            if sign * (paired_b[key] - a_value) < 0:
                wins += 1
            else:
                losses += 1
    decided = wins + losses
    spread = max(a_spread, b_spread)
    if clear_by > bound or worse_by > bound + spread:
        verdict = "regression"
    elif spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif (
        -worse_by > a_spread
        and decided >= MIN_PAIRS_FOR_A_CLAIM
        and wins >= WIN_SHARE * decided
    ):
        verdict = "better"
    else:
        verdict = "within-bound"
    return {
        "a": (a_q1, a_median, a_q3),
        "b": (b_q1, b_median, b_q3),
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": decided,
        "verdict": verdict,
    }


def compare(
    a_runs: Sequence[Dict[str, object]], b_runs: Sequence[Dict[str, object]]
) -> Tuple[List[Tuple[str, str, Dict[str, object]]], List[str]]:
    """Every (workload, metric) row, plus messages about failed operations on B."""
    bounds = load_bounds()

    def samples(runs: Sequence[Dict[str, object]]) -> Dict[Tuple[str, str], List]:
        table: Dict[Tuple[str, str], List] = {}
        passes: Dict[Tuple[str, int], int] = {}
        for run in runs:
            identity = (run["workload"], run["seed"])
            index = passes[identity] = passes.get(identity, -1) + 1
            for metric, entry in {**run.get("report", {}), **run["metrics"]}.items():
                if metric in bounds:
                    table.setdefault((run["workload"], metric), []).append(
                        ((run["seed"], index), float(entry["value"]))
                    )
        return table

    a_table, b_table = samples(a_runs), samples(b_runs)
    rows = []
    for key in sorted(a_table):
        if key in b_table:
            better, bound = bounds[key[1]]
            rows.append((key[0], key[1], judge(better, bound, a_table[key], b_table[key])))
    failures = [
        f"{run['workload']} seed {run['seed']}: {run['failed']} of {run['attempted']} operations failed"
        for run in b_runs
        if run["failed"]
    ]
    return rows, failures


def render(rows, failures) -> str:
    lines = [
        f"{'workload':12s} {'metric':18s} {'A q1/median/q3':>36s} {'B q1/median/q3':>36s} "
        f"{'worse by':>9s} {'spread':>7s} {'wins':>7s}  verdict"
    ]
    for workload, metric, row in rows:
        a = "/".join(f"{value:.5g}" for value in row["a"])
        b = "/".join(f"{value:.5g}" for value in row["b"])
        lines.append(
            f"{workload:12s} {metric:18s} {a:>36s} {b:>36s} {row['worse_by']:>+9.1%} "
            f"{row['spread']:>7.1%} {row['wins']:>3d}/{row['pairs']:<3d}  {row['verdict']}"
        )
    lines.extend(f"FAILED OPERATIONS: {message}" for message in failures)
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    commands = parser.add_subparsers(dest="command", required=True)
    compare_parser = commands.add_parser("compare", help="compare two result sets")
    compare_parser.add_argument("a", type=Path)
    compare_parser.add_argument("b", type=Path)
    gate_parser = commands.add_parser("gate", help="run now and compare with a baseline")
    gate_parser.add_argument("--baseline", type=Path, required=True)
    gate_parser.add_argument("--seeds", default="11,23")
    gate_parser.add_argument("--passes", type=int, default=5,
                             help="passes per seed; quartiles of under four runs are their range")
    args = parser.parse_args(list(argv))
    if args.command == "compare":
        a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    else:
        import run

        a_runs = load_runs(args.baseline)
        b_runs = run.run_passes(
            [int(seed) for seed in args.seeds.split(",")], args.passes, None, "gate"
        )
    rows, failures = compare(a_runs, b_runs)
    print(render(rows, failures))
    regressed = [row for row in rows if row[2]["verdict"] == "regression"]
    unresolved = [row for row in rows if row[2]["verdict"] == "unresolved"]
    print(
        f"{len(rows)} rows: {len(regressed)} regression(s), {len(unresolved)} unresolved, "
        f"{len(failures)} run(s) with failed operations"
    )
    if regressed or failures:
        return 1
    return 2 if unresolved else 0
