"""Run the benchmark of two checkouts in alternating pairs and compare their
end-to-end metrics.

    python3 tools/ab_pairs.py PARENT CHANGE --workload fit-wide [--workload W ...] --pairs 10 [--seed N]

PARENT and CHANGE are checkout directories.  Each --workload runs its pairs
in turn, in the order given, and prints a block of its own, which opens with
a line "workload W" and holds what is described below.  Each run is
`<this interpreter> <checkout>/bench/run.py --workload W [--seed N]`, so
run.py's own defaults set the run length and, unless --seed is given, the
seed; its last stdout line is read as the result JSON.  The parent runs
first; after that the side that runs first alternates from pair to pair
(parent, change, change, parent, parent, ...), so neither side always
follows the other.  A run that exits nonzero, or whose last line is not a
result, stops the tool with an error.

For each run it prints correct, attempted, failed and every end-to-end metric
named in CHANGE/BENCHMARK.json.  It then prints each side's median operations
attempted per run and their ratio (change / parent): the harness's share of
peak_rss_mb grows with them (ROADMAP item 1), so a peak_rss_mb move is read
against the extra operations a faster change fits into a run.  After that, for each metric, it prints the parent's and
the change's medians, their ratio (change / parent), the distance between
the parent's quartiles, how many pairs the change won by the metric's
"better" direction (a tie counts for neither side), and a verdict read with
the metric's "bound" (see verdict).  A last line gives
each side's failed operations out of those attempted.  If any run
reported `correct: false`, the tool names those runs and their workload on
stderr and exits 1, since a speed-up measured while operations fail shows
nothing; so it does, naming them, if any metric's verdict is `worse`.  Every
block is run and printed before the tool exits, so one invocation judges every
workload a change must not regress.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(line: str, metrics) -> dict:
    """A run's result line as {"correct", "attempted", "failed", and each
    metric name: its value}; a ValueError when it is not JSON or lacks any of
    them."""
    try:
        result = json.loads(line)
        if not isinstance(result["correct"], bool):
            raise TypeError(f"correct is {result['correct']!r}, not a bool")
        values = {"correct": result["correct"], "attempted": int(result["attempted"]),
                  "failed": int(result["failed"])}
        for metric in metrics:
            values[metric["name"]] = float(result["metrics"][metric["name"]]["value"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"not a benchmark result line ({exc!r}): {line[:200]!r}") from None
    return values


def run_once(checkout: Path, workload: str, seed, metrics) -> dict:
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    try:
        return parse_result(lines[-1] if lines else "", metrics)
    except ValueError as exc:
        raise SystemExit(f"error: {' '.join(command)}: {exc}") from None


def run_line(pair: int, side: str, values: dict, metrics) -> str:
    cells = [f"correct={str(values['correct']).lower()}", f"attempted={values['attempted']}",
             f"failed={values['failed']}"]
    cells += [f"{metric['name']}={values[metric['name']]:.6g}" for metric in metrics]
    return f"pair {pair + 1:>2} {side:<6} " + " ".join(cells)


def verdict(metric, before: list[float], after: list[float], won: int, iqr: float) -> str:
    """One metric's verdict over the pairs (before[k], after[k]), given won,
    the pairs the change won, and iqr, the parent's quartile distance; the
    metric's bound is a fraction of the parent's median:

    gain        the change won at least 9 pairs in 10 and its median beats the
                parent's by more than iqr;
    worse       its median is worse than the parent's by more than the bound;
    unresolved  iqr is wider than the bound, unless every change run beats
                every parent run;
    same        anything else."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * value: lower is better
    median_before = statistics.median(before)
    margin = sign * (median_before - statistics.median(after))  # > 0 when the change is better
    bound = metric["bound"] * median_before
    if 10 * won >= 9 * len(before) and margin > iqr:
        return "gain"
    if -margin > bound:
        return "worse"
    if iqr > bound and max(sign * a for a in after) >= min(sign * b for b in before):
        return "unresolved"
    return "same"


def summary(metrics, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric over the pairs (parent[k], change[k]): both
    medians, the change's over the parent's, the parent's interquartile
    distance, the pairs the change won and its verdict; then each side's
    failed operations out of those attempted."""
    columns = (("parent", ">11"), ("change", ">11"), ("ratio", ">8"), ("parent IQR", ">11"), ("won", ">7"),
               ("verdict", ""))
    lines = [f"{'metric':<20} {'unit':<5} " + " ".join(f"{name:{spec}}" for name, spec in columns)]
    for metric in metrics:
        name = metric["name"]
        before = [values[name] for values in parent]
        after = [values[name] for values in change]
        lower = metric["better"] == "lower"
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        median_before, median_after = statistics.median(before), statistics.median(after)
        ratio = f"x{median_after / median_before:.3f}" if median_before else "-"
        q1, q3 = (0.0, 0.0) if len(before) < 2 else statistics.quantiles(before, n=4, method="inclusive")[::2]
        lines.append(
            f"{name:<20} {metric['unit']:<5} {median_before:>11.6g} {median_after:>11.6g} "
            f"{ratio:>8} {q3 - q1:>11.3g} {won:>3}/{len(before):<3} "
            + verdict(metric, before, after, won, q3 - q1)
        )
    totals = [f"{side} {sum(v['failed'] for v in runs)} of {sum(v['attempted'] for v in runs)}"
              for side, runs in (("parent", parent), ("change", change))]
    lines.append("failed operations: " + ", ".join(totals))
    return lines


def run_block(args, workload: str, metrics) -> bool:
    """Run one workload's pairs and print its block; True when a run reported
    correct: false or a metric's verdict is worse, each named on stderr."""
    print(f"workload {workload}", flush=True)
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            values = run_once(getattr(args, side), workload, args.seed, metrics)
            results[side].append(values)
            print(run_line(pair, side, values, metrics), flush=True)
    before, after = [statistics.median(v["attempted"] for v in runs) for runs in results.values()]
    ratio = f"x{after / before:.3f}" if before else "-"
    print(f"median attempted: parent {before:.0f}, change {after:.0f} ({ratio})")
    lines = summary(metrics, results["parent"], results["change"])
    print("\n".join(lines), flush=True)
    incorrect = [f"{side} pair {k + 1}" for side, runs in results.items()
                 for k, values in enumerate(runs) if not values["correct"]]
    if incorrect:
        print(f"error: {workload}: runs that reported correct: false: {', '.join(incorrect)}", file=sys.stderr)
    # between the header and the totals, one row per metric, ending with its verdict
    worse = [row.split()[0] for row in lines[1:-1] if row.split()[-1] == "worse"]
    if worse:
        print(f"error: {workload}: metrics whose verdict is worse: {', '.join(worse)}", file=sys.stderr)
    return bool(incorrect or worse)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True, help="repeat to run several in turn")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, help="passed to run.py; run.py's default when omitted")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    failed = [run_block(args, workload, metrics) for workload in args.workload]  # a list: every block runs
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
