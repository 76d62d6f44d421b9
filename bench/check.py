"""Self-check of the gradboost benchmark, every workload in one command.

    python3 bench/check.py [--seed 0] [--seconds 8]

For each workload it makes one untraced run and prints its report: every
end-to-end metric with its unit and sample count, the host facts and the
output fingerprints.  Then it makes two traced runs at the same seed and
prints the per-layer metrics.  It exits 1 unless every run is correct, the
traced runs write the same outputs as the untraced run (equal fingerprints),
and the exact counts repeat across the two traced runs.
"""

import argparse
import json
import subprocess
import sys

from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS

REPORT_PREFIX = "# gradboost benchmark: "
# per-layer counts later changes may cite; they must not vary between runs
EXACT_COUNTS = (
    "dataset.rows_parsed", "tree.best_split_calls", "tree.candidates_scanned", "tree.rows_routed",
    "booster.predict_raw_calls", "booster.trace_bytes", "leaf_values.leaves_evaluated",
    "cli.model_bytes", "cli.output_bytes",
)


def run(workload: str, seed: int, seconds: float, trace: int):
    """(report dict, report lines, result dict) of one run.py run."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    report = next(json.loads(line[len(REPORT_PREFIX):]) for line in lines if line.startswith(REPORT_PREFIX))
    return report, [line for line in lines if line.startswith("#   ")], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    problems = []
    for name in WORKLOADS:
        report, lines, result = run(name, args.seed, args.seconds, 0)
        print(f"{name} (seed {args.seed}, untraced): host {json.dumps(report['host'])}")
        print(f"  inputs {json.dumps(report['input_bytes'])}")
        print(f"  fingerprints {json.dumps(report['fingerprints'])}")
        print("\n".join(lines))
        traced = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        print(f"{name} (seed {args.seed}, traced, first of two runs):")
        for metric, entry in traced[0][2]["metrics"].items():
            print(f"    {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
        for label, (rep, _, res) in [("untraced", (report, lines, result)), *(("traced", t) for t in traced)]:
            if not res["correct"]:
                problems.append(f"{name}: {label} run failed {res['failed']} of {res['attempted']}: {rep['checks']}")
            if rep["fingerprints"] != report["fingerprints"]:
                problems.append(f"{name}: {label} run wrote different outputs from the untraced run")
        first, second = (t[2]["metrics"] for t in traced)
        for metric in EXACT_COUNTS:
            if first[metric]["value"] != second[metric]["value"]:
                problems.append(f"{name}: {metric} {first[metric]['value']} then {second[metric]['value']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("benchmark self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
