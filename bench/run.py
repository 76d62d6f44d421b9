"""gradboost benchmark: time one workload for one seed, check its outputs, and
print the result as the last line of stdout.

    python3 bench/run.py --workload fit-wide --seed 0 --seconds 20 --trace 0

One process, one client, closed loop.  Each round makes one CLI call through
gradboost.cli.main(argv) on files in a scratch directory, then scores
SINGLE_ROWS rows with one Model.predict_proba call each; every call starts
after the previous one returns.  Set-up (interpreter start, imports, input
generation, training any model the workload reads) runs in a child process,
SETUP_REPEATS times, and counts only in setup_s.

Times are reported at the reference host speed: see SpeedMeter.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced and untraced rounds, reports the per-layer metrics and the
tracing overhead, and writes every span to bench/out/spans-<workload>-seed<seed>.csv.
The workloads, the layers they stress and the end-to-end metric each layer
metric should move are described in bench/NOTES.md.
"""

import os

# single-threaded numpy on a shared host; set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
NPROC = len(os.sched_getaffinity(0))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS, import_gradboost  # noqa: E402

SETUP_REPEATS = 3
BLOCK_ROWS = 50  # single-row calls between two host-speed probes
TICK_S = 0.02  # host-speed probe interval during a CLI call or a set-up
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
SPANS_DIR = BENCH_DIR / "out"

# probe_ns() on the reference host (2 vCPU Intel Xeon, Python 3.11, numpy
# 2.4) while its cores were not contended
REFERENCE_PROBE_NS = 65_000
_PROBE_VALUES = np.arange(32.0)

# per-layer metric -> (span name, self time instead of duration)
LAYER_TIMES = {
    "dataset.load_csv_s": ("dataset.load_csv", False),
    "tree.fit_tree_s": ("tree.fit_tree", False),
    "tree.best_split_s": ("tree.best_split", False),
    "tree.leaf_assignment_s": ("tree.leaf_assignment", False),
    "booster.predict_raw_s": ("booster.predict_raw", False),
    "booster.train_s": ("booster.train", False),
    "booster.train_self_s": ("booster.train", True),
    "booster.replay_s": ("booster.replay", False),
    "booster.replay_self_s": ("booster.replay", True),
    "booster.total_loss_s": ("booster.total_loss", False),
    "leaf_values.leaf_sample_s": ("leaf_values.leaf_sample", False),
    "leaf_values.leaf_value_terms_s": ("leaf_values.leaf_value_terms", False),
    "leaf_values.sigmoid_s": ("leaf_values.sigmoid", False),
    "cli.save_model_s": ("cli.save_model", False),
    "cli.load_model_s": ("cli.load_model", False),
    "cli.write_predictions_self_s": ("cli.write_predictions", True),
    "cli.write_trace_s": ("cli.write_trace", False),
}
# per-layer metric -> (tracer count, unit)
LAYER_COUNTS = {
    "dataset.rows_parsed": ("rows_parsed", "count"),
    "tree.best_split_calls": ("best_split_calls", "count"),
    "tree.candidates_scanned": ("candidates_scanned", "count"),
    "tree.rows_routed": ("rows_routed", "count"),
    "booster.predict_raw_calls": ("predict_raw_calls", "count"),
    "booster.trace_bytes": ("trace_bytes", "bytes"),
    "leaf_values.leaves_evaluated": ("leaves_evaluated", "count"),
    "cli.model_bytes": ("model_bytes", "bytes"),
    "cli.output_bytes": ("output_bytes", "bytes"),
}
# how the report names the CLI call of each command
CALL_NAMES = {"train": "train_s", "predict": "predict_s", "trace": "trace_s"}


def probe_ns(repeats: int = 1) -> float:
    """Median time of a fixed pure-Python loop over numpy scalars."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        total = 0.0
        for i in range(400):
            x = _PROBE_VALUES[i & 31]
            total += float(x) * 0.5 if x <= 15.5 else 1.0
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


class SpeedMeter:
    """Host speed while a piece of work runs.

    On a shared host the same code runs up to ~2x slower while other tenants
    load the core, in spells from a fraction of a second to minutes.  Inside
    `with SpeedMeter() as meter:` a SIGALRM handler times probe_ns every
    TICK_S of wall time (the work's own CPU, as the process is pinned), and
    one probe runs on entry and on exit.  meter.normalize(seconds) takes out
    the probes' own time and scales the rest to the reference speed, so every
    time the benchmark reports reads as the time on the reference host when
    not contended.
    """

    def __enter__(self):
        self.samples = [probe_ns()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe_ns())

    def _tick(self, signum, frame):
        self.samples.append(probe_ns())

    def normalize(self, seconds: float) -> float:
        ticks_s = sum(self.samples[1:-1]) / 1e9
        return (seconds - ticks_s) * statistics.fmean(REFERENCE_PROBE_NS / ns for ns in self.samples)


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two probes to the reference speed."""
    return (REFERENCE_PROBE_NS / before + REFERENCE_PROBE_NS / after) / 2


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def host_facts() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
            return int(out.strip())
        except (OSError, subprocess.SubprocessError, ValueError):
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def set_up(workload, seed: int, work: Path):
    """Run prepare.py SETUP_REPEATS times.

    Returns (normalized seconds, raw seconds, input dir, problems).  The
    repeats must write byte-identical inputs, since set-up is seeded.
    """
    normalized, raw, digests = [], [], []
    for r in range(SETUP_REPEATS):
        dest = work / f"inputs-{r}"
        argv = [sys.executable, str(BENCH_DIR / "prepare.py"),
                "--workload", workload.name, "--seed", str(seed), "--out", str(dest)]
        with SpeedMeter() as meter:
            start = time.perf_counter()
            subprocess.run(argv, check=True)
            raw.append(time.perf_counter() - start)
        normalized.append(meter.normalize(raw[-1]))
        digests.append({p.name: sha256(p) for p in sorted(dest.iterdir())})
    problems = [] if all(d == digests[0] for d in digests) else ["set-up repeats wrote different inputs"]
    return statistics.median(normalized), statistics.median(raw), dest, problems


def call_cli(cli, argv):
    """(exit status or None after an exception, captured stdout)."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv)
    except Exception:
        traceback.print_exc()
        status = None
    return status, stdout.getvalue()


class Samples:
    """Timings of the rounds of one kind (traced or untraced)."""

    def __init__(self):
        self.call_s = []  # normalized CLI call seconds
        self.raw_call_s = []
        self.round_s = []  # normalized CLI call plus single-row calls
        self.one_ns = []  # normalized single-row latencies
        self.raw_one_ns = []


def run_round(gb, argv, model, row_arrays, expected_probs, samples: Samples, tracer=None):
    """One CLI call, then one Model.predict_proba call per row; with a
    tracer, each call gets its own operation id.

    Returns (CLI exit status, its stdout, single-row results that differ from
    expected_probs, factor that scales the round's raw times to reference speed).
    """
    if tracer is not None:
        tracer.op += 1
    with SpeedMeter() as meter:
        start = time.perf_counter()
        status, stdout = call_cli(gb.cli, argv)
        raw_call = time.perf_counter() - start
    call = meter.normalize(raw_call)
    raw_ns = []
    latencies = []
    wrong = 0
    before = probe_ns(3)
    for first in range(0, len(row_arrays), BLOCK_ROWS):
        block = []
        for x, expected in zip(row_arrays[first:first + BLOCK_ROWS], expected_probs[first:first + BLOCK_ROWS]):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter_ns()
            p = model.predict_proba(x)
            block.append(time.perf_counter_ns() - t0)
            wrong += p != expected
        after = probe_ns(3)
        factor = speed(before, after)
        latencies += [ns * factor for ns in block]
        raw_ns += block
        before = after
    round_s = call + sum(latencies) / 1e9
    samples.call_s.append(call)
    samples.raw_call_s.append(raw_call)
    samples.one_ns += latencies
    samples.raw_one_ns += raw_ns
    samples.round_s.append(round_s)
    return status, stdout, wrong, round_s / (raw_call + sum(raw_ns) / 1e9)


def check_outputs(gb, workload, seed, inputs, reference, printed, rows, probs, checks) -> dict:
    """Check the warm-up outputs against the oracle, the model round trip and,
    at the default seed, the recorded fingerprints; add each check's problems
    to checks and return the outputs' SHA-256 fingerprints."""
    model_path = workload.model_path(inputs, reference)
    model_doc = oracle.read_model(model_path)
    data_rows, labels = oracle.read_rows(inputs / "data.csv")
    if workload.command == "train":
        checks["train loss matches oracle"] = oracle.check_train_loss(model_doc, data_rows, labels, printed)
    elif workload.command == "predict":
        checks["predictions match oracle"] = oracle.check_predictions(model_doc, data_rows, reference)
    else:
        checks["trace matches oracle"] = oracle.check_trace(model_doc, data_rows, labels, reference)
    checks["predict_proba matches oracle"] = oracle.check_probabilities(model_doc, rows, probs)
    resaved = reference.with_name("resaved.json")
    gb.cli.save_model(gb.cli.load_model(model_path), resaved)
    checks["model re-saves byte-identical"] = (
        [] if resaved.read_bytes() == model_path.read_bytes() else ["load_model + save_model changed the bytes"]
    )
    digests = {"model.json": sha256(model_path)}
    if workload.command != "train":
        digests[workload.output] = sha256(reference)
    if seed == DEFAULT_SEED:
        recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload.name)
        checks["fingerprints match at the default seed"] = (
            [] if recorded == digests else [f"fingerprints {digests}, recorded {recorded}"]
        )
    return digests


def measure(gb, workload, args, work: Path) -> dict:
    setup_s, raw_setup_s, inputs, setup_problems = set_up(workload, args.seed, work)
    out = work / workload.output
    argv = workload.argv(inputs, out)
    rows, _ = oracle.read_rows(inputs / "rows.csv")
    row_arrays = list(np.asarray(rows, dtype=np.float64))

    # warm-up round, untraced: its outputs are the reference every timed round must repeat
    status, printed = call_cli(gb.cli, argv)
    if status != 0:
        raise SystemExit(f"error: warm-up `gradboost {' '.join(argv)}` exited {status}")
    reference = work / f"reference-{workload.output}"
    shutil.copyfile(out, reference)
    reference_digest = sha256(reference)
    model = gb.cli.load_model(workload.model_path(inputs, reference))
    reference_probs = [model.predict_proba(x) for x in row_arrays]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare(gb)
    untraced, traced_samples = Samples(), Samples()
    layer_ns, layer_self_ns = Counter(), Counter()
    round_counts = []
    calls = failed_calls = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(traced_samples.call_s) <= len(untraced.call_s)
        if traced:
            tracer.install()
            counts_before, first_span = dict(tracer.counts), len(tracer.spans)
        status, stdout, wrong, factor = run_round(
            gb, argv, model, row_arrays, reference_probs,
            traced_samples if traced else untraced, tracer if traced else None,
        )
        if traced:
            tracer.uninstall()
            round_counts.append({k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()})
            total, own = tracer.totals(first_span)
            for name, ns in total.items():
                layer_ns[name] += ns * factor
                layer_self_ns[name] += own[name] * factor
        ok = status == 0 and stdout == printed and sha256(out) == reference_digest
        calls += 1 + len(row_arrays)
        failed_calls += (not ok) + wrong
        if time.perf_counter() >= deadline and untraced.call_s:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = {"set-up is deterministic": setup_problems}
    digests = check_outputs(gb, workload, args.seed, inputs, reference, printed, rows, reference_probs, checks)
    if tracer is not None:
        checks["counts repeat exactly"] = (
            [] if all(c == round_counts[0] for c in round_counts) else [f"counts differ: {round_counts}"]
        )
    for name, problems in checks.items():
        for problem in problems:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
    failed = failed_calls + sum(bool(p) for p in checks.values())
    attempted = calls + len(checks)

    call_s = statistics.median(untraced.call_s)
    call_s = statistics.median(untraced.call_s)
    one_us = {q: float(np.percentile(untraced.one_ns, q)) / 1e3 for q in (50, 90)}
    n_calls, n_one = len(untraced.call_s), len(untraced.one_ns)
    lines = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups; raw {raw_setup_s:.4f} s"),
        (CALL_NAMES[workload.command], call_s, "s",
         f"median of {n_calls} untraced calls; raw {statistics.median(untraced.raw_call_s):.4f} s"),
    ]
    if workload.command == "predict":
        lines.append(("predict_rows_per_s", workload.data_rows / call_s, "1/s",
                      f"{workload.data_rows} rows / median of {n_calls} calls"))
    lines += [
        (f"predict_one_us.p{q}", one_us[q], "us",
         f"{n_one} untraced calls; raw {np.percentile(untraced.raw_one_ns, q) / 1e3:.2f} us")
        for q in (50, 90)
    ]
    lines += [
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of the measuring process"),
        ("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} calls and checks"),
    ]
    if tracer is not None:
        overhead_s = statistics.median(traced_samples.round_s) - statistics.median(untraced.round_s)
        lines.append(("tracing.overhead_s", overhead_s, "s",
                      f"median round, {len(traced_samples.round_s)} traced vs {len(untraced.round_s)} untraced"))
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "input_bytes": {p.name: p.stat().st_size for p in sorted(inputs.iterdir())},
        "fingerprints": digests,
        "checks": {name: not problems for name, problems in checks.items()},
    }
    print(f"# gradboost benchmark: {json.dumps(report)}")
    for name, value, unit, samples in lines:
        print(f"#   {name:<22} {value:>14.6g} {unit:<6} {samples}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cli_call_s": (call_s, "s"),
            "predict_one_us.p50": (one_us[50], "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        rounds = len(round_counts)
        metrics = {
            name: ((layer_self_ns if self_time else layer_ns)[span] / 1e9 / rounds, "s")
            for name, (span, self_time) in LAYER_TIMES.items()
        }
        counts = round_counts[0]
        for name, (key, unit) in LAYER_COUNTS.items():
            metrics[name] = (counts.get(key, 0), unit)
        scanned, searches = counts.get("candidates_scanned", 0), counts.get("best_split_calls", 0)
        metrics["tree.candidate_yield"] = (counts.get("distinct_cuts", 0) / scanned if scanned else 0.0, "ratio")
        metrics["tree.split_yield"] = (counts.get("splits_found", 0) / searches if searches else 0.0, "ratio")
        metrics["tracing.overhead_s"] = (overhead_s, "s")
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.csv")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one CPU for this process and its set-up children, so that SpeedMeter
    # probes the core that does the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gb = import_gradboost()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        result = measure(gb, WORKLOADS[args.workload], args, work)
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"error: set-up failed: {exc}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
