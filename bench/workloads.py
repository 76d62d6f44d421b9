"""The benchmark's workloads: seeded input generation and the CLI call each
one times.  Shared by run.py (the measuring process) and prepare.py (the
set-up process that run.py starts and times)."""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SINGLE_ROWS = 2000  # rows scored one Model.predict_proba call at a time per round


def import_gradboost():
    """Import gradboost from this checkout's src/ and never from elsewhere.

    Exits with status 1, printing no result, when the checkout holds no
    package source.
    """
    package = SRC / "gradboost"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import gradboost.cli

    if Path(gradboost.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported gradboost from {gradboost.__file__}, not {package}")
    return gradboost


@dataclass(frozen=True)
class Workload:
    """One user task.

    The timed CLI call reads data.csv (data_rows rows, d features); when
    fit_rows > 0, set-up first trains the model the call reads on a separate
    fit.csv of that many rows, with fit_args.  For the train command fit_args
    are the timed call's own options instead.
    """

    name: str
    stream: int  # keeps the random streams of workloads sharing a seed apart
    command: str
    d: int
    data_rows: int
    labeled: bool
    fit_rows: int
    fit_args: tuple[str, ...]
    output: str

    def argv(self, inputs: Path, out: Path) -> list[str]:
        data = str(inputs / "data.csv")
        if self.command == "train":
            return ["train", "--data", data, *self.fit_args, "--out", str(out)]
        return [self.command, "--model", str(inputs / "model.json"), "--data", data, "--out", str(out)]

    def model_path(self, inputs: Path, out: Path) -> Path:
        """The model of the call: the one it writes to out, or the prepared one it reads."""
        return out if self.command == "train" else inputs / "model.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-wide", 1, "train", d=8, data_rows=4000, labeled=True, fit_rows=0,
            fit_args=("--trees", "8", "--max-depth", "3", "--learning-rate", "0.3"),
            output="model.json",
        ),
        Workload(
            "score-batch", 2, "predict", d=6, data_rows=10000, labeled=False, fit_rows=400,
            fit_args=("--trees", "80", "--max-depth", "4", "--learning-rate", "0.1"),
            output="predictions.csv",
        ),
        Workload(
            "audit-replay", 3, "trace", d=4, data_rows=1500, labeled=True, fit_rows=500,
            fit_args=("--trees", "100", "--max-depth", "2", "--learning-rate", "0.1"),
            output="trace.csv",
        ),
    )
}


def sample(rng, n: int, d: int):
    """n rows: the first d//2 columns continuous, the rest integers 0..7 with
    many ties; labels drawn from a logistic model with an interaction, so
    deeper trees have structure to find."""
    half = d // 2
    X = np.empty((n, d))
    X[:, :half] = rng.normal(size=(n, half))
    X[:, half:] = rng.integers(0, 8, size=(n, d - half))
    z = (
        X[:, 0]
        - 0.8 * X[:, 1]
        + 0.5 * (X[:, half] - 3.5)
        - 0.3 * np.abs(X[:, d - 1] - 3.5)
        + 0.6 * X[:, 0] * (X[:, half] > 3)
    )
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    return X, y


def write_csv(path: Path, X, y=None) -> None:
    half = X.shape[1] // 2
    header = [f"x{j + 1}" for j in range(X.shape[1])] + (["label"] if y is not None else [])
    lines = [",".join(header)]
    for i, row in enumerate(X):
        cells = [repr(float(v)) for v in row[:half]] + [str(int(v)) for v in row[half:]]
        if y is not None:
            cells.append(str(int(y[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare(workload: Workload, seed: int, dest: Path) -> None:
    """Write every input the workload needs into dest: data.csv, rows.csv and,
    when the workload reads a saved model, fit.csv and the model.json that
    `gradboost train` makes from it."""
    cli = import_gradboost().cli
    rng = np.random.default_rng([seed, workload.stream])
    dest.mkdir(parents=True, exist_ok=True)
    X, y = sample(rng, workload.data_rows, workload.d)
    write_csv(dest / "data.csv", X, y if workload.labeled else None)
    X, _ = sample(rng, SINGLE_ROWS, workload.d)
    write_csv(dest / "rows.csv", X)
    if workload.fit_rows:
        X, y = sample(rng, workload.fit_rows, workload.d)
        write_csv(dest / "fit.csv", X, y)
        argv = ["train", "--data", str(dest / "fit.csv"), *workload.fit_args,
                "--out", str(dest / "model.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"error: set-up `gradboost {' '.join(argv)}` exited {status}")
