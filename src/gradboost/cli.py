"""Command-line interface: train / predict / trace.

Exit codes: 0 success, 2 bad arguments, 3 data validation failure,
4 I/O or unreadable model file, 5 unsupported model format version.
Output CSVs print numbers with 6 decimal places and 1-based row indices;
the model file alone stores full-precision floats.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import sys

import numpy as np

from .booster import (
    Model,
    ModelFormatError,
    ModelVersionError,
    TrainConfig,
    TrainingTrace,
    load_model,
    replay,
    save_model,
    train,
    valid_threshold,
)
from .dataset import DataError, Dataset, EmptyDatasetError, load_csv
from .leaf_values import sigmoid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_MODEL_VERSION = 5

# rows of the prediction CSV formatted into one string per write
PREDICTION_BLOCK_ROWS = 1024

# The first class an error is an instance of decides the exit code, so every
# subclass comes before its base: DataError is a ValueError, and the only
# other ValueErrors that reach main are bad command-line values.
EXIT_CODES = (
    (ModelVersionError, EXIT_MODEL_VERSION),
    (ModelFormatError, EXIT_IO),
    (OSError, EXIT_IO),
    (DataError, EXIT_DATA),
    (ValueError, EXIT_USAGE),
)

# Each line boundary str.splitlines knows, mapped to its Python escape, so an
# error message naming a path or a header cell stays on one stderr line.
LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def write_predictions(fh, model: Model, features, threshold: float) -> None:
    """Prediction CSV: index,raw_score,probability,label (indices 1-based), a row
    per row of the feature matrix; a matrix of no rows writes the header alone.

    No cell needs CSV quoting, so each block of PREDICTION_BLOCK_ROWS rows is
    formatted with one % over its cells, 4 per row, and written at once.
    """
    threshold = valid_threshold(threshold)
    fh.write("index,raw_score,probability,label\n")
    raws = model.predict_raw_batch(features)
    probs = sigmoid(raws)
    labels = probs >= threshold
    for start in range(0, len(raws), PREDICTION_BLOCK_ROWS):
        stop = min(start + PREDICTION_BLOCK_ROWS, len(raws))
        # a list per block, not per call: the cells of 10,000 rows are ~1 MB of Python objects
        cells = [None] * (4 * (stop - start))
        cells[0::4], cells[1::4] = range(start + 1, stop + 1), raws[start:stop].tolist()
        cells[2::4], cells[3::4] = probs[start:stop].tolist(), labels[start:stop].tolist()
        fh.write("%d,%.6f,%.6f,%d\n" * (stop - start) % tuple(cells))


# Why a residual-table digit from _residual_digits is %.6f's digit.  Take |x|
# <= 1 and t = |x| * 1e6 in floating point: 10**6 is exact in binary and t is
# below 2**20, so t is within 6e-11 of the exact product.  t + 0.5 rounds by at
# most as much again, and floor is exact, so floor(t + 0.5) is the product
# rounded half up, which is %.6f's correctly rounded, round-half-even result
# unless the product lies within ~2e-10 of a half-integer.  A round with a t
# closer than HALF_INTEGER_MARGIN to one, on either side, is formatted with %
# instead: an exact tie such as 1/128 (7812.5 millionths) among them.
HALF_INTEGER_MARGIN = 1e-7
# the place value of each of a cell's 7 digits, d.dddddd
DIGIT_PLACES = 10 ** np.arange(6, -1, -1)
# where the 7 digits of a d.dddddd cell lie, counted from the byte after it
DIGIT_OFFSETS = np.array([-8, -6, -5, -4, -3, -2, -1], dtype=np.intp)


def _residual_digits(prior_probs, residuals, negative):
    """The digits %.6f prints for each row's p_prev and r cells, as an (n, 2,
    7) integer array; None when they cannot be proven here.

    That is when a cell is not within [-1, 1] (a NaN is not), when a p_prev
    has its sign bit set, when the rows whose r has its sign bit set are not
    exactly those of negative (r = +0.0 on a 0 label, once its p underflowed
    to 0.0), or when a cell lies near a rounding tie (HALF_INTEGER_MARGIN).
    """
    magnitudes = np.abs(np.column_stack([prior_probs, residuals]))
    if not (magnitudes <= 1.0).all() or np.signbit(prior_probs).any():
        return None
    if not np.array_equal(np.signbit(residuals), negative):
        return None
    t = magnitudes * 1e6
    if (np.abs(t - np.floor(t) - 0.5) < HALF_INTEGER_MARGIN).any():
        return None
    millionths = np.floor(t + 0.5).astype(np.int64)  # at most 10**6, cast once every cell is in range
    return millionths[:, :, None] // DIGIT_PLACES % 10


def write_trace(fh, dataset: Dataset, trace: TrainingTrace) -> None:
    """Trace CSV: per-iteration sections separated by blank lines.

    Each iteration writes a banner row ("iteration m"), a residual table
    (index, one column per feature, y, p_prev, r), then a leaf table
    (iteration, leaf_id, members, numerator, denominator, gamma).  Instance
    indices and member lists are 1-based; members are space-separated.
    A ValueError, before anything is written, when dataset's labels are not
    the trace's, in row count or in value.

    Only the column header can need CSV quoting (feature names are free
    text); every other cell is a number or a member list.  The residual table
    is formatted once per call with % over 3 cells per row: the row's prefix
    (index, features, label), then p_prev = 0.0 and r = -0.0 on a 0 label,
    0.0 on a 1 label.  Each round copies those bytes and writes its p_prev
    and r digits over the zeros (_residual_digits); a round whose digits
    cannot be proven there is formatted with the same % over its own cells.
    """
    if dataset.labels is None:
        raise ValueError("a trace is written over a labeled data set")
    if trace.records:
        labels = trace.records[0].labels  # the same array in every record
        if labels.shape != dataset.labels.shape:
            raise ValueError(f"the trace is of {labels.size} rows, the data set of {dataset.n_rows}")
        if not np.array_equal(labels, dataset.labels):
            raise ValueError("the trace's labels differ from the data set's")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(["index", *dataset.feature_names, "y", "p_prev", "r"])
    header = buffer.getvalue()
    # indices[i] is row i's 1-based index, shared by the tables and the member lists
    indices = [str(i) for i in range(1, dataset.n_rows + 1)]
    rows = zip(indices, dataset.features.tolist(), dataset.labels.tolist())
    cells = [None] * (3 * dataset.n_rows)
    cells[0::3] = [
        ",".join([index, *map("{:.6f}".format, features), str(int(label))])
        for index, features, label in rows
    ]
    table = "%s,%.6f,%.6f\n" * dataset.n_rows
    negative = dataset.labels == 0.0  # r = y - p is -p on a 0 label
    cells[1::3], cells[2::3] = [0.0] * dataset.n_rows, np.where(negative, -0.0, 0.0).tolist()
    template = (table % tuple(cells)).encode("ascii")
    # a row's r cell ends at its newline, and its p_prev cell at the comma before r's
    # 8 bytes and, on a 0 label, r's minus sign
    ends = np.flatnonzero(np.frombuffer(template, np.uint8) == ord("\n"))
    digit_at = np.column_stack([ends - 9 - negative, ends])[:, :, None] + DIGIT_OFFSETS
    for record in trace.records:
        fh.write(f"iteration {record.iteration}\n{header}")
        residuals = record.residuals
        digits = _residual_digits(record.prior_probs, residuals, negative)
        if digits is None:
            cells[1::3], cells[2::3] = record.prior_probs.tolist(), residuals.tolist()
            fh.write(table % tuple(cells))
        else:
            text = bytearray(template)
            np.frombuffer(text, np.uint8)[digit_at] = digits + ord("0")
            fh.write(text.decode("ascii"))
        fh.write("\niteration,leaf_id,members,numerator,denominator,gamma\n")
        for leaf in record.leaves:
            members = " ".join(map(indices.__getitem__, leaf.members.tolist()))
            fh.write(
                f"{record.iteration},{leaf.leaf_id},{members},"
                f"{leaf.numerator:.6f},{leaf.denominator:.6f},{leaf.value:.6f}\n"
            )
        fh.write("\n")


def _parse_force_splits(text: str) -> tuple[tuple[int, float], ...]:
    """Parse 'feature:threshold' pairs joined by ';', e.g. '0:3.5;0:2.25'."""
    pairs = []
    for part in text.split(";"):
        feature, _, threshold = part.strip().partition(":")
        try:
            pairs.append((int(feature), float(threshold)))
        except ValueError:
            raise ValueError(
                f"bad --force-splits entry {part.strip()!r}, expected feature:threshold"
            ) from None
    return tuple(pairs)


def _open_output(path):
    """The named file opened for writing, or stdout when no path is given; an
    empty path is a path like any other, which open refuses."""
    if path is not None:
        return open(path, "w", newline="", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def cmd_train(args) -> None:
    forced = None if args.force_splits is None else _parse_force_splits(args.force_splits)
    config = TrainConfig(
        n_trees=args.trees,
        learning_rate=args.learning_rate,
        max_depth=args.max_depth,
        min_leaf=args.min_leaf,
        forced_splits=forced,
    )
    dataset = load_csv(args.data, expect_labels=True)
    model, trace = train(dataset, config)
    if args.out is not None:
        save_model(model, args.out)
    if args.trace is not None:
        with _open_output(args.trace) as fh:
            write_trace(fh, dataset, trace)
    print(f"{trace.final_loss:.6f}")


def cmd_predict(args) -> None:
    threshold = valid_threshold(args.threshold)  # before the model, so a bad value exits 2
    model = load_model(args.model)
    try:
        features = load_csv(args.data, expect_labels=False).features
    except EmptyDatasetError as exc:
        features = exc.features  # header-only input: a matrix of no rows
    model.check_width(features)
    with _open_output(args.out) as fh:
        write_predictions(fh, model, features, threshold)


def cmd_trace(args) -> None:
    model = load_model(args.model)
    dataset = load_csv(args.data, expect_labels=True)
    trace = replay(model, dataset)
    with _open_output(args.out) as fh:
        write_trace(fh, dataset, trace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a build takes about ten
    times as long as a parse, and a parse, failed or not, leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="gradboost",
        description="Train and run gradient boosted stump/tree classifiers over CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit an ensemble on a labeled CSV")
    p_train.add_argument("--data", required=True, help="training CSV; last column must be named 'label'")
    p_train.add_argument(
        "--trees", type=int, default=TrainConfig.n_trees, help="number of boosting iterations"
    )
    p_train.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--max-depth", type=int, default=TrainConfig.max_depth)
    p_train.add_argument("--min-leaf", type=int, default=TrainConfig.min_leaf)
    p_train.add_argument("--out", help="where to write the JSON model")
    p_train.add_argument("--trace", help="where to write the per-iteration trace CSV")
    p_train.add_argument(
        "--force-splits",
        help="'feature:threshold' pairs joined by ';', one per tree; requires depth-1 trees",
    )
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="score a CSV with a saved model")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--data", required=True)
    p_predict.add_argument("--threshold", type=float, default=0.5)
    p_predict.add_argument("--out", help="prediction CSV path (default: stdout)")
    p_predict.set_defaults(func=cmd_predict)

    p_trace = sub.add_parser("trace", help="replay a model's per-iteration bookkeeping on labeled data")
    p_trace.add_argument("--model", required=True)
    p_trace.add_argument("--data", required=True, help="labeled CSV to replay over")
    p_trace.add_argument("--out", help="trace CSV path (default: stdout)")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {str(exc).translate(LINE_BREAKS)}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
