"""The trace CSV writer against a csv.writer reference, byte for byte.

cli.write_trace joins each round's residual table into one string; the
reference below is the plain csv.writer form it replaced, kept here as the
oracle.  The property runs derandomized with a bounded number of examples.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradboost import Dataset, TrainConfig, load_csv, save_csv, train
from gradboost.cli import main, write_trace


def reference_write_trace(fh, dataset, trace):
    """One csv.writer row per line, every number formatted on its own."""
    writer = csv.writer(fh, lineterminator="\n")
    rows = [
        [i, *(f"{v:.6f}" for v in features), int(label)]
        for i, (features, label) in enumerate(zip(dataset.features, dataset.labels), start=1)
    ]
    for record in trace.records:
        writer.writerow([f"iteration {record.iteration}"])
        writer.writerow(["index", *dataset.feature_names, "y", "p_prev", "r"])
        for row, prior, residual in zip(rows, record.prior_probs, record.residuals):
            writer.writerow([*row, f"{prior:.6f}", f"{residual:.6f}"])
        writer.writerow([])
        writer.writerow(["iteration", "leaf_id", "members", "numerator", "denominator", "gamma"])
        for leaf in record.leaves:
            members = " ".join(str(int(i) + 1) for i in leaf.members)
            sums = (f"{v:.6f}" for v in (leaf.numerator, leaf.denominator, leaf.value))
            writer.writerow([record.iteration, leaf.leaf_id, members, *sums])
        writer.writerow([])


def _reference_text(dataset, trace):
    fh = io.StringIO()
    reference_write_trace(fh, dataset, trace)
    return fh.getvalue()


# signed zeros, the extremes of the float range and values that print as
# 0.000000 or need every one of their integer digits
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -1e-7, 4e-7, 1e15, -1.7e308, 1.7976931348623157e308)
NAMES = st.text(alphabet=' ,"x\'', min_size=0, max_size=4)


@st.composite
def traced_runs(draw):
    """A labeled data set with awkward names and values, and a config for it:
    learned trees, or forced stumps whose threshold may leave a side empty."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e3, 1e3), st.integers(0, 3))
    cells = draw(st.lists(values, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    names = tuple(draw(st.lists(NAMES, min_size=d, max_size=d, unique=True)))
    dataset = Dataset(np.array(cells, dtype=float).reshape(n, d), np.array(labels), names)
    n_trees = draw(st.integers(1, 3))
    if draw(st.booleans()):
        column = draw(st.integers(0, d - 1))
        edges = (dataset.features[:, column].min() - 1.0, dataset.features[:, column].max())
        thresholds = st.one_of(st.sampled_from(edges), st.sampled_from(dataset.features[:, column]))
        forced = tuple((column, draw(thresholds)) for _ in range(n_trees))
        return dataset, TrainConfig(n_trees=n_trees, forced_splits=forced)
    return dataset, TrainConfig(n_trees=n_trees, max_depth=draw(st.integers(1, 3)))


ONE_ROW = Dataset(np.array([[-0.0, 1e300]]), np.array([1.0]), ('a "b"', "c, d"))
EMPTY_SIDE = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 0.0, 1.0]), (" x ",))


@settings(max_examples=30)
@given(traced_runs())
@example((ONE_ROW, TrainConfig(n_trees=2)))
@example((EMPTY_SIDE, TrainConfig(n_trees=2, forced_splits=((0, 5.0), (0, 0.5)))))
def test_write_trace_matches_the_reference_writer(run):
    dataset, config = run
    _, trace = train(dataset, config)
    fh = io.StringIO()
    write_trace(fh, dataset, trace)
    assert fh.getvalue() == _reference_text(dataset, trace)


def test_an_empty_leaf_writes_an_empty_member_list():
    _, trace = train(EMPTY_SIDE, TrainConfig(n_trees=1, forced_splits=((0, 5.0),)))
    fh = io.StringIO()
    write_trace(fh, EMPTY_SIDE, trace)
    assert "1,2,,0.000000,0.000000,0.000000\n" in fh.getvalue()


@settings(max_examples=8)
@given(traced_runs())
@example((ONE_ROW, TrainConfig(n_trees=2)))
def test_every_trace_command_writes_the_reference_bytes(run):
    """train --trace, trace --out and trace to stdout all write what the
    reference writer makes of the file's data set and its trained trace."""
    dataset, config = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data, model = str(root / "data.csv"), str(root / "model.json")
        save_csv(dataset, data)
        loaded = load_csv(data, expect_labels=True)
        expected = _reference_text(loaded, train(loaded, config)[1]).encode("utf-8")
        argv = ["train", "--data", data, "--trees", str(config.n_trees), "--max-depth",
                str(config.max_depth), "--out", model, "--trace", str(root / "train.csv")]
        if config.forced_splits:
            pairs = ";".join(f"{f}:{float(t)!r}" for f, t in config.forced_splits)
            argv += ["--force-splits", pairs]
        replay_argv = ["trace", "--model", model, "--data", data]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            assert main([*replay_argv, "--out", str(root / "trace.csv")]) == 0
        with contextlib.redirect_stdout(stdout):
            assert main(replay_argv) == 0
        assert (root / "train.csv").read_bytes() == expected
        assert (root / "trace.csv").read_bytes() == expected
        assert stdout.getvalue().encode("utf-8") == expected
