"""The trace CSV writer against a csv.writer reference, byte for byte.

cli.write_trace writes each round's residual table from numpy digits, or
with one % over its cells when it cannot prove them; the reference below is
the plain csv.writer form it replaced, kept here as the oracle.  The
properties run derandomized with a bounded number of examples.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradboost import Dataset, IterationRecord, TrainConfig, TrainingTrace, load_csv, load_model, replay, train
from gradboost import cli
from gradboost.cli import _residual_digits, main, write_trace

from conftest import write_csv


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
        write_csv(dataset, data)
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


def _hand_built(labels, *priors):
    """A one-feature data set of these labels, and a trace of one round per
    prior_probs array over it, built directly: no leaves, scores of 0."""
    labels = np.array(labels, dtype=float)
    dataset = Dataset(np.arange(labels.size, dtype=float)[:, None], labels, ("x",))
    records = [
        IterationRecord(m, dataset.labels, np.array(prior), np.zeros(labels.size), np.array(prior), ())
        for m, prior in enumerate(priors, start=1)
    ]
    return dataset, TrainingTrace(tuple(records))


# p_prev values at and beside the cases the digit routine must refuse or get
# right: 0 and 1, every j/128 (an exact tie in millionths when j is odd),
# values that round up to 1.000000, near-ties at 0.5 and 1.5 millionths, subnormals
EDGES = (0.0, 1.0, *(j / 128 for j in range(129)), 0.9999995, 1 - 4e-7, 5e-7, 1.5e-6, 5e-324, 2.2e-308)
PRIORS = st.one_of(
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda v: float(np.nextafter(v, -1.0))),  # -5e-324 beside 0.0
    st.sampled_from(EDGES).map(lambda v: float(np.nextafter(v, 2.0))),  # past 1.0 beside 1.0
    st.floats(0.0, 1.0),
    st.sampled_from([-0.0, 10.5, float("nan")]),  # only a hand-built record holds these
)


@st.composite
def hand_built_traces(draw):
    """Labels of one class or both (a 0 label may be -0.0, so that r = -0.0
    where p_prev = 0.0, and r = +0.0 on a +0.0 label), and rounds of drawn
    p_prev values."""
    n = draw(st.integers(1, 6))
    classes = draw(st.sampled_from([(0.0,), (1.0,), (0.0, -0.0, 1.0)]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    rounds = draw(st.lists(st.lists(PRIORS, min_size=n, max_size=n), min_size=1, max_size=3))
    return _hand_built(labels, *rounds)


@settings(max_examples=60)
@given(hand_built_traces())
@example(_hand_built([0.0, 1.0], [1 / 128, 0.5]))  # a tie, formatted with %
@example(_hand_built([0.0, 1.0], [0.25, 0.75]))  # digits from numpy
@example(_hand_built([0.0, -0.0, 1.0], [0.0, 0.0, 1.0]))  # r = +0.0 on a 0 label, -0.0, +0.0
@example(_hand_built([1.0, 1.0], [-5e-324, 0.5], [10.5, float("nan")]))  # a signed p_prev, |x| > 1, NaN
def test_the_digits_and_the_fallback_match_the_reference_writer(run):
    dataset, trace = run
    fh = io.StringIO()
    write_trace(fh, dataset, trace)
    assert fh.getvalue() == _reference_text(dataset, trace)


def test_every_audit_replay_round_takes_the_digits_and_a_tie_falls_back(
    bench_workloads, tmp_path, monkeypatch
):
    """write_trace writes all the seed-0 audit-replay trace's rounds from
    numpy digits, so a change that sends every round to % fails here, not
    only in the benchmark.  A p_prev of exactly 1/128 is 7812.5 millionths:
    rounding half up would print 0.007813 where %.6f rounds half to even,
    0.007812."""
    workload = bench_workloads.WORKLOADS["audit-replay"]
    bench_workloads.prepare(workload, bench_workloads.DEFAULT_SEED, tmp_path)
    dataset = load_csv(str(tmp_path / "data.csv"), expect_labels=True)
    trace = replay(load_model(str(tmp_path / "model.json")), dataset)
    taken = []  # per call of write_trace's _residual_digits, whether it gave digits

    def residual_digits(*args):
        digits = _residual_digits(*args)
        taken.append(digits is not None)
        return digits

    monkeypatch.setattr(cli, "_residual_digits", residual_digits)
    write_trace(io.StringIO(), dataset, trace)
    assert taken == [True] * 100

    dataset, trace = _hand_built([0.0, 1.0], [1 / 128, 0.5])
    (record,) = trace.records
    assert np.floor(1 / 128 * 1e6 + 0.5) == 7813
    assert _residual_digits(record.prior_probs, record.residuals, dataset.labels == 0.0) is None
    fh = io.StringIO()
    write_trace(fh, dataset, trace)
    assert fh.getvalue() == _reference_text(dataset, trace)
    assert "1,0.000000,0,0.007812,-0.007812\n" in fh.getvalue()


@pytest.mark.parametrize(
    "dataset, message",
    [
        (Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]), ("x",)), "the trace is of 3 rows, the data set of 2"),
        (Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.0]), ("x",)),
         "the trace's labels differ from the data set's"),
        (Dataset(np.array([[1.0], [2.0], [3.0]]), None, ("x",)), "a trace is written over a labeled data set"),
    ],
    ids=["fewer-rows", "other-labels", "no-labels"],
)
def test_a_data_set_that_is_not_the_traces_is_refused_before_any_write(dataset, message):
    _, trace = train(EMPTY_SIDE, TrainConfig(n_trees=2))
    fh = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_trace(fh, dataset, trace)
    assert fh.getvalue() == ""
