import copy
import csv
import importlib.util
import pickle
import signal
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gradboost import Dataset, Leaf, Split, TrainConfig, booster, train

# Every property test runs the same examples on every run, with no time limit,
# and writes no example database; a settings(...) call names only what differs.
settings.register_profile("gradboost", derandomize=True, deadline=None, database=None)
settings.load_profile("gradboost")

# the most seconds one test may run: far above the slowest test and the suite's
# 120 s subprocess timeouts, so only a hang reaches it
TEST_TIME_LIMIT = 300

SIX_CSV = """x,label
1.3,1
1.5,0
3.0,1
4.0,0
6.5,1
8.4,0
"""

REFERENCE_SPLITS = ((0, 3.5), (0, 2.25), (0, 5.25))

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _two_pass_sse(values):
    """Plain mean-centered sum of squares, as a slow reference."""
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def exhaustive_best(features, residuals, idx, min_count=1):
    """Brute-force split search of the rows idx, used to cross-check the fast
    implementation: (feature, threshold, sse) or None.

    Tie-break mirrors the production rule: strictly better SSE wins, so the
    first candidate visited (lowest feature index, then lowest threshold)
    survives ties.
    """
    best = None
    for f in range(features.shape[1]):
        xs = sorted({features[i, f] for i in idx})
        for lo, hi in zip(xs, xs[1:]):
            threshold = (lo + hi) / 2.0
            left = [residuals[i] for i in idx if features[i, f] <= threshold]
            right = [residuals[i] for i in idx if features[i, f] > threshold]
            if len(left) < min_count or len(right) < min_count:
                continue
            sse = _two_pass_sse(left) + _two_pass_sse(right)
            if best is None or sse < best[2]:
                best = (f, threshold, sse)
    if best is None:
        return None
    node = _two_pass_sse([residuals[i] for i in idx])
    return best if best[2] < node else None


@st.composite
def growth_cases(draw, max_rows):
    """Up to max_rows rows of one to three columns, each continuous or integers
    0..3 with many ties; residuals continuous or tied at +-0.5; depth 1..4
    and min_leaf 1..3."""
    n = draw(st.integers(1, max_rows))
    continuous, tied = st.floats(-10.0, 10.0), st.integers(0, 3).map(float)
    kinds = draw(st.lists(st.sampled_from((continuous, tied)), min_size=1, max_size=3))
    X = np.array([draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]).T
    residual = draw(st.sampled_from((st.floats(-1.0, 1.0), st.sampled_from((-0.5, 0.5)))))
    r = np.array(draw(st.lists(residual, min_size=n, max_size=n)))
    return X, r, draw(st.integers(1, 4)), draw(st.integers(1, 3))


def right_chain(values):
    """The root of a one-feature tree of len(values) - 1 splits down its right
    side: split k cuts at k + 0.5, so leaf j, of value values[j - 1], takes the
    rows x in (j - 1.5, j - 0.5].  The root, not a RegressionTree, so a chain
    past MAX_TREE_DEPTH can be built and then refused."""
    node = Leaf(len(values), values[-1])
    for k in range(len(values) - 2, -1, -1):
        node = Split(0, k + 0.5, Leaf(k + 1, values[k]), node)
    return node


def left_chain(values):
    """right_chain's mirror, its splits down the left side: each leaf takes the
    same rows, and split k, cutting at k + 0.5, is the parent of leaf k + 2."""
    node = Leaf(1, values[0])
    for k in range(len(values) - 1):
        node = Split(0, k + 0.5, node, Leaf(k + 2, values[k + 1]))
    return node


def tree_depth(tree):
    """The most splits on any root-to-leaf path, folded from the tree's columns
    without recursion, so independent of its stored depth and safe at any depth."""
    return tree.fold(lambda *_: 0, lambda feature, threshold, left, right: 1 + max(left, right))


def tree_leaves(tree):
    """The tree's leaves as Leafs, left to right, folded from its columns."""
    return tree.fold(lambda *leaf: [Leaf(*leaf)], lambda feature, threshold, left, right: left + right)


def write_csv(dataset, path):
    """Write dataset as load_csv reads it and return path: a header of its
    feature names, and "label" when it has labels, then one line per row, the
    features in repr's shortest round-trip form and each label as 0 or 1."""
    header, rows = list(dataset.feature_names), dataset.features.tolist()
    if dataset.labels is not None:
        header.append("label")
        rows = [[*row, int(label)] for row, label in zip(rows, dataset.labels.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


# a value as it is and as each way of copying it returns it
COPIES = {
    "as-is": lambda value: value,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def assert_frozen_over_bytes(array):
    """No flag makes array writable, and its chain of bases holds only
    read-only arrays and ends at a bytes object, which nothing can write."""
    with pytest.raises(ValueError, match="WRITEABLE"):
        array.setflags(write=True)
    while isinstance(array, np.ndarray):
        assert not array.flags.writeable
        array = array.base
    assert type(array) is bytes


# two rows of one feature that are not numbers, each with the dtype it is refused by
NOT_NUMBERS = [
    pytest.param([["1.5"], ["2.5"]], "<U3", id="strings"),
    pytest.param([[True], [False]], "bool", id="bools"),
    pytest.param(np.array([[0.5], [1.5]], dtype=object), "object", id="objects"),
]


@pytest.fixture(autouse=True)
def time_limit():
    """Fails a test that runs past TEST_TIME_LIMIT seconds with a TimeoutError
    and its traceback, so a hang costs that one test and the rest still run.
    Where there is no SIGALRM, a test runs with no limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        # and again each second after: hypothesis catches the error and runs
        # the hanging example again while it shrinks, and only a fresh alarm
        # stops that run too
        signal.alarm(1)
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def six_points():
    """Six univariate instances with alternating labels."""
    return Dataset(
        features=np.array([[1.3], [1.5], [3.0], [4.0], [6.5], [8.4]]),
        labels=np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
        feature_names=("x",),
    )


@pytest.fixture(scope="session")
def reference_run(six_points):
    """Three forced stumps at thresholds 3.5, 2.25, 5.25 with learning rate 0.1."""
    config = TrainConfig(n_trees=3, learning_rate=0.1, forced_splits=REFERENCE_SPLITS)
    return train(six_points, config)


@pytest.fixture
def no_round(monkeypatch):
    """Makes any boosting round fail the test: a round sums its leaves'
    Newton terms through booster.leaf_value_terms."""

    def leaf_value_terms(*args):
        raise AssertionError("a boosting round ran")

    monkeypatch.setattr(booster, "leaf_value_terms", leaf_value_terms)


@pytest.fixture
def bench_workloads(monkeypatch):
    """bench/workloads.py, loaded from its file: the benchmark's seeded inputs
    (prepare) and the CLI call of each workload.  Only reads bench/."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it puts src/ first
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def six_csv(tmp_path):
    path = tmp_path / "six_points.csv"
    path.write_text(SIX_CSV, encoding="utf-8")
    return path
