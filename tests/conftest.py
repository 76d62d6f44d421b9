import numpy as np
import pytest

from gradboost import Dataset, TrainConfig, booster, train

SIX_CSV = """x,label
1.3,1
1.5,0
3.0,1
4.0,0
6.5,1
8.4,0
"""

REFERENCE_SPLITS = ((0, 3.5), (0, 2.25), (0, 5.25))

# two rows of one feature that are not numbers, each with the dtype it is refused by
NOT_NUMBERS = [
    pytest.param([["1.5"], ["2.5"]], "<U3", id="strings"),
    pytest.param([[True], [False]], "bool", id="bools"),
    pytest.param(np.array([[0.5], [1.5]], dtype=object), "object", id="objects"),
]


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
def six_csv(tmp_path):
    path = tmp_path / "six_points.csv"
    path.write_text(SIX_CSV, encoding="utf-8")
    return path
