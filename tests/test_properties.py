"""Properties of training and the model file over generated data sets.

Runs derandomized with a bounded number of examples, so every run checks the
same cases and the suite stays fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import Dataset, TrainConfig, deserialize_model, serialize_model, train

BOUNDED = settings(max_examples=25, derandomize=True, deadline=None, database=None)


@st.composite
def training_runs(draw):
    """A small labeled data set on a tie-heavy integer grid, and a config for it."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    config = TrainConfig(
        n_trees=draw(st.integers(1, 4)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_depth=draw(st.integers(1, 3)),
        min_leaf=draw(st.integers(1, 2)),
    )
    names = tuple(f"f{j}" for j in range(d))
    features = np.array(cells, dtype=float).reshape(n, d)
    return Dataset(features, np.array(labels), names), config


@BOUNDED
@given(training_runs(), st.randoms(use_true_random=False))
def test_row_permutation_leaves_the_model_file_unchanged(run, random):
    dataset, config = run
    order = list(range(dataset.n_rows))
    random.shuffle(order)
    shuffled = Dataset(dataset.features[order], dataset.labels[order], dataset.feature_names)
    model, _ = train(dataset, config)
    permuted, _ = train(shuffled, config)
    assert serialize_model(permuted) == serialize_model(model)


@BOUNDED
@given(training_runs())
def test_model_file_round_trip_is_byte_stable(run):
    model, _ = train(*run)
    text = serialize_model(model)
    assert serialize_model(deserialize_model(text)) == text
