"""Properties of training and the model file over generated data sets.

Runs derandomized with a bounded number of examples, so every run checks the
same cases and the suite stays fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import (
    Dataset,
    Leaf,
    Model,
    RegressionTree,
    Split,
    TrainConfig,
    deserialize_model,
    serialize_model,
    train,
)
from gradboost.tree import MAX_TREE_DEPTH

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


def _leaf_of(node, x):
    """The leaf row x reaches in the hand-built form of a tree."""
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node


def _assert_batch_matches_rows(model, X):
    """predict_raw_batch equals predict_raw row by row under float.hex, and each
    tree's leaf_assignment equals grouping the rows by apply, which in turn
    agrees with walking the tree's Split/Leaf form."""
    batch = model.predict_raw_batch(X)
    assert [v.hex() for v in batch.tolist()] == [model.predict_raw(x).hex() for x in X]
    for tree in model.trees:
        expected = {leaf.leaf_id: [] for leaf in tree.leaves()}
        for i, x in enumerate(X):
            leaf = _leaf_of(tree.root, x)
            assert tree.apply(x) == (leaf.leaf_id, leaf.value)
            expected[leaf.leaf_id].append(i)
        groups = tree.leaf_assignment(X)
        assert list(groups) == list(expected)
        for leaf_id, members in groups.items():
            assert members.dtype == np.intp
            assert members.tolist() == expected[leaf_id]


@BOUNDED
@given(training_runs(), st.data())
def test_batch_scores_equal_per_row_scores_on_trained_models(run, data):
    dataset, config = run
    model, _ = train(dataset, config)
    # rows whose cells sit exactly on the model's thresholds, or between them
    thresholds = [
        {t for tree in model.trees for t in tree.threshold[tree.feature == f].tolist()}
        for f in range(dataset.n_features)
    ]
    cells = [sorted({-1.0, 2.0, 5.0} | ts) for ts in thresholds]
    on_thresholds = data.draw(
        st.lists(st.tuples(*(st.sampled_from(c) for c in cells)), min_size=1, max_size=12)
    )
    X = np.vstack([dataset.features, np.array(on_thresholds, dtype=float)])
    _assert_batch_matches_rows(model, X)


def _chain(values):
    """A one-feature tree of len(values) - 1 splits down its right side: a row
    x goes left at the first threshold k + 0.5 with x <= k + 0.5."""
    depth = len(values) - 1
    node = Leaf(depth + 1, values[depth])
    for k in range(depth - 1, -1, -1):
        node = Split(0, k + 0.5, Leaf(k + 1, values[k]), node)
    return RegressionTree(node, 1)


@BOUNDED
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-2, 2 * MAX_TREE_DEPTH + 2), min_size=1, max_size=20),
)
def test_batch_scores_equal_per_row_scores_on_a_depth_limit_chain(seed, halves):
    rng = np.random.default_rng(seed)
    tree = _chain(rng.normal(size=MAX_TREE_DEPTH + 1).tolist())
    assert tree.depth() == MAX_TREE_DEPTH
    # odd halves sit exactly on a threshold, even ones between two
    X = np.array(halves, dtype=float).reshape(-1, 1) / 2.0
    _assert_batch_matches_rows(Model((tree, tree), 0.3, 1), X)


@BOUNDED
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0]), min_size=1, max_size=10),
)
def test_batch_scores_equal_per_row_scores_with_a_repeated_leaf_id(values, xs):
    # a hand-built tree may reuse a leaf id; its rows form one merged group
    inner = Split(0, 1.5, Leaf(1, values[0]), Leaf(2, values[1]))
    tree = RegressionTree(Split(0, 2.5, inner, Leaf(1, values[2])), 1)
    X = np.array(xs).reshape(-1, 1)
    _assert_batch_matches_rows(Model((tree, _chain(values)), 0.1, 1), X)
