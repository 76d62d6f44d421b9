"""Properties of training and the model file over generated data sets.

Runs derandomized with a bounded number of examples, so every run checks the
same cases and the suite stays fast.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
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
        {
            t
            for tree in model.trees
            for t in np.asarray(tree.threshold)[np.asarray(tree.feature) == f].tolist()
        }
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
    _assert_batch_matches_rows(Model((tree, tree), 0.3, 1, ("x",)), X)


def _node_to_dict(node):
    """The recursive Split/Leaf writer serialize_model's trees must match."""
    if isinstance(node, Leaf):
        return {"leaf_id": node.leaf_id, "gamma": node.value}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _reference_text(model):
    document = {
        "format_version": 1,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(tree.root) for tree in model.trees],
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _assert_one_stored_form(model):
    """Each tree equals, and hashes as, the tree rebuilt from its root, and
    with_leaf_values({}); the model file matches the recursive writer."""
    for tree in model.trees:
        for copy in (RegressionTree(tree.root, tree.n_features), tree.with_leaf_values({})):
            assert copy is not tree
            assert copy == tree and hash(copy) == hash(tree)
    assert serialize_model(model) == _reference_text(model)


@BOUNDED
@given(training_runs(), st.booleans())
def test_trees_rebuild_equal_from_their_root_on_trained_models(run, stumps):
    dataset, config = run
    if stumps:
        thresholds = sorted(set(dataset.features[:, 0].tolist()))
        forced = tuple((0, thresholds[m % len(thresholds)]) for m in range(config.n_trees))
        config = dataclasses.replace(config, max_depth=1, forced_splits=forced)
    model, _ = train(dataset, config)
    _assert_one_stored_form(model)


def _left_chain(values):
    """A one-feature tree of len(values) - 1 splits down its left side."""
    node = Leaf(1, values[0])
    for k in range(1, len(values)):
        node = Split(0, len(values) - k - 0.5, node, Leaf(k + 1, values[k]))
    return RegressionTree(node, 1)


@pytest.mark.parametrize("shape", ["left-chain", "depth-limit-chain"])
def test_trees_rebuild_equal_from_their_root_on_hand_built_trees(shape):
    values = np.random.default_rng(7).normal(size=MAX_TREE_DEPTH + 1).tolist()
    tree = _left_chain(values) if shape == "left-chain" else _chain(values)
    assert tree.depth() == MAX_TREE_DEPTH
    _assert_one_stored_form(Model((tree,), 0.1, 1, ("x",)))


@st.composite
def hand_built_models(draw):
    """A model of up to three hand-built trees at most four splits deep, with
    finite thresholds and values, leaf ids numbered left to right, and any
    learning rate in (0, 1] and feature names."""
    n_features = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def node(depth, leaf_ids):
        if depth == 4 or not draw(st.booleans()):
            return Leaf(next(leaf_ids), draw(finite))
        feature, threshold = draw(st.integers(0, n_features - 1)), draw(finite)
        # the left subtree is built first, so it takes the lower leaf ids
        return Split(feature, threshold, node(depth + 1, leaf_ids), node(depth + 1, leaf_ids))

    n_trees = draw(st.integers(0, 3))
    trees = tuple(RegressionTree(node(0, itertools.count(1)), n_features) for _ in range(n_trees))
    learning_rate = draw(st.floats(0.0, 1.0, exclude_min=True))
    names = draw(st.lists(st.text(max_size=4), min_size=n_features, max_size=n_features))
    return Model(trees, learning_rate, n_features, tuple(names))


@BOUNDED
@given(hand_built_models())
def test_every_model_that_can_be_built_round_trips(model):
    text = serialize_model(model)
    loaded = deserialize_model(text)
    assert loaded == model
    assert serialize_model(loaded) == text


_STUMP = RegressionTree(Split(0, 0.5, Leaf(1, 1.0), Leaf(2, -1.0)), 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Model((_STUMP,), 0.1, 1, ()),
        lambda: Model((_STUMP,), 0.0, 1, ("x",)),
        lambda: Model((_STUMP,), 2.0, 1, ("x",)),
        lambda: RegressionTree(Split(0, 0.5, Leaf(2, 1.0), Leaf(1, -1.0)), 1),
        lambda: Model((_STUMP,), 0.1, 1, (1,)),
        lambda: _chain([0.0] * 601),
    ],
    ids=[
        "no-feature-names", "learning-rate-zero", "learning-rate-two", "leaf-ids-two-one",
        "name-not-a-string", "600-splits-deep",
    ],
)
def test_a_model_no_file_could_hold_cannot_be_built(build):
    with pytest.raises(ValueError):
        build()
