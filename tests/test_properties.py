"""Properties of training and the model file over generated data sets.

Runs derandomized with a bounded number of examples, so every run checks the
same cases and the suite stays fast.
"""

import dataclasses
import itertools
import json
import pickle
from copy import deepcopy

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
    fit_tree,
    replay,
    serialize_model,
    sigmoid,
    total_loss,
    train,
)
from gradboost.tree import MAX_TREE_DEPTH

from conftest import growth_cases, left_chain, right_chain, tree_depth

BOUNDED = settings(max_examples=25)


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


@pytest.mark.xfail(
    reason="ROADMAP item 2: best_split's cumsum ranks two equal partitions by summation order",
    strict=True,
)
def test_a_column_and_its_complement_split_on_the_column_in_every_row_order():
    a = np.array([1.0, 0.0, 1.0, 1.0])
    features, labels = np.column_stack([a, 3.0 - a]), np.array([0.0, 1.0, 0.0, 1.0])
    config = TrainConfig(n_trees=3, max_depth=1, learning_rate=0.5)
    files = set()
    for order in map(list, itertools.permutations(range(4))):
        model, _ = train(Dataset(features[order], labels[order], ("a", "b")), config)
        assert [tree.feature[0] for tree in model.trees] == [0, 0, 0]
        files.add(serialize_model(model))
    assert len(files) == 1


@BOUNDED
@given(training_runs())
def test_model_file_round_trip_is_byte_stable(run):
    model, _ = train(*run)
    text = serialize_model(model)
    assert serialize_model(deserialize_model(text)) == text


@settings(max_examples=150)
@given(growth_cases(40))
def test_fit_tree_returns_the_rows_leaf_assignment_routes(case):
    """The rows the grower hands back for each leaf are the rows routing the
    data through the grown tree sends there: same order, dtype and values,
    none empty, together every row once."""
    X, r, max_depth, min_leaf = case
    tree, leaf_rows = fit_tree(X, r, max_depth=max_depth, min_leaf=min_leaf)
    routed = list(tree.leaf_assignment(X).values())
    assert len(leaf_rows) == len(routed) == tree.n_leaves
    for rows, members in zip(leaf_rows, routed):
        assert rows.dtype == members.dtype == np.intp
        assert np.array_equal(rows, members)
        assert rows.size > 0
    assert np.array_equal(np.sort(np.concatenate(leaf_rows)), np.arange(len(X)))


def _leaf_of(node, x):
    """The leaf row x reaches in the hand-built form of a tree."""
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node


def _assert_batch_matches_rows(model, X):
    """predict_raw_batch equals predict_raw row by row under float.hex, and its
    sigmoid equals predict_proba, so scalar and array sigmoid agree; each
    tree's leaf_assignment equals grouping the rows by apply, which in turn
    agrees with walking the tree's Split/Leaf form."""
    batch = model.predict_raw_batch(X)
    assert [v.hex() for v in batch.tolist()] == [model.predict_raw(x).hex() for x in X]
    probs = sigmoid(batch)
    assert [p.hex() for p in probs.tolist()] == [model.predict_proba(x).hex() for x in X]
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


def _rows_on_thresholds(data, model, dataset):
    """The data set's rows, then rows whose cells sit exactly on the model's
    thresholds for their feature, or between them."""
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
    return np.vstack([dataset.features, np.array(on_thresholds, dtype=float)])


@BOUNDED
@given(training_runs(), st.data())
def test_batch_scores_equal_per_row_scores_on_trained_models(run, data):
    dataset, config = run
    model, _ = train(dataset, config)
    _assert_batch_matches_rows(model, _rows_on_thresholds(data, model, dataset))


@BOUNDED
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-2, 2 * MAX_TREE_DEPTH + 2), min_size=1, max_size=20),
)
def test_batch_scores_equal_per_row_scores_on_a_depth_limit_chain(seed, halves):
    rng = np.random.default_rng(seed)
    tree = RegressionTree(right_chain(rng.normal(size=MAX_TREE_DEPTH + 1).tolist()), 1)
    assert tree_depth(tree) == MAX_TREE_DEPTH
    # odd halves sit exactly on a threshold, even ones between two
    X = np.array(halves, dtype=float).reshape(-1, 1) / 2.0
    _assert_batch_matches_rows(Model((tree, tree), 0.3, 1, ("x",)), X)


def _assert_walk_is_the_in_order_sum(model, X):
    """predict_raw of each row equals, under float.hex, learning_rate times each
    tree's apply value, summed from 0.0 in tree order."""
    for x in X:
        expected = 0.0
        for tree in model.trees:
            expected += model.learning_rate * tree.apply(x)[1]
        assert model.predict_raw(x).hex() == expected.hex()


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
    with_leaf_values of its own leaf values; the model file matches the
    recursive writer."""
    for tree in model.trees:
        values = [leaf.value for leaf in tree.leaves()]
        for copy in (RegressionTree(tree.root, tree.n_features), tree.with_leaf_values(values)):
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
        config = dataclasses.replace(config, max_depth=1, min_leaf=1, forced_splits=forced)
    model, _ = train(dataset, config)
    _assert_one_stored_form(model)


@pytest.mark.parametrize("shape", ["left-chain", "depth-limit-chain"])
def test_trees_rebuild_equal_from_their_root_on_hand_built_trees(shape):
    values = np.random.default_rng(7).normal(size=MAX_TREE_DEPTH + 1).tolist()
    tree = RegressionTree((left_chain if shape == "left-chain" else right_chain)(values), 1)
    assert tree_depth(tree) == MAX_TREE_DEPTH
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
        lambda: RegressionTree(right_chain([0.0] * 601), 1),
    ],
    ids=[
        "no-feature-names", "learning-rate-zero", "learning-rate-two", "leaf-ids-two-one",
        "name-not-a-string", "600-splits-deep",
    ],
)
def test_a_model_no_file_could_hold_cannot_be_built(build):
    with pytest.raises(ValueError):
        build()


@st.composite
def traced_runs(draw):
    """A labeled data set of ties and spread-out values, and a config for it:
    grown trees, or forced stumps whose thresholds may lie outside the data's
    range, so that some leaves hold no row."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    cell = st.integers(0, 4).map(float) | st.floats(-50.0, 50.0)
    cells = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    n_trees = draw(st.integers(1, 5))
    forced = None
    if draw(st.booleans()):
        threshold = st.sampled_from([-1e3, -50.5, 50.5, 1e3]) | st.floats(-60.0, 60.0)
        pair = st.tuples(st.integers(0, d - 1), threshold)
        forced = tuple(draw(st.lists(pair, min_size=n_trees, max_size=n_trees)))
    config = TrainConfig(
        n_trees=n_trees,
        learning_rate=draw(st.floats(0.0, 1.0, exclude_min=True)),
        max_depth=1 if forced else draw(st.integers(1, 3)),
        min_leaf=1 if forced else draw(st.integers(1, 3)),
        forced_splits=forced,
    )
    features = np.array(cells, dtype=float).reshape(n, d)
    return Dataset(features, np.array(labels), tuple(f"f{j}" for j in range(d))), config


def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).tolist()]


def _assert_records_chain(trace, model, dataset):
    """Each record starts from the one before it (zero scores, even odds in
    round 1), advances by learning_rate times its leaves' values, and holds
    the probabilities and loss of its own scores."""
    n = dataset.n_rows
    scores, probs = np.zeros(n), None
    for m, (record, tree) in enumerate(zip(trace.records, model.trees), start=1):
        assert record.iteration == m and record.labels is dataset.labels
        if probs is None:
            assert _hex(record.prior_probs) == [(0.5).hex()] * n
        else:
            assert record.prior_probs is probs
        expected = scores.copy()
        for leaf_record, leaf in zip(record.leaves, tree.leaves()):
            assert float(leaf_record.value).hex() == float(leaf.value).hex()
            expected[leaf_record.members] += model.learning_rate * leaf.value
        assert _hex(record.scores) == _hex(expected)
        assert _hex(record.probs) == _hex(sigmoid(record.scores))
        assert record.total_loss.hex() == total_loss(dataset.labels, record.scores).hex()
        scores, probs = record.scores, record.probs


@settings(max_examples=60)
@given(traced_runs())
def test_train_trace_is_the_replay_trace_bit_for_bit(run):
    dataset, config = run
    model, trained = train(dataset, config)
    replayed = replay(model, dataset)
    assert len(trained.records) == len(replayed.records) == config.n_trees
    for trace in (trained, replayed):
        _assert_records_chain(trace, model, dataset)
    for got, want, tree in zip(replayed.records, trained.records, model.trees):
        for name in ("prior_probs", "scores", "probs", "residuals"):
            assert _hex(getattr(got, name)) == _hex(getattr(want, name))
        assert np.array_equal(got.leaf_ids, want.leaf_ids)
        assert got.total_loss.hex() == want.total_loss.hex()
        assert len(got.leaves) == len(want.leaves) == tree.n_leaves
        for g, w in zip(got.leaves, want.leaves):
            assert g.leaf_id == w.leaf_id
            assert g.members.dtype == w.members.dtype and np.array_equal(g.members, w.members)
            assert _hex([g.numerator, g.denominator, g.value]) == _hex(
                [w.numerator, w.denominator, w.value]
            )
        if config.forced_splits is None:  # each tree was grown on its round's residuals
            grown, _ = fit_tree(
                dataset.features, want.residuals,
                max_depth=config.max_depth, min_leaf=config.min_leaf,
            )
            assert grown.with_leaf_values([w.value for w in want.leaves]) == tree


@settings(max_examples=40)
@given(traced_runs(), st.data())
def test_single_row_score_is_the_in_order_sum_on_trained_models(run, data):
    dataset, config = run
    model, _ = train(dataset, config)
    _assert_walk_is_the_in_order_sum(model, _rows_on_thresholds(data, model, dataset))


@BOUNDED
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-2, 2 * MAX_TREE_DEPTH + 2), min_size=1, max_size=20),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_single_row_score_is_the_in_order_sum_on_a_depth_limit_chain(seed, halves, rate):
    rng = np.random.default_rng(seed)
    chain = RegressionTree(right_chain(rng.normal(size=MAX_TREE_DEPTH + 1).tolist()), 1)
    stump = RegressionTree(Split(0, 3.5, Leaf(1, rng.normal()), Leaf(2, rng.normal())), 1)
    # odd halves sit exactly on a threshold, even ones between two
    X = np.array(halves, dtype=float).reshape(-1, 1) / 2.0
    _assert_walk_is_the_in_order_sum(Model((chain, stump, chain), rate, 1, ("x",)), X)


@BOUNDED
@given(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=3),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_a_model_of_no_trees_scores_zero_at_even_odds(row, rate):
    model = Model((), rate, len(row), tuple(f"f{j}" for j in range(len(row))))
    _assert_walk_is_the_in_order_sum(model, [row])
    assert model.predict_raw(row).hex() == (0.0).hex()
    assert model.predict_proba(row) == 0.5


def test_a_model_of_the_deepest_chain_copies_pickles_and_converts_after_scoring():
    values = np.random.default_rng(3).normal(size=MAX_TREE_DEPTH + 1).tolist()
    chain = RegressionTree(right_chain(values), 1)
    model = Model((chain, chain), 0.5, 1, ("x",))
    score = model.predict_raw([600.0])
    for clone in (deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert clone is not model and "_walks" not in vars(clone)
        assert clone == model and hash(clone) == hash(model)
        assert clone.predict_raw([600.0]).hex() == score.hex()
    as_dict = dataclasses.asdict(model)
    assert [tree["threshold"] for tree in as_dict["trees"]] == [chain.threshold] * 2
