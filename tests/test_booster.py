"""End-to-end boosting: config validation, training trace, prediction, replay."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import (
    DataError,
    Dataset,
    Leaf,
    LeafSample,
    Model,
    RegressionTree,
    Split,
    TrainConfig,
    leaf_loss,
    leaf_value_terms,
    newton_step,
    replay,
    sigmoid,
    total_loss,
    train,
)

from conftest import NOT_NUMBERS, assert_frozen_over_bytes, tree_leaves

# Every constant below was produced by an independent arbitrary-precision
# walk of the three forced rounds (thresholds 3.5, 2.25, 5.25, shrinkage 0.1)
# before being frozen here.
ITm_GAMMAS = (
    (0.6666666666666666, -0.6666666666666666),
    (-0.06671606035781406, 0.03335803017890725),
    (-0.03168646634622347, 0.0633732066926308),
)
ITER_LOSSES = (4.095549132925226, 4.0952323498607255, 4.094946486912213)
FINAL_SCORES = (
    0.05682641399626291,
    0.05682641399626291,
    0.06683382304993504,
    -0.06649951028339829,
    -0.056993542979512854,
    -0.056993542979512854,
)
FINAL_PROBS = (
    0.5142027816872875,
    0.5142027816872875,
    0.5167022391509261,
    0.4833812462446024,
    0.48575546987918794,
    0.48575546987918794,
)
ITER_MEMBERS = (
    ((0, 1, 2), (3, 4, 5)),
    ((0, 1), (2, 3, 4, 5)),
    ((0, 1, 2, 3), (4, 5)),
)
X7_RAW = -0.056993542979512854
X7_PROBA = 0.48575546987918794
X1_RAW = 0.05682641399626291


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"max_depth": 0},
            {"min_leaf": 0},
            {"learning_rate": float("nan")},
            {"n_trees": -1},
            {"n_trees": 2, "forced_splits": ((0, 1.0),)},
            {"max_depth": 2, "n_trees": 1, "forced_splits": ((0, 1.0),)},
            # a forced stump's leaves hold whatever rows its split gives them
            {"min_leaf": 4, "n_trees": 3, "forced_splits": ((0, 3.5), (0, 2.25), (0, 5.25))},
            {"max_depth": 513},
            # refused, not coerced: a bool, a fraction or a string is no count
            {"n_trees": True},
            {"n_trees": 2.5},
            {"n_trees": "3"},
            {"learning_rate": True},
            {"learning_rate": "0.5"},
            {"max_depth": 2.5},
            {"max_depth": True},
            {"min_leaf": 1.5},
            {"min_leaf": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_stores_the_learning_rate_as_a_float(self):
        assert type(TrainConfig(learning_rate=1).learning_rate) is float

    @pytest.mark.parametrize(
        "n_trees, forced",
        [(1, (0, 3.5)), (2, ((0, 3.5), 7)), (1, ((0, 3.5, 1),)), (1, 5)],
        ids=["one-flat-pair", "an-integer-entry", "a-triple", "an-integer"],
    )
    def test_names_forced_splits_that_are_not_pairs(self, n_trees, forced):
        with pytest.raises(ValueError, match="forced_splits"):
            TrainConfig(n_trees=n_trees, forced_splits=forced)

    def test_normalizes_forced_splits(self):
        config = TrainConfig(n_trees=1, forced_splits=[[0, 3.5]])
        assert config.forced_splits == ((0, 3.5),)


class TestReferenceRun:
    def test_leaf_values_per_iteration(self, reference_run):
        _, trace = reference_run
        assert len(trace.records) == 3
        for record, expected in zip(trace.records, ITm_GAMMAS):
            got = tuple(leaf.value for leaf in record.leaves)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_first_iteration_table(self, reference_run):
        _, trace = reference_run
        first = trace.records[0]
        np.testing.assert_array_equal(first.prior_probs, np.full(6, 0.5))
        np.testing.assert_array_equal(first.residuals, [0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        np.testing.assert_array_equal(first.leaf_ids, [1, 1, 1, 2, 2, 2])
        left, right = first.leaves
        np.testing.assert_array_equal(left.members, [0, 1, 2])
        np.testing.assert_array_equal(right.members, [3, 4, 5])
        assert (left.numerator, left.denominator) == (0.5, 0.75)
        assert (right.numerator, right.denominator) == (-0.5, 0.75)

    def test_memberships_per_iteration(self, reference_run):
        _, trace = reference_run
        for record, expected in zip(trace.records, ITER_MEMBERS):
            got = tuple(tuple(leaf.members) for leaf in record.leaves)
            assert got == expected

    def test_loss_decreases_every_round(self, reference_run):
        _, trace = reference_run
        losses = [record.total_loss for record in trace.records]
        assert losses == pytest.approx(ITER_LOSSES, abs=1e-12)
        baseline = 6.0 * math.log(2.0)
        assert losses[0] < baseline
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]
        assert trace.final_loss == losses[-1]

    def test_final_scores_and_probs(self, reference_run):
        _, trace = reference_run
        last = trace.records[-1]
        np.testing.assert_allclose(last.scores, FINAL_SCORES, rtol=0, atol=1e-12)
        np.testing.assert_allclose(last.probs, FINAL_PROBS, rtol=0, atol=1e-12)
        np.testing.assert_allclose(last.probs, sigmoid(last.scores), rtol=0, atol=0)

    def test_model_reproduces_training_scores(self, six_points, reference_run):
        model, trace = reference_run
        last = trace.records[-1]
        for i in range(six_points.n_rows):
            raw = model.predict_raw(six_points.features[i])
            assert abs(raw - last.scores[i]) <= 1e-12

    def test_model_metadata(self, reference_run):
        model, _ = reference_run
        assert model.n_features == 1
        assert model.feature_names == ("x",)
        assert model.learning_rate == 0.1
        assert len(model.trees) == 3
        assert [t.root.threshold for t in model.trees] == [3.5, 2.25, 5.25]


class TestPredict:
    def test_unseen_point_above_last_cut(self, reference_run):
        model, _ = reference_run
        x = np.array([7.0])
        assert model.predict_raw(x) == pytest.approx(X7_RAW, abs=1e-12)
        assert model.predict_proba(x) == pytest.approx(X7_PROBA, abs=1e-12)
        assert model.predict_label(x) == 0

    def test_unseen_point_below_first_cut(self, reference_run):
        model, _ = reference_run
        x = np.array([1.0])
        assert model.predict_raw(x) == pytest.approx(X1_RAW, abs=1e-12)
        assert model.predict_label(x) == 1

    def test_a_pickle_holds_no_walk_form_and_scores_the_same(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(60, 3))
        dataset = Dataset(features, rng.integers(0, 2, 60).astype(float), ("a", "b", "c"))
        model, _ = train(dataset, TrainConfig(n_trees=6, max_depth=3))
        before = pickle.dumps(model)
        raw = [model.predict_raw(x) for x in features]  # builds the walk form
        after = pickle.dumps(model)
        assert len(after) == len(before)
        loaded = pickle.loads(after)
        assert loaded == model
        assert [loaded.predict_raw(x).hex() for x in features] == [v.hex() for v in raw]

    @pytest.mark.parametrize(
        "features, message",
        [
            ([[1.0], [2.0]], None),
            ([[1.0, 2.0], [3.0, 4.0]], "^data has 2 feature columns, model expects 1$"),
            (np.array([1.0, 2.0]), r"^features must have shape \(\*, \*\), got \(2,\)$"),
        ],
        ids=["list-of-the-width", "list-of-another-width", "1-d-array"],
    )
    def test_check_width_reads_any_matrix_and_refuses_as_a_data_error(self, features, message):
        model = Model((), 0.1, 1, ("x",))
        if message is None:
            model.check_width(features)
        else:
            with pytest.raises(DataError, match=message):
                model.check_width(features)

    def test_a_copy_is_built_again_from_the_fields(self, reference_run, monkeypatch):
        model, _ = reference_run
        model.predict_raw(np.array([1.0]))  # builds the walk form, which no copy takes
        built = []
        monkeypatch.setattr(Model, "__post_init__", lambda self: built.append(self))
        copies = copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))
        assert list(map(id, built)) == list(map(id, copies))
        assert all(clone == model and "_walks" not in vars(clone) for clone in copies)

    def test_empty_model_predicts_even_odds(self):
        model = Model(trees=(), learning_rate=0.1, n_features=1, feature_names=("x",))
        x = np.array([3.0])
        assert model.predict_raw(x) == 0.0
        assert model.predict_proba(x) == 0.5
        assert model.predict_label(x, threshold=0.5) == 1  # ties go to the positive class
        assert model.predict_label(x, threshold=0.7) == 0

    def test_rejects_wrong_feature_count(self, reference_run):
        model, _ = reference_run
        with pytest.raises(ValueError):
            model.predict_raw(np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.arange(6.0).reshape(2, 3), r"a row must have shape \(6,\), got \(2, 3\)"),
            (np.arange(6.0).reshape(3, 2), r"a row must have shape \(6,\), got \(3, 2\)"),
            ([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], r"a row must have shape \(6,\), got \(2, 3\)"),
            (np.arange(6.0).reshape(1, 6), r"a row must have shape \(6,\), got \(1, 6\)"),
            (3.0, r"a row must have shape \(6,\), got \(\)"),
            (np.array(3.0), r"a row must have shape \(6,\), got \(\)"),
            (np.arange(5.0), r"a row must have shape \(6,\), got \(5,\)"),
            (list("123456"), "a row must hold numbers, got dtype <U1"),
            ([True, False] * 3, "a row must hold numbers, got dtype bool"),
            ([1.0, None, 3.0, 4.0, 5.0, 6.0], "a row must hold numbers, got dtype object"),
            ([1.0, 2.0, 3.0, 4.0, 5.0, 6j], "a row must hold numbers, got dtype complex128"),
            (np.arange(6.0).astype(object), "a row must hold numbers, got dtype object"),
        ],
        ids=[
            "2x3", "3x2", "nested-list", "1x6", "bare-number", "0-d-array", "five-features",
            "strings", "bools", "none", "complex", "object-array",
        ],
    )
    def test_a_single_row_must_be_one_row_of_the_model_width(self, x, message):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 5, (20, 6)).astype(float)
        dataset = Dataset(features, rng.integers(0, 2, 20).astype(float), tuple("abcdef"))
        model, _ = train(dataset, TrainConfig(n_trees=3, max_depth=2))
        for call in (model.predict_raw, model.predict_proba, model.predict_label):
            with pytest.raises(ValueError, match=message):
                call(x)
        for tree in model.trees:
            with pytest.raises(ValueError, match=message):
                tree.apply(x)

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_a_batch_must_hold_numbers(self, cells, dtype):
        stump = RegressionTree(Split(0, 0.5, Leaf(1, 0.25), Leaf(2, -0.5)), 1)
        message = re.escape(f"features must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            Model((stump,), 0.1, 1, ("x",)).predict_raw_batch(cells)

    def test_a_single_row_may_be_an_array_a_list_or_a_tuple(self):
        rng = np.random.default_rng(1)
        features = rng.integers(0, 5, (20, 3)).astype(float)
        dataset = Dataset(features, rng.integers(0, 2, 20).astype(float), ("a", "b", "c"))
        model, _ = train(dataset, TrainConfig(n_trees=4, max_depth=2))
        for x in features:
            raw = model.predict_raw(x)
            assert model.predict_raw(x.tolist()) == raw
            assert model.predict_raw(tuple(x.tolist())) == raw
            assert model.trees[0].apply(x.tolist()) == model.trees[0].apply(x)
            # integer and narrower float rows are numbers too
            for dtype in (np.int64, np.uint8, np.float32):
                assert model.predict_raw(x.astype(dtype)) == raw
            assert model.predict_raw([int(v) for v in x]) == raw

    @pytest.mark.parametrize(
        "x, message",
        [
            ([math.nan, 1.0, 1.0, 1.0, 1.0, 1.0], "position 0 is nan"),
            ([1.0, 1.0, 1.0, math.inf, 1.0, 1.0], "position 3 is inf"),
            ([1.0, 1.0, 1.0, 1.0, 1.0, -math.inf], "position 5 is -inf"),
            ([1.0, 1.0, math.nan, 1.0, math.inf, 1.0], "position 2 is nan"),
        ],
        ids=["nan", "inf", "minus-inf", "first-of-two"],
    )
    def test_a_single_row_must_be_finite(self, x, message):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 5, (20, 6)).astype(float)
        dataset = Dataset(features, rng.integers(0, 2, 20).astype(float), tuple("abcdef"))
        model, _ = train(dataset, TrainConfig(n_trees=3, max_depth=2))
        for row in (x, tuple(x), np.array(x)):
            for call in (model.predict_raw, model.predict_proba, model.predict_label):
                with pytest.raises(ValueError, match=f"row value at {message}, not finite"):
                    call(row)
            with pytest.raises(ValueError, match=f"row value at {message}, not finite"):
                model.trees[0].apply(row)

    @pytest.mark.parametrize(
        "bad_row", [[math.nan] * 6, [1.0, 1.0, 1.0, math.inf, 1.0, 1.0]], ids=["nan-row", "inf-row"]
    )
    def test_a_batch_refuses_the_rows_a_single_row_call_refuses(self, bad_row):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 5, (20, 6)).astype(float)
        dataset = Dataset(features, rng.integers(0, 2, 20).astype(float), tuple("abcdef"))
        model, _ = train(dataset, TrainConfig(n_trees=3, max_depth=2))
        with pytest.raises(ValueError, match="not finite"):
            model.predict_raw(bad_row)
        X = np.vstack([features[:2], bad_row, features[2:4]])
        message = "features must be finite, got a NaN or an infinity"
        with pytest.raises(DataError, match=message):
            model.predict_raw_batch(X)
        with pytest.raises(DataError, match=message):
            model.trees[0].leaf_assignment(X)

    def test_a_single_row_of_huge_finite_values_is_scored(self):
        # its sum overflows to inf, but every cell is finite
        dataset = Dataset(np.array([[0.0, 1e308], [1e308, 0.0]]), np.array([1.0, 0.0]), ("a", "b"))
        model, _ = train(dataset, TrainConfig(n_trees=2))
        x = [1e308, 1e308]
        raw = model.predict_raw(x)
        assert math.isfinite(raw) and raw == model.predict_raw_batch(np.array([x]))[0]
        assert model.predict_proba(x) == sigmoid(raw)
        assert model.trees[0].apply(x) == model.trees[0].apply(np.array(x))

    def test_predict_raw_is_the_in_order_sum_of_tree_outputs(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            features = rng.integers(0, 5, (n, 3)).astype(float)
            ds = Dataset(features, rng.integers(0, 2, n).astype(float), ("a", "b", "c"))
            config = TrainConfig(n_trees=5, learning_rate=0.3, max_depth=1 + seed % 3)
            model, _ = train(ds, config)
            # integer features put every threshold on a half-integer, so many
            # of these rows sit exactly on one
            rows = rng.integers(-1, 11, (40, 3)) / 2.0
            for x in rows:
                expected = 0.0
                for tree in model.trees:
                    expected += model.learning_rate * tree.apply(x)[1]
                assert float.hex(model.predict_raw(x)) == float.hex(expected)

    @pytest.mark.parametrize(
        "learning_rate, n_features, names, message",
        [
            (0.0, 1, ("x",), "learning_rate"),
            (1.5, 1, ("x",), "learning_rate"),
            (math.nan, 1, ("x",), "learning_rate"),
            (True, 1, ("x",), "learning_rate"),
            ("0.5", 1, ("x",), "learning_rate"),
            (0.1, 0, (), "n_features"),
            (0.1, True, ("x",), "n_features"),
            (0.1, 1.5, ("x",), "n_features"),
            (0.1, "1", ("x",), "n_features"),
            (0.1, 1, (), "feature_names"),
            (0.1, 1, ("x", "y"), "feature_names"),
            (0.1, 1, (1,), "feature_names"),
            (0.1, 1, (None,), "feature_names"),
            (0.1, 1, "x", "feature_names"),
        ],
        ids=[
            "learning-rate-zero", "learning-rate-above-one", "learning-rate-nan",
            "learning-rate-true", "learning-rate-string", "n-features-zero", "n-features-true",
            "n-features-fraction", "n-features-string", "no-names", "too-many-names",
            "integer-name", "null-name", "names-as-one-string",
        ],
    )
    def test_model_refuses_what_a_model_file_cannot_hold(
        self, learning_rate, n_features, names, message
    ):
        with pytest.raises(ValueError, match=message):
            Model((), learning_rate, n_features, names)

    def test_model_stores_its_learning_rate_as_a_float_and_its_names_as_a_tuple(self):
        model = Model((), 1, 2, ["a", "b"])
        assert type(model.learning_rate) is float and model.feature_names == ("a", "b")

    @pytest.mark.parametrize(
        "other, name",
        [("x", "str"), (None, "NoneType"), (Leaf(1, 0.5), "Leaf"), ([1.0], "list")],
        ids=["string", "none", "bare-leaf", "list"],
    )
    def test_model_refuses_a_tree_that_is_not_a_regression_tree(self, other, name):
        stump = RegressionTree(Split(0, 0.5, Leaf(1, 1.0), Leaf(2, -1.0)), 1)
        with pytest.raises(ValueError, match=f"RegressionTree, not {name}$"):
            Model((stump, other), 0.1, 1, ("x",))

    def test_model_stores_its_trees_as_a_tuple(self):
        stump = RegressionTree(Split(0, 0.5, Leaf(1, 1.0), Leaf(2, -1.0)), 1)
        model = Model([stump], 0.1, 1, ["x"])
        assert model.trees == (stump,)
        assert hash(model) == hash(Model((stump,), 0.1, 1, ("x",)))

    def test_model_rejects_a_tree_of_another_width(self, reference_run):
        model, _ = reference_run
        wide = RegressionTree(model.trees[0].root, 2)
        with pytest.raises(ValueError, match="features"):
            Model(trees=(*model.trees, wide), learning_rate=0.1, n_features=1, feature_names=("x",))

    def test_model_refuses_trees_whose_outputs_can_sum_past_the_float_range(self):
        big = RegressionTree(Split(0, 0.5, Leaf(1, -1.7e308), Leaf(2, 1.7e308)), 1)
        with pytest.raises(ValueError, match="overflows a float"):
            Model((big, big), 1.0, 1, ("x",))
        # 0.5 * 1.7e308 twice sums to 1.7e308: every score stays finite
        model = Model((big, big), 0.5, 1, ("x",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = model.predict_raw_batch(np.array([[0.0], [1.0]]))
        assert scores.tolist() == [-1.7e308, 1.7e308]

    def test_rejects_bad_threshold(self, reference_run):
        model, _ = reference_run
        for bad in (0.0, 1.0, -0.1, math.nan, "0.5", True):
            with pytest.raises(ValueError, match="threshold"):
                model.predict_label(np.array([1.0]), threshold=bad)


class TestTrainValidation:
    def test_requires_labels(self):
        ds = Dataset(np.array([[1.0], [2.0]]), None, ("x",))
        with pytest.raises(ValueError):
            train(ds, TrainConfig(n_trees=1))

    def test_forced_feature_must_exist(self, six_points):
        config = TrainConfig(n_trees=1, forced_splits=((3, 1.0),))
        with pytest.raises(ValueError):
            train(six_points, config)

    @pytest.mark.parametrize(
        "forced, message",
        [
            (((0.9, 1.0),), "feature 0.9"),
            (((True, 2.5),), "feature True"),
            (((0, "2.5"),), "threshold"),
            (((0, 3.5), (1, 2.25)), "feature 1"),
            (((0, 3.5), (0, math.inf)), "threshold"),
        ],
        ids=[
            "fraction-feature", "bool-feature", "string-threshold", "second-pair-feature",
            "second-pair-threshold",
        ],
    )
    def test_refuses_a_bad_forced_pair_before_any_round(
        self, six_points, no_round, forced, message
    ):
        config = TrainConfig(n_trees=len(forced), forced_splits=forced)
        with pytest.raises(ValueError, match=message):
            train(six_points, config)


class TestDegenerateData:
    def test_all_positive_labels_make_one_confident_leaf(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.ones(3), ("x",))
        model, trace = train(ds, TrainConfig(n_trees=1))
        record = trace.records[0]
        # constant residuals leave nothing to split on: one leaf, value 0.5/0.25
        assert len(record.leaves) == 1
        assert record.leaves[0].value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(record.scores, 0.2, rtol=0, atol=1e-15)
        assert model.trees[0].n_leaves == 1

    def test_single_negative_instance(self):
        ds = Dataset(np.array([[4.0]]), np.zeros(1), ("x",))
        _, trace = train(ds, TrainConfig(n_trees=1))
        record = trace.records[0]
        assert record.leaves[0].value == pytest.approx(-2.0, abs=1e-12)
        assert record.scores[0] == pytest.approx(-0.2, abs=1e-15)

    def test_forced_split_with_empty_side(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, 0.0]), ("x",))
        config = TrainConfig(n_trees=1, forced_splits=((0, 0.5),))
        model, trace = train(ds, config)
        left, right = trace.records[0].leaves
        assert left.members.size == 0
        assert (left.numerator, left.denominator, left.value) == (0.0, 0.0, 0.0)
        # (0.0, 0.0, 0.0) also equals -0.0, which a model file would write as "gamma": -0.0
        assert math.copysign(1.0, left.value) == 1.0
        np.testing.assert_array_equal(right.members, [0, 1, 2])
        assert right.value == pytest.approx(2.0 / 3.0, abs=1e-12)
        # every instance falls through the populated side
        np.testing.assert_allclose(
            trace.records[0].scores, 0.1 * (2.0 / 3.0), rtol=0, atol=1e-15
        )
        assert model.trees[0].apply(np.array([0.2]))[1] == 0.0


def test_damped_step_improves_each_mixed_leaf(six_points, reference_run):
    """The applied update learning_rate * value lowers every mixed leaf's loss.

    This is the counterpart to the overshoot example in test_leaf_values.py:
    the full quadratic step can hurt, but the shrunken step the booster
    actually takes is small enough to land on the descending side.
    """
    _, trace = reference_run
    labels = six_points.labels
    prev_scores = np.zeros(6)
    for record in trace.records:
        for leaf in record.leaves:
            members = leaf.members
            sample = LeafSample(labels[members], prev_scores[members])
            if len(set(labels[members])) < 2:
                continue
            before = leaf_loss(0.0, sample)
            after = leaf_loss(0.1 * leaf.value, sample)
            assert after < before
        prev_scores = np.asarray(record.scores)


def test_training_loss_never_increases_on_random_data():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        ds = Dataset(
            rng.uniform(0, 10, (n, 2)),
            rng.integers(0, 2, n).astype(float),
            ("a", "b"),
        )
        _, trace = train(ds, TrainConfig(n_trees=10, learning_rate=0.1, max_depth=2))
        losses = [n * math.log(2.0)] + [record.total_loss for record in trace.records]
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))


def test_trace_leaf_values_are_the_newton_steps_the_model_stores():
    runs = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        ds = Dataset(
            rng.integers(0, 4, (n, 2)).astype(float), rng.integers(0, 2, n).astype(float), ("a", "b")
        )
        runs.append((ds, TrainConfig(n_trees=4, learning_rate=0.3, max_depth=1 + seed % 3)))
    # the first forced stump leaves its left side empty
    ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, 0.0]), ("x",))
    runs.append((ds, TrainConfig(n_trees=2, forced_splits=((0, 0.5), (0, 1.5)))))
    for ds, config in runs:
        model, trace = train(ds, config)
        prior_scores = np.zeros(ds.n_rows)
        for tree, record in zip(model.trees, trace.records):
            stored = {leaf.leaf_id: leaf.value for leaf in tree_leaves(tree)}
            assert [leaf.leaf_id for leaf in record.leaves] == list(stored)
            for leaf in record.leaves:
                step = newton_step(leaf.numerator, leaf.denominator)
                assert float.hex(leaf.value) == float.hex(step)  # bit for bit, sign of zero too
                assert float.hex(leaf.value) == float.hex(stored[leaf.leaf_id])
                terms = (leaf.numerator, leaf.denominator)
                if leaf.members.size:
                    # the engine gathers the round's probs; the audit API takes
                    # each leaf's sigmoid afresh from its scores: the same sums
                    s = LeafSample(ds.labels[leaf.members], prior_scores[leaf.members])
                    expected = leaf_value_terms(s.labels, s.prior_probs)
                else:
                    expected = (0.0, 0.0)
                assert list(map(float.hex, terms)) == list(map(float.hex, expected))
            prior_scores = record.scores


def test_row_order_does_not_change_the_model(six_points):
    config = TrainConfig(n_trees=3, learning_rate=0.1, max_depth=1)
    base_model, _ = train(six_points, config)
    rng = np.random.default_rng(19)
    grid = np.linspace(0.0, 10.0, 50)
    base_preds = [base_model.predict_raw(np.array([g])) for g in grid]
    for _ in range(4):
        order = rng.permutation(six_points.n_rows)
        shuffled = Dataset(
            six_points.features[order], six_points.labels[order], six_points.feature_names
        )
        model, _ = train(shuffled, config)
        preds = [model.predict_raw(np.array([g])) for g in grid]
        assert preds == base_preds  # bitwise equality, not approximate


class TestReplay:
    def test_every_record_derives_its_residuals_and_leaf_ids(self, six_points, reference_run):
        model, trace = reference_run
        labels, rows = six_points.labels.tolist(), six_points.features
        for record, tree in zip(trace.records, model.trees):
            residuals = [(y - p).hex() for y, p in zip(labels, record.prior_probs.tolist())]
            assert [r.hex() for r in record.residuals.tolist()] == residuals
            np.testing.assert_array_equal(record.leaf_ids, [tree.apply(x)[0] for x in rows])

    def test_replay_matches_training_trace(self, six_points, reference_run):
        model, trace = reference_run
        replayed = replay(model, six_points)
        assert len(replayed.records) == len(trace.records)
        for got, want in zip(replayed.records, trace.records):
            assert got.iteration == want.iteration
            np.testing.assert_array_equal(got.residuals, want.residuals)
            np.testing.assert_array_equal(got.leaf_ids, want.leaf_ids)
            np.testing.assert_array_equal(got.scores, want.scores)
            np.testing.assert_array_equal(got.probs, want.probs)
            assert got.total_loss == want.total_loss
            for g_leaf, w_leaf in zip(got.leaves, want.leaves):
                assert g_leaf.leaf_id == w_leaf.leaf_id
                np.testing.assert_array_equal(g_leaf.members, w_leaf.members)
                assert g_leaf.numerator == w_leaf.numerator
                assert g_leaf.denominator == w_leaf.denominator
                assert g_leaf.value == w_leaf.value

    def test_records_compare_and_hash_by_identity(self, six_points, reference_run):
        model, trace = reference_run
        again = replay(model, six_points)
        assert trace == trace and trace != again
        record, leaf = trace.records[0], trace.records[0].leaves[0]
        assert record == record and record != again.records[0]
        assert leaf == leaf and leaf != again.records[0].leaves[0]
        assert len({hash(trace), hash(record), hash(leaf)}) == 3

    @pytest.mark.parametrize("source", ["train", "replay"])
    def test_every_record_array_refuses_a_write(self, six_points, source):
        configs = [
            TrainConfig(n_trees=3, max_depth=2),
            TrainConfig(n_trees=1, forced_splits=((0, 100.0),)),  # its right leaf holds no rows
        ]
        for config in configs:
            model, trace = train(six_points, config)
            if source == "replay":
                trace = replay(model, six_points)
            final_loss, losses = trace.final_loss, [record.total_loss for record in trace.records]
            for record in trace.records:
                members = [leaf.members for leaf in record.leaves]
                for array in (record.labels, record.prior_probs, record.scores, record.probs, *members):
                    assert_frozen_over_bytes(array)  # setflags(write=True) raises
                    with pytest.raises(ValueError, match="read-only"):
                        array[:] = 50
            assert trace.final_loss == final_loss
            assert [record.total_loss for record in trace.records] == losses
            for before, record in zip(trace.records, trace.records[1:]):
                assert record.prior_probs is before.probs  # the same object, not a copy
        assert trace.records[0].leaves[1].members.size == 0  # an empty members array was checked

    def test_a_trace_of_no_rounds_has_no_final_loss(self):
        model = Model((), 0.1, 1, ("x",))
        trace = replay(model, Dataset(np.array([[1.0]]), np.array([1.0]), ("x",)))
        assert len(trace.records) == 0
        with pytest.raises(ValueError, match="no rounds"):
            trace.final_loss

    def test_replay_requires_labels(self, reference_run):
        model, _ = reference_run
        ds = Dataset(np.array([[1.0]]), None, ("x",))
        with pytest.raises(ValueError):
            replay(model, ds)

    def test_replay_requires_matching_width(self, reference_run):
        model, _ = reference_run
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]), ("a", "b"))
        # a model of no trees routes no row, so only the width check can refuse it
        for model in (model, Model((), 0.1, 1, ("x",))):
            with pytest.raises(DataError, match="^data has 2 feature columns, model expects 1$"):
                replay(model, ds)


def _two_branch_loss(labels, scores) -> float:
    """The loss taken from probabilities, -log p or -log(1 - p) by label: an
    independent oracle, exact to ~1e-16 where p has not saturated."""
    probs = sigmoid(np.asarray(scores, dtype=np.float64))
    terms = np.where(np.asarray(labels) == 1.0, -np.log(probs), -np.log1p(-probs))
    return math.fsum(terms.tolist())


def _stump_replay(gamma, labels):
    """replay of a learning-rate-1 stump at x <= 0.5 with leaf values -gamma
    and +gamma, over the rows x = 0 and then x = 1 labeled as given."""
    stump = RegressionTree(Split(0, 0.5, Leaf(1, -gamma), Leaf(2, gamma)), 1)
    model = Model((stump,), 1.0, 1, ("x",))
    x = np.repeat([0.0, 1.0], len(labels) // 2).reshape(-1, 1)
    return replay(model, Dataset(x, np.array(labels, dtype=float), ("x",)))


def test_total_loss_at_zero_scores_is_n_log_two():
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    # both sides round the exact 6 * fl(log 2) once
    assert total_loss(labels, np.zeros(6)) == 6.0 * math.log(2.0)


def test_total_loss_of_scores_saturated_on_the_wrong_side_is_finite():
    # sigmoid(-800) and sigmoid(800) round to 0 and 1, so a loss taken from
    # the probabilities would be inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _stump_replay(800.0, [1, 0]).final_loss == 1600.0


def test_total_loss_of_a_scalar_label_and_score_is_that_of_one_row():
    assert total_loss(1, 0.0) == total_loss([1], [0.0]) == math.log(2.0)
    assert total_loss(0.0, np.float64(3.0)) == total_loss([0.0], [3.0])


def test_total_loss_past_the_float_range_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert total_loss([1, 1, 0, 0], [-1e308, -1e308, 1e308, 1e308]) == math.inf
        assert _stump_replay(1e308, [1, 1, 0, 0]).final_loss == math.inf


@pytest.mark.parametrize(
    "labels, scores, message",
    [
        ([1], [math.inf], "scores must be finite"),
        ([0], [-math.inf], "scores must be finite"),
        ([0, 1], [0.5, math.nan], "scores must be finite"),
        ([2], [1e308], "labels must be exactly 0 or 1"),
        ([0.5], [0.0], "labels must be exactly 0 or 1"),
        ([math.nan], [0.0], "labels must be exactly 0 or 1"),
        ([0, 1], [0.5], r"scores must have shape \(2,\), got \(1,\)"),
        ([[0], [1]], [0.5, 0.5], r"scores must have shape \(2, 1\), got \(2,\)"),
        *(
            case
            for cells, dtype in (param.values for param in NOT_NUMBERS)
            for case in (
                (np.ravel(cells), [0.5, 0.5], f"labels must hold numbers, got dtype {dtype}"),
                ([0, 1], np.ravel(cells), f"scores must hold numbers, got dtype {dtype}"),
            )
        ),
    ],
    ids=[
        "inf-score", "minus-inf-score", "nan-score", "label-two", "label-half", "nan-label",
        "shorter-scores", "column-of-labels",
        *(f"{argument}-{param.id}" for param in NOT_NUMBERS for argument in ("labels", "scores")),
    ],
)
def test_total_loss_refuses_bad_inputs_before_any_arithmetic(labels, scores, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            total_loss(labels, scores)


moderate_rows = st.lists(
    st.tuples(st.sampled_from((0.0, 1.0)), st.floats(-5.0, 5.0)), min_size=1, max_size=40
)


@settings(max_examples=200)
@given(moderate_rows)
def test_total_loss_matches_the_probability_form_on_moderate_scores(rows):
    labels, scores = zip(*rows)
    want = _two_branch_loss(labels, scores)
    assert abs(total_loss(labels, scores) - want) <= 1e-12 * want


finite_rows = st.lists(
    st.tuples(st.sampled_from((0.0, 1.0)), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200)
@given(finite_rows)
def test_total_loss_of_finite_scores_is_never_nan_and_never_warns(rows):
    labels, scores = zip(*rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = total_loss(labels, scores)
    assert loss >= 0.0  # False for NaN
