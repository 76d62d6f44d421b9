"""End-to-end boosting: config validation, training trace, prediction, replay."""

import math

import numpy as np
import pytest

from gradboost import (
    Dataset,
    LeafSample,
    Model,
    RegressionTree,
    TrainConfig,
    leaf_loss,
    newton_step,
    replay,
    sigmoid,
    total_loss,
    train,
)

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

    def test_normalizes_forced_splits(self):
        config = TrainConfig(n_trees=1, forced_splits=[[0, 3.5]])
        assert config.forced_splits == ((0, 3.5),)


class TestReferenceRun:
    def test_leaf_values_per_iteration(self, reference_run):
        _, trace = reference_run
        assert len(trace) == 3
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

    def test_model_rejects_a_tree_of_another_width(self, reference_run):
        model, _ = reference_run
        wide = RegressionTree(model.trees[0].root, 2)
        with pytest.raises(ValueError, match="features"):
            Model(trees=(*model.trees, wide), learning_rate=0.1, n_features=1, feature_names=("x",))

    def test_rejects_bad_threshold(self, reference_run):
        model, _ = reference_run
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
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
        for tree, record in zip(model.trees, trace.records):
            stored = {leaf.leaf_id: leaf.value for leaf in tree.leaves()}
            assert [leaf.leaf_id for leaf in record.leaves] == list(stored)
            for leaf in record.leaves:
                step = newton_step(leaf.numerator, leaf.denominator)
                assert float.hex(leaf.value) == float.hex(step)  # bit for bit, sign of zero too
                assert float.hex(leaf.value) == float.hex(stored[leaf.leaf_id])


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
        assert len(replayed) == len(trace)
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

    def test_replay_requires_labels(self, reference_run):
        model, _ = reference_run
        ds = Dataset(np.array([[1.0]]), None, ("x",))
        with pytest.raises(ValueError):
            replay(model, ds)

    def test_replay_requires_matching_width(self, reference_run):
        model, _ = reference_run
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]), ("a", "b"))
        with pytest.raises(ValueError):
            replay(model, ds)


def test_total_loss_of_certain_correct_predictions_is_zero():
    # each row computes only its own branch, so p = 1 at y = 1 never runs log1p(-1)
    assert total_loss([1, 0], [1.0, 0.0]) == 0.0


def test_total_loss_equals_the_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 2000).astype(float)
    probs = rng.uniform(1e-9, 1.0 - 1e-9, 2000)
    terms = np.where(labels == 1.0, -np.log(probs), -np.log1p(-probs))
    assert total_loss(labels, probs).hex() == math.fsum(terms.tolist()).hex()


def test_total_loss_at_even_odds_is_n_log_two():
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert abs(total_loss(labels, np.full(6, 0.5)) - 6.0 * math.log(2.0)) < 1e-12
