"""Regression-tree split search and tree growth."""

import math

import numpy as np
import pytest

from gradboost import (
    Dataset,
    Leaf,
    RegressionTree,
    Split,
    TrainConfig,
    best_split,
    deserialize_model,
    fit_tree,
    serialize_model,
    train,
)
from gradboost.tree import MAX_TREE_DEPTH

from conftest import REFERENCE_SPLITS


def _two_pass_sse(values):
    """Plain mean-centered sum of squares, as a slow reference."""
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def _exhaustive_best(features, residuals, idx, min_count=1):
    """Brute-force split search used to cross-check the fast implementation.

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


def _assert_groups_match_apply(tree, rows, groups):
    """groups equals routing each row through apply on its own: every leaf id
    in left-to-right order, members ascending, an empty array for a leaf no
    row reaches."""
    expected = {leaf.leaf_id: [] for leaf in tree.leaves()}
    for i, row in enumerate(rows):
        expected[tree.apply(row)[0]].append(i)
    assert list(groups) == list(expected)
    for leaf_id, members in groups.items():
        assert members.dtype == np.intp
        np.testing.assert_array_equal(members, np.asarray(expected[leaf_id], dtype=np.intp))


class TestBestSplit:
    def test_first_round_residuals_prefer_outer_gap(self, six_points):
        # residuals +/-0.5 alternate; grouping {1,2,3}|{4,5,6} at 3.5 leaves
        # SSE 4/3, but splitting off the first point at 1.4 reaches 1.2
        r = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        found = best_split(six_points.features, r, np.arange(6))
        assert found.feature_index == 0
        assert found.threshold == pytest.approx(1.4, abs=1e-12)
        assert found.sse_after == pytest.approx(1.2, abs=1e-12)
        assert found.threshold != 3.5

    def test_obvious_two_group_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        found = best_split(x, r, np.arange(4))
        assert (found.feature_index, found.threshold) == (0, 2.5)
        assert found.sse_after == pytest.approx(0.0, abs=1e-15)

    def test_constant_residuals_yield_no_split(self):
        x = np.array([[1.0], [2.0], [3.0]])
        assert best_split(x, np.full(3, 0.25), np.arange(3)) is None

    def test_constant_feature_yields_no_split(self):
        x = np.full((4, 1), 2.0)
        r = np.array([1.0, -1.0, 1.0, -1.0])
        assert best_split(x, r, np.arange(4)) is None

    def test_single_instance_yields_no_split(self):
        assert best_split(np.array([[1.0]]), np.array([0.5]), np.array([0])) is None

    def test_tied_features_break_to_lower_index(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        found = best_split(x, r, np.arange(4))
        assert found.feature_index == 0

    def test_tied_thresholds_break_to_lower_value(self, six_points):
        # 1.4 and 7.45 give bitwise-identical SSE on the alternating residuals
        r = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        found = best_split(six_points.features, r, np.arange(6))
        assert found.threshold == pytest.approx(1.4, abs=1e-12)

    def test_duplicate_feature_values_collapse_candidates(self):
        x = np.array([[1.0], [1.0], [2.0], [2.0]])
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        found = best_split(x, r, np.arange(4))
        assert found.threshold == 1.5
        assert found.sse_after == pytest.approx(0.0, abs=1e-15)

    def test_min_count_blocks_tiny_children(self):
        x = np.array([[1.0], [2.0], [3.0]])
        r = np.array([-1.0, 0.0, 1.0])
        assert best_split(x, r, np.arange(3), min_count=2) is None

    @pytest.mark.parametrize(
        "min_count", [0, -1, 1.5, True], ids=["zero", "negative", "fraction", "true"]
    )
    def test_min_count_must_be_a_positive_integer(self, min_count):
        x, r = np.array([[1.0], [2.0]]), np.array([-1.0, 1.0])
        with pytest.raises(ValueError, match="min_count"):
            best_split(x, r, np.arange(2), min_count=min_count)

    def test_min_count_restricts_to_middle_cut(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        r = np.array([5.0, -1.0, -1.0, -1.0])
        found = best_split(x, r, np.arange(4), min_count=2)
        assert found.threshold == 2.5  # 1.5 and 3.5 would starve a child

    def test_subset_of_instances_only(self, six_points):
        r = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        found = best_split(six_points.features, r, np.array([2, 3, 4, 5]))
        ref = _exhaustive_best(six_points.features, r, [2, 3, 4, 5])
        assert (found.feature_index, found.threshold) == ref[:2]
        assert abs(found.sse_after - ref[2]) <= 1e-12

    def test_matches_exhaustive_reference_on_small_cases(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 3))
            x = np.round(rng.uniform(0, 10, (n, d)), 1)
            r = rng.uniform(-1, 1, n)
            idx = np.arange(n)
            found = best_split(x, r, idx)
            ref = _exhaustive_best(x, r, idx)
            if ref is None:
                assert found is None
            else:
                assert (found.feature_index, found.threshold) == ref[:2]
                assert abs(found.sse_after - ref[2]) <= 1e-12

    @pytest.mark.parametrize(
        "lower, upper",
        [(1e308, 1.7e308), (1.0000000000000002, 1.0000000000000004)],
        ids=["sum-overflows", "adjacent-floats"],
    )
    def test_threshold_separates_the_pair_it_was_scored_on(self, lower, upper):
        # the midpoint is inf for the first pair and rounds up to upper for
        # the second; either way the threshold falls back to the lower value
        x = np.array([[lower], [upper]])
        r = np.array([1.0, -1.0])
        found = best_split(x, r, np.arange(2))
        assert (found.feature_index, found.threshold, found.sse_after) == (0, lower, 0.0)
        groups = fit_tree(x, r).leaf_assignment(x)
        assert [members.tolist() for members in groups.values()] == [[0], [1]]


class TestFitTree:
    def test_learned_stump_on_first_round_residuals(self, six_points):
        r = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        tree = fit_tree(six_points.features, r)
        assert tree.root.feature_index == 0
        assert tree.root.threshold == pytest.approx(1.4, abs=1e-12)
        assert [leaf.leaf_id for leaf in tree.leaves()] == [1, 2]
        assert all(leaf.value == 0.0 for leaf in tree.leaves())

    def test_forced_stump_memberships(self, six_points):
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.0), Leaf(2, 0.0)), 1)
        groups = tree.leaf_assignment(six_points.features)
        np.testing.assert_array_equal(groups[1], [0, 1, 2])
        np.testing.assert_array_equal(groups[2], [3, 4, 5])

    def test_forced_split_feature_must_exist(self, six_points, no_round):
        # train builds every forced stump before its first round
        with pytest.raises(ValueError, match="split on feature 1 of a 1-feature tree"):
            train(six_points, TrainConfig(n_trees=1, forced_splits=((1, 3.5),)))

    def test_depth_two_growth(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        r = np.array([1.0, -1.0, -1.0, 1.0])
        tree = fit_tree(x, r, max_depth=2)
        assert tree.root.threshold == 1.5
        assert tree.n_leaves == 3
        assert [leaf.leaf_id for leaf in tree.leaves()] == [1, 2, 3]
        right = tree.root.right
        assert right.threshold == 3.5
        assert tree.depth() == 2

    def test_min_leaf_stops_growth(self):
        x = np.array([[1.0], [2.0], [3.0]])
        r = np.array([-1.0, 0.0, 1.0])
        tree = fit_tree(x, r, min_leaf=2)
        assert tree.n_leaves == 1  # no legal cut keeps both children at >= 2

    def test_depth_never_exceeds_cap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            x = rng.uniform(0, 10, (n, 2))
            r = rng.uniform(-1, 1, n)
            cap = int(rng.integers(1, 4))
            tree = fit_tree(x, r, max_depth=cap)
            assert tree.depth() <= cap

    def test_leaf_ids_are_consecutive_left_to_right(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(0, 10, (40, 2))
        r = rng.uniform(-1, 1, 40)
        tree = fit_tree(x, r, max_depth=3)
        assert [leaf.leaf_id for leaf in tree.leaves()] == list(range(1, tree.n_leaves + 1))

    def test_max_depth_is_limited(self):
        x, r = np.array([[0.0], [1.0]]), np.array([-0.5, 0.5])
        assert fit_tree(x, r, max_depth=MAX_TREE_DEPTH).depth() == 1
        with pytest.raises(ValueError, match="max_depth"):
            fit_tree(x, r, max_depth=MAX_TREE_DEPTH + 1)

    @pytest.mark.parametrize(
        "option, value",
        [("max_depth", 2.5), ("max_depth", True), ("max_depth", 0), ("min_leaf", 1.5),
         ("min_leaf", True), ("min_leaf", 0)],
    )
    def test_rejects_options_that_are_not_positive_integers(self, option, value):
        x, r = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-0.5, 0.5, -0.5, 0.5])
        with pytest.raises(ValueError, match=option):
            fit_tree(x, r, **{option: value})

    def test_leaf_assignment_partitions_instances(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 10, (25, 2))
        r = rng.uniform(-1, 1, 25)
        tree = fit_tree(x, r, max_depth=2)
        groups = tree.leaf_assignment(x)
        assert set(groups) == {leaf.leaf_id for leaf in tree.leaves()}
        combined = np.sort(np.concatenate(list(groups.values())))
        np.testing.assert_array_equal(combined, np.arange(25))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_leaf_assignment_matches_per_row_apply_on_tied_features(self, depth):
        empty_leaves = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 4, (n, 3)).astype(float)
            tree = fit_tree(x, rng.uniform(-1, 1, n), max_depth=depth)
            # a few unseen rows leave some leaves with no members
            probe = rng.integers(0, 4, (int(rng.integers(0, 4)), 3)).astype(float)
            for rows in (x, probe):
                groups = tree.leaf_assignment(rows)
                _assert_groups_match_apply(tree, rows, groups)
                empty_leaves += sum(members.size == 0 for members in groups.values())
        assert empty_leaves > 0

    def test_leaf_assignment_sends_rows_at_the_threshold_left(self):
        x = np.array([[3.0], [1.0], [2.0], [2.0], [5.0]])
        tree = RegressionTree(Split(0, 2.0, Leaf(1, 0.0), Leaf(2, 0.0)), 1)
        groups = tree.leaf_assignment(x)
        _assert_groups_match_apply(tree, x, groups)
        np.testing.assert_array_equal(groups[1], [1, 2, 3])
        np.testing.assert_array_equal(groups[2], [0, 4])
        below = tree.leaf_assignment(np.array([[0.5], [1.5]]))
        np.testing.assert_array_equal(below[1], [0, 1])
        assert below[2].size == 0 and below[2].dtype == np.intp

    def test_a_path_past_the_depth_limit_is_refused(self):
        def chain(depth):  # depth splits down the right side, leaf ids 1..depth+1
            node = Leaf(depth + 1, 0.0)
            for leaf_id in range(depth, 0, -1):
                node = Split(0, leaf_id - 0.5, Leaf(leaf_id, 0.0), node)
            return node

        groups = RegressionTree(chain(MAX_TREE_DEPTH), 1).leaf_assignment(np.array([[0.0], [9e9]]))
        assert list(groups) == list(range(1, MAX_TREE_DEPTH + 2))
        assert groups[1].tolist() == [0] and groups[MAX_TREE_DEPTH + 1].tolist() == [1]
        with pytest.raises(ValueError, match=f"limit of {MAX_TREE_DEPTH} splits"):
            RegressionTree(chain(MAX_TREE_DEPTH + 1), 1)

    def test_with_leaf_values_rewrites_only_values(self):
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.0), Leaf(2, 0.0)), 1)
        updated = tree.with_leaf_values({1: 2.0 / 3.0, 2: -2.0 / 3.0})
        assert updated.root.threshold == tree.root.threshold
        assert updated.apply(np.array([1.0]))[1] == pytest.approx(2.0 / 3.0)
        assert updated.apply(np.array([9.0]))[1] == pytest.approx(-2.0 / 3.0)
        # original untouched
        assert tree.apply(np.array([1.0]))[1] == 0.0

    def test_apply_sends_boundary_point_left(self):
        x = np.array([[1.0], [3.0]])
        tree = fit_tree(x, np.array([1.0, -1.0]))
        threshold = tree.root.threshold
        leaf_id, _ = tree.apply(np.array([threshold]))
        assert leaf_id == 1

    def test_single_instance_tree_is_one_leaf(self):
        tree = fit_tree(np.array([[5.0]]), np.array([0.3]))
        assert tree.n_leaves == 1
        assert tree.depth() == 0

    @pytest.mark.parametrize("feature_index", [-1, 2, 0.5, True])
    def test_rejects_a_split_on_a_feature_it_does_not_have(self, feature_index):
        # feature -1 marks a leaf in the compiled arrays, so it must not pass as a
        # split; a float or a bool would quietly route on feature int(feature_index)
        with pytest.raises(ValueError, match="split on feature"):
            RegressionTree(Split(feature_index, 0.5, Leaf(1, 0.0), Leaf(2, 0.0)), 2)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            (Leaf(1, 0.0), Leaf(1, 0.0), "leaf id"),
            (Leaf(2, 0.0), Leaf(1, 0.0), "leaf id"),
            (Leaf(0, 0.0), Leaf(1, 0.0), "leaf id"),
            (Leaf(True, 0.0), Leaf(2, 0.0), "leaf id"),
            (Leaf(1, math.nan), Leaf(2, 0.0), "leaf value"),
            (Leaf(1, math.inf), Leaf(2, 0.0), "leaf value"),
            (Leaf(1, 0.0), Leaf(2, -math.inf), "leaf value"),
            (Leaf(1, True), Leaf(2, 0.0), "leaf value"),
            (Leaf(1, "3.5"), Leaf(2, 0.0), "leaf value"),
            (Leaf(1, 10**400), Leaf(2, 0.0), "leaf value"),
        ],
        ids=[
            "repeated-ids", "right-to-left-ids", "zero-based-ids", "true-id", "nan-value",
            "inf-value", "minus-inf-value", "true-value", "string-value", "huge-integer-value",
        ],
    )
    def test_rejects_leaves_a_model_file_cannot_hold(self, left, right, message):
        with pytest.raises(ValueError, match=message):
            RegressionTree(Split(0, 0.5, left, right), 1)

    @pytest.mark.parametrize(
        "threshold", [math.nan, math.inf, -math.inf, True, "3.5", 10**400],
        ids=["nan", "inf", "minus-inf", "true", "string", "huge-integer"],
    )
    def test_rejects_a_threshold_that_is_not_a_finite_real(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            RegressionTree(Split(0, threshold, Leaf(1, 0.0), Leaf(2, 0.0)), 1)

    @pytest.mark.parametrize(
        "n_features", [0, -1, True, 1.5, "1", None, [1]],
        ids=["zero", "negative", "true", "fraction", "string", "none", "list"],
    )
    def test_rejects_n_features_that_is_not_a_positive_integer(self, n_features):
        with pytest.raises(ValueError, match="n_features"):
            RegressionTree(Leaf(1, 0.0), n_features)

    def test_stores_numpy_and_integer_numbers_as_python_ints_and_floats(self):
        tree = RegressionTree(Split(np.int64(0), np.float32(0.5), Leaf(1, 2), Leaf(2, -1)), 1)
        assert tree.feature == (0, -1, -1) and type(tree.feature[0]) is int
        assert tree.threshold == (0.5, 0.0, 0.0) and type(tree.threshold[0]) is float
        assert tree.value == (0.0, 2.0, -1.0) and type(tree.value[1]) is float

    def test_apply_rejects_wrong_width(self, six_points):
        tree = fit_tree(six_points.features, np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5]))
        with pytest.raises(ValueError):
            tree.apply(np.array([1.0, 2.0]))

    def test_reference_thresholds_are_reachable_when_forced(self, reference_run):
        model, _ = reference_run
        roots = [(tree.root.feature_index, tree.root.threshold) for tree in model.trees]
        assert tuple(roots) == REFERENCE_SPLITS


@pytest.fixture(scope="module")
def deepest_model():
    """One tree of the largest allowed depth: alternating labels on 600 sorted
    rows leave a residual to split at every level."""
    n = 600
    rows = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.arange(n) % 2, ("x",))
    model, _ = train(rows, TrainConfig(n_trees=1, max_depth=MAX_TREE_DEPTH))
    assert model.trees[0].depth() == MAX_TREE_DEPTH
    return model


class TestTreeIdentity:
    """==, hash and repr read the flat column tuples, not the nested root."""

    def test_deepest_tree_compares_hashes_and_prints(self, deepest_model):
        tree = deepest_model.trees[0]
        copy = RegressionTree(tree.root, tree.n_features)
        assert copy is not tree
        assert copy == tree
        assert hash(copy) == hash(tree)
        assert repr(tree).startswith("RegressionTree(n_features=1, feature=(0, ")

    def test_deepest_model_survives_a_round_trip(self, deepest_model):
        assert deserialize_model(serialize_model(deepest_model)) == deepest_model

    def test_repr_lists_every_column(self):
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.25), Leaf(2, -0.5)), 1)
        assert repr(tree) == (
            "RegressionTree(n_features=1, feature=(0, -1, -1), threshold=(3.5, 0.0, 0.0),"
            " left=(1, 1, 2), right=(2, 1, 2), value=(0.0, 0.25, -0.5), leaf_id=(-1, 1, 2))"
        )

    @pytest.mark.parametrize(
        "other",
        [
            Split(0, 2.5, Split(0, 1.0, Leaf(1, 0.5), Leaf(2, -0.5)), Leaf(3, 0.25)),
            Split(0, 2.5, Split(0, 1.5, Leaf(1, 0.5), Leaf(2, -0.25)), Leaf(3, 0.25)),
            Split(1, 2.5, Split(0, 1.5, Leaf(1, 0.5), Leaf(2, -0.5)), Leaf(3, 0.25)),
            Split(0, 2.5, Leaf(1, 0.5), Split(0, 1.5, Leaf(2, -0.5), Leaf(3, 0.25))),
        ],
        ids=["one-threshold", "one-gamma", "one-feature", "mirrored-shape"],
    )
    def test_trees_that_differ_in_one_place_are_unequal(self, other):
        tree = RegressionTree(
            Split(0, 2.5, Split(0, 1.5, Leaf(1, 0.5), Leaf(2, -0.5)), Leaf(3, 0.25)), 2
        )
        assert RegressionTree(tree.root, 2) == tree
        assert RegressionTree(other, 2) != tree
        assert RegressionTree(tree.root, 3) != tree
        assert tree != tree.root
