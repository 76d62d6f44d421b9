"""Regression-tree split search and tree growth."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import (
    Dataset,
    Leaf,
    RegressionTree,
    Split,
    SplitCandidate,
    TrainConfig,
    best_split,
    deserialize_model,
    fit_tree,
    serialize_model,
    train,
)
from gradboost.tree import MAX_TREE_DEPTH

from conftest import (
    NOT_NUMBERS,
    REFERENCE_SPLITS,
    exhaustive_best,
    growth_cases,
    right_chain,
    tree_depth,
)


def _reference_best_split(features, residuals, instance_set, min_count=1):
    """The plain split scan: it visits every position of each sorted column,
    skips tied ones, and reads the running sums as numpy scalars.  best_split
    must equal it bit for bit, and so must any faster scan."""
    X = np.asarray(features, dtype=np.float64)
    idx = np.asarray(instance_set, dtype=np.intp)
    node_res = np.asarray(residuals, dtype=np.float64)[idx]
    n = idx.size
    if n < 2 or n < 2 * min_count:
        return None
    if np.all(node_res == node_res[0]):
        return None
    total = math.fsum(node_res.tolist())
    total_sq = math.fsum((node_res * node_res).tolist())
    node_sse = max(0.0, total_sq - total * total / n)
    best = None
    for f in range(X.shape[1]):
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        rs = node_res[order]
        rs_sq = rs * rs
        prefix = np.cumsum(rs)
        prefix_sq = np.cumsum(rs_sq)
        suffix = np.cumsum(rs[::-1])[::-1]
        suffix_sq = np.cumsum(rs_sq[::-1])[::-1]
        for i in range(min_count, n - min_count + 1):
            if xs[i - 1] == xs[i]:
                continue
            left_sum = float(prefix[i - 1])
            left_sq = float(prefix_sq[i - 1])
            right_sum = float(suffix[i])
            right_sq = float(suffix_sq[i])
            sse = max(0.0, left_sq - left_sum * left_sum / i) + max(
                0.0, right_sq - right_sum * right_sum / (n - i)
            )
            if sse < node_sse and (best is None or sse < best.sse_after):
                lower, upper = float(xs[i - 1]), float(xs[i])
                threshold = (lower + upper) / 2.0
                if not lower <= threshold < upper:
                    threshold = lower
                best = SplitCandidate(f, threshold, sse)
    return best


def _bits(candidate):
    """A SplitCandidate as exact bits, or None."""
    if candidate is None:
        return None
    return candidate.feature_index, candidate.threshold.hex(), candidate.sse_after.hex()


# huge values, whose midpoint overflows when both have one sign, the smallest
# subnormal, and 1.0 with the next two floats, the last two of which have a
# midpoint that rounds up: both force the lower-value threshold
EXTREME_VALUES = (
    -1.7e308, -1e308, 1e308, 1.7e308, 5e-324,
    1.0, math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0),
)


@st.composite
def split_search_cases(draw):
    """Up to 20 rows of one to three columns, each continuous, integers 0..3
    with many ties, or extreme values; residuals in [-1, 1]; an instance set
    that may be unsorted, repeat rows or be empty; min_count 1..3."""
    n = draw(st.integers(1, 20))
    continuous, tied = st.floats(-10.0, 10.0), st.integers(0, 3).map(float)
    kinds = st.sampled_from((continuous, tied, st.sampled_from(EXTREME_VALUES)))
    columns = draw(st.lists(kinds, min_size=1, max_size=3))
    X = np.array([draw(st.lists(kind, min_size=n, max_size=n)) for kind in columns]).T
    r = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    instance_set = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return X, r, instance_set, draw(st.integers(1, 3))


def _recursive_grow(X, res, idx, depth, max_depth, min_leaf, leaf_ids):
    """Reference grower: one recursive call per node, building nested
    Split/Leaf nodes; leaves take ids from leaf_ids, left subtree first."""
    if depth >= max_depth or idx.size < 2:
        return Leaf(next(leaf_ids), 0.0)
    candidate = best_split(X, res, idx, min_count=min_leaf)
    if candidate is None:
        return Leaf(next(leaf_ids), 0.0)
    go_left = X[idx, candidate.feature_index] <= candidate.threshold
    return Split(
        candidate.feature_index,
        candidate.threshold,
        _recursive_grow(X, res, idx[go_left], depth + 1, max_depth, min_leaf, leaf_ids),
        _recursive_grow(X, res, idx[~go_left], depth + 1, max_depth, min_leaf, leaf_ids),
    )


def _recursive_fit_root(features, residuals, max_depth, min_leaf):
    """The root fit_tree's tree must compile from."""
    X = np.asarray(features, dtype=np.float64)
    res = np.asarray(residuals, dtype=np.float64)
    idx = np.arange(X.shape[0], dtype=np.intp)
    return _recursive_grow(X, res, idx, 0, max_depth, min_leaf, itertools.count(1))


def _frame_depth():
    """How many frames the caller's call stack holds."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


# the leaf values of a right_chain of the deepest allowed depth: leaf j holds j / 4
DEEPEST_CHAIN_VALUES = [j / 4 for j in range(1, MAX_TREE_DEPTH + 2)]


# quarters, on which both trees below put thresholds, and any finite float
CELLS = st.one_of(st.integers(-16, 16).map(lambda k: k / 4), st.floats(-1e6, 1e6))
LEAF_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hand_built_trees(draw, n_features, max_depth=5):
    """A nested Split/Leaf tree on n_features with half-integer thresholds;
    its leaves are numbered left to right as they are drawn, left subtree first."""
    leaf_ids = itertools.count(1)

    def node(depth):
        if depth == max_depth or draw(st.booleans()):
            return Leaf(next(leaf_ids), draw(LEAF_VALUES))
        feature, threshold = draw(st.integers(0, n_features - 1)), draw(st.integers(-6, 6)) / 2
        return Split(feature, threshold, node(depth + 1), node(depth + 1))

    return RegressionTree(node(0), n_features)


@st.composite
def routing_cases(draw):
    """A tree, hand-built or grown by fit_tree with its leaf values redrawn,
    and a matrix of 0 to 20 rows to route through it."""
    n_features = draw(st.integers(1, 3))
    if draw(st.booleans()):
        tree = draw(hand_built_trees(n_features))
    else:
        n = draw(st.integers(1, 30))
        X = np.array(draw(st.lists(CELLS, min_size=n * n_features, max_size=n * n_features)))
        r = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        tree, _ = fit_tree(X.reshape(n, n_features), r, max_depth=draw(st.integers(1, 4)))
        tree = tree.with_leaf_values([draw(LEAF_VALUES) for _ in range(tree.n_leaves)])
    n_rows = draw(st.integers(0, 20))
    rows = draw(st.lists(CELLS, min_size=n_rows * n_features, max_size=n_rows * n_features))
    return tree, np.array(rows, dtype=np.float64).reshape(n_rows, n_features)


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
        # the node's SSE rounds to 1.1e-16 here, and the cut after 4 rows to
        # 8.3e-17: only the equal-residual check keeps that noise from a split
        x = np.arange(10, dtype=float).reshape(-1, 1)
        assert best_split(x, np.full(10, 0.18691333659165826), np.arange(10)) is None

    def test_a_cut_that_only_ties_the_node_is_no_split(self):
        # the one cut leaves, on its two sides of 0.5 together, the node's own SSE:
        # 4.0 for residuals of mean zero, and 0.25 for ones of mean 0.25, which a
        # starting best other than the node's SSE would take for a gain
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        for r in ([1.0, -1.0, 1.0, -1.0], [0.0, 0.5, 0.0, 0.5]):
            assert best_split(x, np.array(r), np.arange(4)) is None
            tree, leaf_rows = fit_tree(x, np.array(r), max_depth=3)
            assert tree == RegressionTree(Leaf(1, 0.0), 1)
            assert [rows.tolist() for rows in leaf_rows] == [[0, 1, 2, 3]]

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
        ref = exhaustive_best(six_points.features, r, [2, 3, 4, 5])
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
            ref = exhaustive_best(x, r, idx)
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
        tree, leaf_rows = fit_tree(x, r)
        assert [rows.tolist() for rows in leaf_rows] == [[0], [1]]
        assert [members.tolist() for members in tree.leaf_assignment(x).values()] == [[0], [1]]

    def test_a_side_whose_sse_rounds_below_zero_counts_as_zero(self):
        # the left side of the cut at 2.5 computes -3.469446951953614e-18
        x = np.arange(4.0).reshape(-1, 1)
        r = np.array([0.1, 0.1, 0.1, 0.9])
        found = best_split(x, r, np.arange(4))
        assert _bits(found) == _bits(_reference_best_split(x, r, np.arange(4)))
        assert _bits(found) == (0, (2.5).hex(), (0.0).hex())

    def test_a_side_whose_sse_is_nan_counts_as_zero(self):
        # every square overflows, so each side computes inf - inf = NaN
        x = np.arange(1.0, 5.0).reshape(-1, 1)
        r = np.array([1e160, -1e160, 1e160, -1e160])
        with np.errstate(over="ignore", invalid="ignore"):
            found = best_split(x, r, np.arange(4))
            expected = _reference_best_split(x, r, np.arange(4))
        assert _bits(found) == _bits(expected)
        assert _bits(found) == (0, (1.5).hex(), (0.0).hex())

    def test_refuses_features_that_are_not_a_matrix(self):
        message = re.escape("features must have shape (*, *), got (3,)")
        with pytest.raises(ValueError, match=message):
            best_split(np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.5, 0.5]), np.arange(3))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_features_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"features must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            best_split(cells, np.array([0.5, -0.5]), np.arange(2))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_residuals_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"residuals must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            best_split(np.array([[1.0], [2.0]]), np.ravel(cells), np.arange(2))

    def test_refuses_an_instance_index_past_the_rows(self):
        x, r = np.array([[1.0], [2.0], [3.0]]), np.array([0.5, -0.5, 0.5])
        with pytest.raises(ValueError, match="instance index 3 is not a row of a 3-row matrix"):
            best_split(x, r, np.array([0, 1, 3]))

    def test_refuses_a_negative_instance_index(self):
        # not read as row 2, counted from the end, which would find a split
        x, r = np.array([[1.0], [2.0], [3.0]]), np.array([0.5, -0.5, 0.5])
        with pytest.raises(ValueError, match="instance index -1 is not a row of a 3-row matrix"):
            best_split(x, r, np.array([0, -1, 1]))

    @given(split_search_cases())
    @settings(max_examples=300)
    def test_equals_the_reference_scan_bit_for_bit(self, case):
        X, r, instance_set, min_count = case
        found = best_split(X, r, instance_set, min_count=min_count)
        assert _bits(found) == _bits(_reference_best_split(X, r, instance_set, min_count))

    @pytest.mark.parametrize(
        "instance_set, message",
        [
            ([True, True, False, True], "bool (4,)"),
            ([0.5, 1.7, 2.2, 3.9], "float64 (4,)"),
            (["0", "1", "3"], "<U1 (3,)"),
            ([[0, 1], [1, 3]], "int64 (2, 2)"),
            (np.array(3), "int64 ()"),
        ],
        ids=["bool-mask", "floats", "digit-strings", "2-d", "0-d"],
    )
    def test_refuses_an_instance_set_that_is_not_a_1d_integer_array(self, instance_set, message):
        # rows 0, 1 and 3 split cleanly; a mask read as rows 1, 1, 0, 1 would
        # see constant residuals and quietly find nothing
        x, r = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.5, 0.5, 0.5, -0.5])
        assert best_split(x, r, [0, 1, 3]) == SplitCandidate(0, 3.0, 0.0)
        assert best_split(x, r, []) is None  # an empty list is an instance set
        full = re.escape(f"instance_set must be a 1-d array of row indices, got {message}")
        with pytest.raises(ValueError, match=full):
            best_split(x, r, instance_set)


class TestFitTree:
    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_features_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"features must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            fit_tree(cells, np.array([0.5, -0.5]))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_residuals_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"residuals must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            fit_tree(np.array([[1.0], [2.0]]), np.ravel(cells))

    @pytest.mark.parametrize(
        "features, message",
        [
            (np.array([1.0, 2.0]), re.escape("features must have shape (*, *), got (2,)")),
            (np.empty((0, 1)), "features must hold at least one row"),
        ],
        ids=["one-d", "no-rows"],
    )
    def test_refuses_features_that_are_not_a_matrix_of_rows(self, features, message):
        with pytest.raises(ValueError, match=message):
            fit_tree(features, np.zeros(len(features)))

    def test_learned_stump_on_first_round_residuals(self, six_points):
        r = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        tree, _ = fit_tree(six_points.features, r)
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
        tree, _ = fit_tree(x, r, max_depth=2)
        assert tree.root.threshold == 1.5
        assert tree.n_leaves == 3
        assert [leaf.leaf_id for leaf in tree.leaves()] == [1, 2, 3]
        right = tree.root.right
        assert right.threshold == 3.5
        assert tree_depth(tree) == 2

    def test_min_leaf_stops_growth(self):
        x = np.array([[1.0], [2.0], [3.0]])
        r = np.array([-1.0, 0.0, 1.0])
        tree, _ = fit_tree(x, r, min_leaf=2)
        assert tree.n_leaves == 1  # no legal cut keeps both children at >= 2

    def test_depth_never_exceeds_cap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            x = rng.uniform(0, 10, (n, 2))
            r = rng.uniform(-1, 1, n)
            cap = int(rng.integers(1, 4))
            tree, _ = fit_tree(x, r, max_depth=cap)
            assert tree_depth(tree) <= cap

    def test_leaf_ids_are_consecutive_left_to_right(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(0, 10, (40, 2))
        r = rng.uniform(-1, 1, 40)
        tree, _ = fit_tree(x, r, max_depth=3)
        assert [leaf.leaf_id for leaf in tree.leaves()] == list(range(1, tree.n_leaves + 1))

    def test_max_depth_is_limited(self):
        x, r = np.array([[0.0], [1.0]]), np.array([-0.5, 0.5])
        assert tree_depth(fit_tree(x, r, max_depth=MAX_TREE_DEPTH)[0]) == 1
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

    def test_refuses_more_residuals_than_rows(self, six_points):
        # not cut to the first six, which would still find a split
        r = np.resize([0.5, -0.5], 9)
        message = re.escape("residuals must have shape (6,), got (9,)")
        with pytest.raises(ValueError, match=message):
            fit_tree(six_points.features, r)
        with pytest.raises(ValueError, match=message):
            best_split(six_points.features, r, np.arange(6))

    @pytest.mark.parametrize(
        "shape", [(6, 1), (1, 6), (5,), ()], ids=["column", "row", "too-few", "scalar"]
    )
    def test_refuses_residuals_of_another_shape(self, six_points, shape):
        r = np.resize([0.5, -0.5], shape)
        message = "residuals must have shape " + re.escape(f"(6,), got {shape}")
        with pytest.raises(ValueError, match=message):
            fit_tree(six_points.features, r)
        with pytest.raises(ValueError, match=message):
            best_split(six_points.features, r, np.arange(6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_residuals(self, six_points, bad):
        # not a one-leaf tree: no candidate's SSE compares below a NaN node SSE
        r = np.array([0.5, -0.5, 0.5, bad, 0.5, -0.5])
        with pytest.raises(ValueError, match="residuals must be finite"):
            fit_tree(six_points.features, r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_features(self, six_points, bad):
        # not routed: a NaN cell fails every x <= threshold test, so it would go right
        x = six_points.features.copy()
        x[2, 0] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            fit_tree(x, np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5]))

    def test_leaf_assignment_partitions_instances(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 10, (25, 2))
        r = rng.uniform(-1, 1, 25)
        tree, _ = fit_tree(x, r, max_depth=2)
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
            tree, _ = fit_tree(x, rng.uniform(-1, 1, n), max_depth=depth)
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
        tree = RegressionTree(right_chain(DEEPEST_CHAIN_VALUES), 1)
        groups = tree.leaf_assignment(np.array([[0.0], [9e9]]))
        assert list(groups) == list(range(1, MAX_TREE_DEPTH + 2))
        assert groups[1].tolist() == [0] and groups[MAX_TREE_DEPTH + 1].tolist() == [1]
        with pytest.raises(ValueError, match=f"limit of {MAX_TREE_DEPTH} splits"):
            RegressionTree(right_chain(DEEPEST_CHAIN_VALUES + [0.0]), 1)

    @settings(max_examples=150)
    @given(growth_cases(30))
    def test_grows_the_tree_the_recursive_reference_grows(self, case):
        X, r, max_depth, min_leaf = case
        tree, _ = fit_tree(X, r, max_depth=max_depth, min_leaf=min_leaf)
        assert tree == RegressionTree(_recursive_fit_root(X, r, max_depth, min_leaf), X.shape[1])

    def test_growing_and_rewriting_the_deepest_tree_need_no_call_stack(self):
        # alternating residuals over sorted distinct x leave a cut at every level
        x = np.arange(600, dtype=float).reshape(-1, 1)
        r = np.arange(600) % 2 - 0.5
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 60)
        try:
            tree, leaf_rows = fit_tree(x, r, max_depth=MAX_TREE_DEPTH)
            rewritten = tree.with_leaf_values([0.5] + [leaf.value for leaf in tree.leaves()[1:]])
        finally:
            sys.setrecursionlimit(limit)
        assert tree_depth(tree) == tree_depth(rewritten) == MAX_TREE_DEPTH
        assert len(leaf_rows) == tree.n_leaves == MAX_TREE_DEPTH + 1
        routed = tree.leaf_assignment(x).values()
        assert all(np.array_equal(rows, members) for rows, members in zip(leaf_rows, routed))
        assert rewritten.leaves()[0] == Leaf(1, 0.5)
        assert rewritten.leaves()[1:] == tree.leaves()[1:]

    def test_fold_combines_children_before_their_split(self):
        tree = RegressionTree(
            Split(1, 2.5, Split(0, 1.5, Leaf(1, 0.5), Leaf(2, -0.5)), Leaf(3, 0.25)), 2
        )
        text = tree.fold(
            lambda leaf_id, value: f"{leaf_id}:{value}",
            lambda feature, threshold, left, right: f"(x{feature}<={threshold} {left} {right})",
        )
        assert text == "(x1<=2.5 (x0<=1.5 1:0.5 2:-0.5) 3:0.25)"
        assert tree.fold(Leaf, Split) == tree.root

    def test_with_leaf_values_rewrites_only_values(self):
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.0), Leaf(2, 0.0)), 1)
        updated = tree.with_leaf_values([2.0 / 3.0, -2.0 / 3.0])
        assert updated.root.threshold == tree.root.threshold
        assert updated.apply(np.array([1.0]))[1] == pytest.approx(2.0 / 3.0)
        assert updated.apply(np.array([9.0]))[1] == pytest.approx(-2.0 / 3.0)
        # original untouched
        assert tree.apply(np.array([1.0]))[1] == 0.0
        # the new tree holds a new value column and this tree's other columns
        assert updated.value == (0.0, 2.0 / 3.0, -2.0 / 3.0)
        for column in ("feature", "threshold", "right"):
            assert getattr(updated, column) is getattr(tree, column)
        assert tree_depth(updated) == tree_depth(tree) and updated.n_features == tree.n_features
        # one value per leaf, left to right: another count is refused, and so is
        # a mapping, whose keys would otherwise pass for the values
        for values in ([9.0], [9.0, 9.0, 9.0], []):
            message = re.escape(f"{len(values)} leaf values for a tree of 2 leaves")
            with pytest.raises(ValueError, match=message):
                tree.with_leaf_values(values)
        for values in ({1: 9.0, 2: 9.0}, {0.5: 1, -0.5: 2}):
            with pytest.raises(ValueError, match="not as a mapping"):
                tree.with_leaf_values(values)

    @pytest.mark.parametrize(
        "values, message",
        [
            (["0.5", 0.0], "leaf value must be a real number"),
            ([0.0, True], "leaf value must be a real number"),
            ([float("nan"), 0.0], "leaf value must be finite"),
        ],
        ids=["string", "bool", "nan"],
    )
    def test_with_leaf_values_refuses_what_the_constructor_refuses(self, values, message):
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.0), Leaf(2, 0.0)), 1)
        with pytest.raises(ValueError, match=message):
            tree.with_leaf_values(values)
        leaves = [Leaf(i, value) for i, value in enumerate(values, start=1)]
        with pytest.raises(ValueError, match=message):
            RegressionTree(Split(0, 3.5, *leaves), 1)

    def test_apply_sends_boundary_point_left(self):
        x = np.array([[1.0], [3.0]])
        tree, _ = fit_tree(x, np.array([1.0, -1.0]))
        threshold = tree.root.threshold
        leaf_id, _ = tree.apply(np.array([threshold]))
        assert leaf_id == 1

    def test_single_instance_tree_is_one_leaf(self):
        tree, _ = fit_tree(np.array([[5.0]]), np.array([0.3]))
        assert tree.n_leaves == 1
        assert tree_depth(tree) == 0

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
            (5, Leaf(2, 0.0), "Split or a Leaf, got int"),
            (None, Leaf(2, 0.0), "Split or a Leaf, got NoneType"),
            ({"leaf_id": 1, "gamma": 0.0}, Leaf(2, 0.0), "Split or a Leaf, got dict"),
            (Leaf(1, 0.0), None, "Split or a Leaf, got NoneType"),
        ],
        ids=[
            "repeated-ids", "right-to-left-ids", "zero-based-ids", "true-id", "nan-value",
            "inf-value", "minus-inf-value", "true-value", "string-value", "huge-integer-value",
            "integer-child", "none-child", "dict-child", "none-right-child",
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
        tree, _ = fit_tree(six_points.features, np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5]))
        with pytest.raises(ValueError):
            tree.apply(np.array([1.0, 2.0]))

    def test_reference_thresholds_are_reachable_when_forced(self, reference_run):
        model, _ = reference_run
        roots = [(tree.root.feature_index, tree.root.threshold) for tree in model.trees]
        assert tuple(roots) == REFERENCE_SPLITS


class TestLeafAssignment:
    """leaf_assignment routes a whole matrix at once as apply routes each row."""

    @settings(max_examples=200)
    @given(routing_cases())
    def test_routes_each_row_as_apply_does(self, case):
        tree, X = case
        _assert_groups_match_apply(tree, X, tree.leaf_assignment(X))

    def test_routes_down_the_deepest_chain_and_no_rows(self):
        tree = RegressionTree(right_chain(DEEPEST_CHAIN_VALUES), 1)
        X = np.arange(-1.0, MAX_TREE_DEPTH + 2.0, 0.5).reshape(-1, 1)
        groups = tree.leaf_assignment(X)
        _assert_groups_match_apply(tree, X, groups)
        _assert_groups_match_apply(tree, X[:0], tree.leaf_assignment(X[:0]))
        assert groups[1][0] == 0 and groups[MAX_TREE_DEPTH + 1][-1] == len(X) - 1

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2,), (0, 3)])
    def test_refuses_a_matrix_of_another_width(self, shape):
        tree = RegressionTree(Split(1, 0.5, Leaf(1, 0.25), Leaf(2, -0.5)), 2)
        message = re.escape(f"features must have shape (*, 2), got {shape}")
        with pytest.raises(ValueError, match=message):
            tree.leaf_assignment(np.zeros(shape))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_a_matrix_that_is_not_numbers(self, cells, dtype):
        tree = RegressionTree(Split(0, 0.5, Leaf(1, 0.25), Leaf(2, -0.5)), 1)
        message = re.escape(f"features must hold numbers, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            tree.leaf_assignment(cells)


@pytest.fixture(scope="module")
def deepest_model():
    """One tree of the largest allowed depth: alternating labels on 600 sorted
    rows leave a residual to split at every level."""
    n = 600
    rows = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.arange(n) % 2, ("x",))
    model, _ = train(rows, TrainConfig(n_trees=1, max_depth=MAX_TREE_DEPTH))
    assert tree_depth(model.trees[0]) == MAX_TREE_DEPTH
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
            " right=(2, -1, -1), value=(0.0, 0.25, -0.5))"
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
