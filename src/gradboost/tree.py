"""Greedy least-squares regression trees with integer-numbered leaves."""

from __future__ import annotations

import copy
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import float_array

# Deep enough for any practical tree, and shallow enough that json, which recurses
# once per split of a v1 model file, writes and reads one under the default limit.
MAX_TREE_DEPTH = 512


@dataclass(frozen=True)
class SplitCandidate:
    """Best (feature, threshold) found for one node; sse_after sums both children."""

    feature_index: int
    threshold: float
    sse_after: float


@dataclass(frozen=True, slots=True)
class Leaf:
    leaf_id: int
    value: float


@dataclass(frozen=True, slots=True)
class Split:
    feature_index: int
    threshold: float
    left: "Split | Leaf"
    right: "Split | Leaf"


def best_split(features, residuals, instance_set, min_count: int = 1):
    """Exhaustive least-squares split search over one node's instances.

    Candidate thresholds are midpoints of adjacent distinct sorted feature
    values within the node, or the lower value where the midpoint is not in
    [lower, upper) (huge or adjacent floats), so a threshold always separates
    its pair.  Returns the SplitCandidate minimizing the summed children SSE,
    or None when no candidate strictly reduces the node's SSE.
    Ties break toward the lowest feature index, then the lowest threshold.
    min_count restricts candidates to those leaving at least that many
    instances on each side; only these distinct cut points are scanned.
    features must be a matrix of numbers (float_array), residuals one number
    per row of it and instance_set a 1-d array of integer rows of it (an empty
    list too), or a ValueError names what is wrong; finite features and
    residuals are the caller's duty (fit_tree checks them once per tree).
    """
    positive_int(min_count, "min_count")
    X = float_array(features, "features", (None, None))
    idx = np.asarray(instance_set)
    if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":  # not a bool mask, floats, strings
        raise ValueError(f"instance_set must be a 1-d array of row indices, got {idx.dtype} {idx.shape}")
    if idx.size and not (idx.min() >= 0 and idx.max() < X.shape[0]):
        bad = idx.min() if idx.min() < 0 else idx.max()
        raise ValueError(f"instance index {bad} is not a row of a {X.shape[0]}-row matrix")
    idx = idx.astype(np.intp, copy=False)  # an empty list reads as float64
    node_res = float_array(residuals, "residuals", (X.shape[0],))[idx]
    n = idx.size
    if n < 2 * min_count:  # min_count >= 1, so this takes every node of fewer than two rows
        return None
    if (node_res == node_res[0]).all():
        return None  # SSE is already zero, nothing to reduce
    total = math.fsum(node_res.tolist())
    total_sq = math.fsum((node_res * node_res).tolist())
    # a candidate must beat the best so far, which starts as the unsplit node
    best, best_sse = None, max(0.0, total_sq - total * total / n)
    for f in range(X.shape[1]):
        col = X[idx, f]
        order = col.argsort(kind="stable")
        xs = col[order]
        rs = node_res[order]
        rs_sq = rs * rs
        prefix = rs.cumsum()
        prefix_sq = rs_sq.cumsum()
        # accumulate the right side from its own elements rather than
        # subtracting from the node total: subtraction leaves cancellation
        # noise that can perturb exactly tied candidates off the documented
        # lowest-feature/lowest-threshold tie-break
        suffix = rs[::-1].cumsum()[::-1]
        suffix_sq = rs_sq[::-1].cumsum()[::-1]
        # cut i sends rows :i left: xs[i - 1] != xs[i], and min_count <= i <= n - min_count
        cut = min_count + (xs[:-1] != xs[1:])[min_count - 1 : n - min_count].nonzero()[0]
        last = cut - 1
        # memoryviews hand out Python ints and floats one at a time, building no list of them
        cuts = cut, prefix[last], prefix_sq[last], suffix[cut], suffix_sq[cut]
        for i, left_sum, left_sq, right_sum, right_sq in zip(*map(memoryview, cuts)):
            left = left_sq - left_sum * left_sum / i
            right = right_sq - right_sum * right_sum / (n - i)
            # each side as max(0.0, v), the same float for every v, NaN included, with no call
            sse = (left if left > 0.0 else 0.0) + (right if right > 0.0 else 0.0)
            if sse < best_sse:
                best, best_sse = (f, i, xs), sse  # the winning cut; its threshold is read once, below
        del cuts  # before the next feature gathers its own
    if best is None:
        return None
    f, i, xs = best
    lower, upper = xs[i - 1 : i + 1].tolist()
    threshold = (lower + upper) / 2.0  # lower when the sum overflows, or rounds up to upper
    return SplitCandidate(f, threshold if lower <= threshold < upper else lower, best_sse)


@dataclass(frozen=True, init=False)
class RegressionTree:
    """Immutable fitted tree.  Routing uses x[feature] <= threshold for the
    left branch; leaf ids run 1..J in left-to-right order.

    Stored only as four tuples over the nodes in preorder, left subtree
    first: feature (-1 marks a leaf), threshold, right child index (-1 at a
    leaf) and value (0.0 at a split).  Preorder fixes the rest: node 0 is the
    root, a split's left child is the next node, and leaf j is the j-th from
    the left.  The generated ==, hash and repr read these flat tuples, so a
    tree of any depth compares and prints.
    """

    n_features: int
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    _depth: int = field(repr=False, compare=False)

    def __init__(self, root: Split | Leaf, n_features: int):
        """Compile root, a Split or a Leaf, as _compile does."""
        self._compile(root, n_features, lambda node: node)

    @classmethod
    def _read(cls, root, n_features: int, read) -> "RegressionTree":
        (tree := cls.__new__(cls))._compile(root, n_features, read)
        return tree

    def _compile(self, root, n_features: int, read) -> None:
        """Compile into the columns, in one preorder pass, the tree read builds
        from root: read(node) gives a Leaf, or a Split whose children are still
        to be read.  Refuses what a model file could not hold: n_features not an
        integer >= 1, a split feature not an integer in [0, n_features), a node
        neither a Split nor a Leaf, a threshold or leaf value not a finite real,
        leaf ids other than 1, 2, ... left to right, or a path of more than
        MAX_TREE_DEPTH splits."""
        positive_int(n_features, "n_features")
        rows = []  # one [feature, threshold, right, value] per node, in preorder
        # (node still to be read, the split whose right child it is or -1, its depth)
        depth, n_leaves, pending = 0, 0, [(root, -1, 0)]
        while pending:
            node, parent, d = pending.pop()
            node, i, depth = read(node), len(rows), max(depth, d)
            if parent >= 0:
                rows[parent][2] = i
            if isinstance(node, Leaf):
                # preorder, left subtree first, meets the leaves left to right
                n_leaves += 1
                if not (is_int(node.leaf_id) and node.leaf_id == n_leaves):
                    raise ValueError(f"leaf id {node.leaf_id!r} out of order, expected {n_leaves}")
                rows.append([-1, 0.0, -1, finite_real(node.value, "leaf value")])
            elif not isinstance(node, Split):
                raise ValueError(f"tree node must be a Split or a Leaf, got {type(node).__name__}")
            elif d == MAX_TREE_DEPTH:
                raise ValueError(f"tree is deeper than the limit of {MAX_TREE_DEPTH} splits")
            elif is_int(node.feature_index) and 0 <= node.feature_index < n_features:
                rows.append([int(node.feature_index), finite_real(node.threshold, "threshold"), -1, 0.0])
                # the left child is popped next, as it is pushed last
                pending += [(node.right, i, d + 1), (node.left, -1, d + 1)]
            else:
                raise ValueError(f"split on feature {node.feature_index!r} of a {n_features}-feature tree")
        for f, attribute in zip(fields(self), (n_features, *zip(*rows), depth)):  # rows to columns
            object.__setattr__(self, f.name, attribute)

    def apply(self, x) -> tuple[int, float]:
        """Route one instance to its leaf; returns (leaf_id, value)."""
        row = row_values(x, self.n_features)
        feature, threshold, right = self.feature, self.threshold, self.right
        i = 0
        while (f := feature[i]) >= 0:  # a split's left child is the next node
            i = i + 1 if row[f] <= threshold[i] else right[i]
        return feature[:i].count(-1) + 1, self.value[i]

    def _route(self, cells: np.ndarray, row_starts: np.ndarray) -> np.ndarray:
        """The preorder node each row of a matrix_cells matrix ends at."""
        # a row at node i moves to children[i + n_nodes] when it goes left and
        # to children[i] when it goes right; a leaf is both of its own children,
        # so a row stays there (feature -1 reads the previous cell, which decides nothing)
        n_nodes = len(self.feature)
        feature = np.array(self.feature, dtype=np.intp)
        threshold = float_array(self.threshold, "thresholds")
        index, leaf = np.arange(n_nodes), feature < 0
        children = np.concatenate((np.where(leaf, index, self.right), index + ~leaf))
        nodes = np.zeros(len(row_starts), dtype=np.intp)
        for _ in range(self._depth):
            at = row_starts + feature.take(nodes)
            go_left = cells.take(at) <= threshold.take(nodes)
            nodes = children.take(nodes + go_left * n_nodes)
        return nodes

    def leaves(self) -> list[Leaf]:
        """All leaves in left-to-right order."""
        values = [v for f, v in zip(self.feature, self.value) if f < 0]
        return [Leaf(leaf_id, v) for leaf_id, v in enumerate(values, start=1)]

    @property
    def n_leaves(self) -> int:
        return self.feature.count(-1)

    def leaf_assignment(self, features) -> dict[int, np.ndarray]:
        """Map each leaf id to the ascending row indices routed to it.

        Every leaf id appears as a key, in left-to-right order, with an empty
        array when nothing reaches it; the member arrays partition the rows.
        Rows are routed with the same x[feature] <= threshold rule as apply,
        all together one level at a time, then each leaf takes the rows that
        ended at its node.
        """
        nodes = self._route(*matrix_cells(features, self.n_features))
        # one scan of nodes per leaf: faster than a stable sort for the few
        # leaves of a boosting tree (4 leaves: 87 vs 143 us on 1,500 rows);
        # preorder meets the leaves in id order
        leaf_nodes = [i for i, f in enumerate(self.feature) if f < 0]
        return {leaf_id: np.flatnonzero(nodes == i) for leaf_id, i in enumerate(leaf_nodes, start=1)}

    @property
    def root(self) -> Split | Leaf:
        """The nested Split/Leaf form, rebuilt from the columns on each read."""
        return self.fold(Leaf, Split)

    def with_leaf_values(self, values) -> "RegressionTree":
        """New tree whose leaves hold values, one per leaf, left to right, each
        checked as a leaf value.  A mapping, whose keys would pass for values,
        and a count other than n_leaves are a ValueError.  It shares every
        other column with this tree."""
        if isinstance(values, Mapping):
            raise ValueError("leaf values must be given in leaf order, not as a mapping")
        given = [finite_real(v, "leaf value") for v in values]
        if len(given) != self.n_leaves:
            raise ValueError(f"{len(given)} leaf values for a tree of {self.n_leaves} leaves")
        leaf_values = iter(given)
        value = tuple(v if f >= 0 else next(leaf_values) for f, v in zip(self.feature, self.value))
        tree = copy.copy(self)
        object.__setattr__(tree, "value", value)
        return tree

    def fold(self, leaf, split):
        """leaf(leaf_id, value) at each leaf, split(feature, threshold, left, right)
        of its children's results at each split: one backward pass over the
        preorder, which puts children after their parent.  Returns the root's."""
        feature, threshold, right, value = self.feature, self.threshold, self.right, self.value
        folded: list = [None] * len(feature)
        leaf_id = self.n_leaves + 1  # counts down, as the pass meets the leaves right to left
        for i in reversed(range(len(feature))):
            if feature[i] < 0:
                folded[i] = leaf(leaf_id := leaf_id - 1, value[i])
            else:
                folded[i] = split(feature[i], threshold[i], folded[i + 1], folded[right[i]])
        return folded[0]


def row_values(x, n_features: int) -> list[float]:
    """One row, given as a 1-d array, list or tuple of n_features finite
    numbers, as a list of Python floats.  Anything else, a bare number, a
    2-d array of as many cells, strings or bools included, is refused with a
    ValueError naming its dtype or shape (float_array), or the position of
    its first NaN or infinity."""
    row = float_array(x, "a row", (n_features,)).tolist()
    # ~0.15 us on 8 cells, against ~1.9 us for np.isfinite; finite cells may overflow the sum
    if not math.isfinite(sum(row)):
        for position, value in enumerate(row):
            if not math.isfinite(value):
                raise ValueError(f"row value at position {position} is {value!r}, not finite")
    return row


def matrix_cells(features, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """A matrix of rows of n_features finite features as (its float64 cells in
    row order, the index of each row's first cell), the form RegressionTree
    routes a batch in.  Refuses, as row_values does a row, any other shape or
    dtype and a NaN or an infinity, with a ValueError (float_array)."""
    X = np.ascontiguousarray(float_array(features, "features", (None, n_features), finite=True))
    return X.ravel(), np.arange(X.shape[0]) * n_features


def is_int(value) -> bool:
    # not a bool or a float, which would quietly route on feature int(value);
    # the exact type comes first, as the common case and far cheaper than the ABC
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def positive_int(value, what: str, limit: int | None = None) -> int:
    """value when it is an integer >= 1, and <= limit when one is given;
    a bool, a float (even 2.0) or a string is refused, not coerced."""
    if is_int(value) and value >= 1 and (limit is None or value <= limit):
        return value
    bounds = ">= 1" if limit is None else f"in 1..{limit}"
    raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


def finite_real(value, what: str) -> float:
    """value as a float, refusing a bool, a string or any other non-real, NaN,
    an infinity and an integer too large for a float."""
    if type(value) is not float:  # the common case skips the ABC check
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{what} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def fit_tree(features, residuals, *, max_depth: int = 1, min_leaf: int = 1):
    """Grow a depth-limited tree by greedy SSE splitting, in preorder, with leaf values 0.0.
    Returns (tree, leaf_rows): leaf_rows[j] holds leaf j + 1's ascending row indices."""
    # finite once per tree: best_split trusts its nodes
    X = float_array(features, "features", (None, None), finite=True)
    res = float_array(residuals, "residuals", (X.shape[0],), finite=True)
    positive_int(max_depth, "max_depth", MAX_TREE_DEPTH)
    positive_int(min_leaf, "min_leaf")
    if X.shape[0] == 0:
        raise ValueError("features must hold at least one row")
    leaf_rows: list[np.ndarray] = []

    def grow(node: tuple[np.ndarray, int]) -> Split | Leaf:
        """Rows and depth as a leaf, or as their best split into two sides still to grow."""
        idx, depth = node
        best = depth < max_depth and best_split(X, res, idx, min_count=min_leaf)
        if not best:
            leaf_rows.append(idx)
            return Leaf(len(leaf_rows), 0.0)
        go_left = X[idx, best.feature_index] <= best.threshold
        sides = (idx[go_left], depth + 1), (idx[~go_left], depth + 1)
        return Split(best.feature_index, best.threshold, *sides)

    return RegressionTree._read((np.arange(X.shape[0], dtype=np.intp), 0), X.shape[1], grow), leaf_rows
