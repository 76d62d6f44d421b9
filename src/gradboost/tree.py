"""Greedy least-squares regression trees with integer-numbered leaves."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Deep enough for any practical tree, and shallow enough that growing,
# serializing and loading one stays under Python's default recursion limit.
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
    values within the node.  Returns the SplitCandidate minimizing the summed
    children SSE, or None when no candidate strictly reduces the node's SSE.
    Ties break toward the lowest feature index, then the lowest threshold.
    min_count restricts candidates to those leaving at least that many
    instances on each side.
    """
    X = np.asarray(features, dtype=np.float64)
    idx = np.asarray(instance_set, dtype=np.intp)
    node_res = np.asarray(residuals, dtype=np.float64)[idx]
    n = idx.size
    if n < 2 or n < 2 * min_count:
        return None
    if np.all(node_res == node_res[0]):
        return None  # SSE is already zero, nothing to reduce
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
        # accumulate the right side from its own elements rather than
        # subtracting from the node total: subtraction leaves cancellation
        # noise that can perturb exactly tied candidates off the documented
        # lowest-feature/lowest-threshold tie-break
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
                threshold = float((xs[i - 1] + xs[i]) / 2.0)
                best = SplitCandidate(f, threshold, sse)
    return best


# the compiled columns of a RegressionTree, in the order of its _lists
_COLUMNS = ("feature", "threshold", "left", "right", "value", "leaf_id")


@dataclass(frozen=True, eq=False, repr=False)
class RegressionTree:
    """Immutable fitted tree.  Routing uses x[feature] <= threshold for the
    left branch; leaf ids run 1..J in left-to-right order.

    Construction compiles root once into parallel arrays over the nodes in
    preorder, left subtree first, so node 0 is the root and the leaves come
    left to right: feature (-1 marks a leaf), threshold, left and right child
    indices (a leaf is its own child, so routing leaves a row there), value
    (0.0 at a split) and leaf_id (-1 at a split).  Equality, hashing and
    repr read these columns, never the nested root, so a tree of any depth
    can be compared and printed.
    """

    root: Split | Leaf
    n_features: int
    feature: np.ndarray = field(init=False)
    threshold: np.ndarray = field(init=False)
    left: np.ndarray = field(init=False)
    right: np.ndarray = field(init=False)
    value: np.ndarray = field(init=False)
    leaf_id: np.ndarray = field(init=False)
    _depth: int = field(init=False)
    # the same arrays as Python lists, for walking one row without numpy scalars
    _lists: tuple = field(init=False)

    def __post_init__(self):
        columns = ([], [], [], [], [], [])
        feature, threshold, left, right, value, leaf_id = columns
        # (node, the split whose right child it is or -1, its depth)
        depth, pending = 0, [(self.root, -1, 0)]
        while pending:
            node, parent, d = pending.pop()
            i, depth = len(feature), max(depth, d)
            if parent >= 0:
                right[parent] = i
            if isinstance(node, Leaf):
                entries = (-1, 0.0, i, i, float(node.value), int(node.leaf_id))
            elif _is_index(node.feature_index) and 0 <= node.feature_index < self.n_features:
                # the left child is popped next, as it is pushed last
                entries = (int(node.feature_index), float(node.threshold), i + 1, -1, 0.0, -1)
                pending += [(node.right, i, d + 1), (node.left, -1, d + 1)]
            else:
                raise ValueError(
                    f"split on feature {node.feature_index} of a {self.n_features}-feature tree"
                )
            for column, entry in zip(columns, entries):
                column.append(entry)
        dtypes = (np.intp, np.float64, np.intp, np.intp, np.float64, np.intp)
        for name, column, dtype in zip(_COLUMNS, columns, dtypes):
            array = np.array(column, dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_depth", depth)
        object.__setattr__(self, "_lists", columns)

    def __eq__(self, other):
        if not isinstance(other, RegressionTree):
            return NotImplemented
        return self.n_features == other.n_features and self._lists == other._lists

    def __hash__(self):
        # only the integer columns: thresholds and values compare as floats,
        # where 0.0 == -0.0 although their bytes differ
        return hash((self.n_features, self.feature.tobytes(), self.leaf_id.tobytes()))

    def __repr__(self):
        columns = ", ".join(f"{name}={column}" for name, column in zip(_COLUMNS, self._lists))
        return f"RegressionTree(n_features={self.n_features}, {columns})"

    def _walk(self, row: list) -> tuple[int, float]:
        """(leaf_id, value) of the leaf one row reaches; row is a list of
        Python floats of the tree's width, walked without numpy scalars."""
        feature, threshold, left, right, value, leaf_id = self._lists
        i = 0
        while feature[i] >= 0:
            i = left[i] if row[feature[i]] <= threshold[i] else right[i]
        return leaf_id[i], value[i]

    def apply(self, x) -> tuple[int, float]:
        """Route one instance to its leaf; returns (leaf_id, value)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[0]}")
        return self._walk(x.tolist())

    def apply_batch(self, features) -> tuple[np.ndarray, np.ndarray]:
        """apply of every row of a matrix, as (leaf ids, values) arrays: all
        rows are routed together, one level at a time."""
        X = np.ascontiguousarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected rows of {self.n_features} features, got shape {X.shape}")
        n_rows, width = X.shape
        cells, row_starts = X.ravel(), np.arange(n_rows) * width
        # a row at node i moves to children[i + n_nodes] when it goes left and
        # to children[i] when it goes right; at a leaf it stays where it is
        # (feature -1 reads the previous cell, which decides nothing)
        n_nodes = self.feature.size
        children = np.concatenate([self.right, self.left])
        nodes = np.zeros(n_rows, dtype=np.intp)
        for _ in range(self._depth):
            at = row_starts + self.feature.take(nodes)
            go_left = cells.take(at) <= self.threshold.take(nodes)
            nodes = children.take(nodes + go_left * n_nodes)
        return self.leaf_id.take(nodes), self.value.take(nodes)

    def leaves(self) -> list[Leaf]:
        """All leaves in left-to-right order."""
        at_leaf = self.feature < 0
        return list(map(Leaf, self.leaf_id[at_leaf].tolist(), self.value[at_leaf].tolist()))

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def depth(self) -> int:
        return self._depth

    def leaf_assignment(self, features) -> dict[int, np.ndarray]:
        """Map each leaf id to the ascending row indices routed to it.

        Every leaf id appears as a key, in left-to-right order, with an empty
        array when nothing reaches it; the member arrays partition the rows.
        Rows are routed with the same x[feature] <= threshold rule as apply,
        in one apply_batch pass, then each leaf id takes the rows that reached
        it, so a hand-built tree that repeats an id gets one merged group.
        """
        ids, _ = self.apply_batch(features)
        # one scan of ids per leaf: faster than a stable sort for the few
        # leaves of a boosting tree (4 leaves: 87 vs 143 us on 1,500 rows)
        return {
            leaf_id: np.flatnonzero(ids == leaf_id)
            for leaf_id in self.leaf_id[self.feature < 0].tolist()
        }

    def with_leaf_values(self, values: dict[int, float]) -> "RegressionTree":
        """New tree with leaf values replaced by the given id -> value map."""
        feature, threshold, left, right, value, leaf_id = self._lists
        # children follow their parent in preorder, so one backward pass
        # builds every subtree before the split that holds it
        nodes: list = [None] * len(feature)
        for i in reversed(range(len(feature))):
            if feature[i] < 0:
                nodes[i] = Leaf(leaf_id[i], float(values.get(leaf_id[i], value[i])))
            else:
                nodes[i] = Split(feature[i], threshold[i], nodes[left[i]], nodes[right[i]])
        return RegressionTree(nodes[0], self.n_features)


def _is_index(value) -> bool:
    # a bool or a float would quietly route on feature int(value)
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _grow(X, res, idx, depth, max_depth, min_leaf, leaf_ids):
    """Grow one subtree; leaves take ids from leaf_ids, left subtree first."""
    if depth >= max_depth or idx.size < 2:
        return Leaf(next(leaf_ids), 0.0)
    candidate = best_split(X, res, idx, min_count=min_leaf)
    if candidate is None:
        return Leaf(next(leaf_ids), 0.0)
    go_left = X[idx, candidate.feature_index] <= candidate.threshold
    return Split(
        candidate.feature_index,
        candidate.threshold,
        _grow(X, res, idx[go_left], depth + 1, max_depth, min_leaf, leaf_ids),
        _grow(X, res, idx[~go_left], depth + 1, max_depth, min_leaf, leaf_ids),
    )


def fit_tree(
    features,
    residuals,
    *,
    max_depth: int = 1,
    min_leaf: int = 1,
    forced_split: tuple[int, float] | None = None,
) -> RegressionTree:
    """Grow a depth-limited tree by greedy SSE splitting.

    Leaves start with value 0.0; the booster fills them in afterwards.
    forced_split=(feature_index, threshold) skips the search and builds that
    exact stump; it is only valid with max_depth=1.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    res = np.asarray(residuals, dtype=np.float64)
    if not 1 <= max_depth <= MAX_TREE_DEPTH:
        raise ValueError(f"max_depth must be in 1..{MAX_TREE_DEPTH}")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    idx = np.arange(X.shape[0], dtype=np.intp)
    if idx.size == 0:
        raise ValueError("features must hold at least one row")
    if forced_split is not None:
        if max_depth != 1:
            raise ValueError("forced_split is only valid with max_depth=1")
        feature_index, threshold = forced_split
        feature_index = int(feature_index)
        if not 0 <= feature_index < X.shape[1]:
            raise ValueError(f"forced split feature index {feature_index} out of range")
        root = Split(feature_index, float(threshold), Leaf(1, 0.0), Leaf(2, 0.0))
    else:
        root = _grow(X, res, idx, 0, max_depth, min_leaf, itertools.count(1))
    return RegressionTree(root=root, n_features=X.shape[1])
