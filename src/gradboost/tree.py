"""Greedy least-squares regression trees with integer-numbered leaves."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields

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
    values within the node, or the lower value where the midpoint is not in
    [lower, upper) (huge or adjacent floats), so a threshold always separates
    its pair.  Returns the SplitCandidate minimizing the summed children SSE,
    or None when no candidate strictly reduces the node's SSE.
    Ties break toward the lowest feature index, then the lowest threshold.
    min_count restricts candidates to those leaving at least that many
    instances on each side.
    """
    positive_int(min_count, "min_count")
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
                lower, upper = float(xs[i - 1]), float(xs[i])
                threshold = (lower + upper) / 2.0
                if not lower <= threshold < upper:
                    threshold = lower  # the sum overflowed, or rounded up to upper
                best = SplitCandidate(f, threshold, sse)
    return best


@dataclass(frozen=True, init=False)
class RegressionTree:
    """Immutable fitted tree.  Routing uses x[feature] <= threshold for the
    left branch; leaf ids run 1..J in left-to-right order.

    The tree is stored only as parallel tuples over its nodes in preorder,
    left subtree first, so node 0 is the root and the leaves come left to
    right: feature (-1 marks a leaf), threshold, left and right child indices
    (a leaf is its own child, so routing leaves a row there), value (0.0 at a
    split) and leaf_id (-1 at a split).  The generated ==, hash and repr read
    these flat tuples, so a tree of any depth compares and prints.
    """

    n_features: int
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    leaf_id: tuple[int, ...]
    # the six columns above as one tuple, so a walk reads them in one lookup
    _columns: tuple = field(repr=False, compare=False)
    _depth: int = field(repr=False, compare=False)

    def __init__(self, root: Split | Leaf, n_features: int):
        """Compile root into the columns in one pass, refusing what a model file
        could not hold: n_features not an integer >= 1, a split feature not an
        integer in [0, n_features), a threshold or leaf value not a finite
        real, leaf ids other than 1, 2, ... left to right, or a path of more
        than MAX_TREE_DEPTH splits."""
        positive_int(n_features, "n_features")
        columns = ([], [], [], [], [], [])
        feature, threshold, left, right, value, leaf_id = columns
        # (node, the split whose right child it is or -1, its depth)
        depth, n_leaves, pending = 0, 0, [(root, -1, 0)]
        while pending:
            node, parent, d = pending.pop()
            i, depth = len(feature), max(depth, d)
            if parent >= 0:
                right[parent] = i
            if isinstance(node, Leaf):
                # preorder, left subtree first, meets the leaves left to right
                n_leaves += 1
                if not (is_int(node.leaf_id) and node.leaf_id == n_leaves):
                    raise ValueError(f"leaf id {node.leaf_id!r} out of order, expected {n_leaves}")
                entries = (-1, 0.0, i, i, finite_real(node.value, "leaf value"), n_leaves)
            elif d == MAX_TREE_DEPTH:
                raise ValueError(f"tree is deeper than the limit of {MAX_TREE_DEPTH} splits")
            elif is_int(node.feature_index) and 0 <= node.feature_index < n_features:
                # the left child is popped next, as it is pushed last
                split_at = finite_real(node.threshold, "threshold")
                entries = (int(node.feature_index), split_at, i + 1, -1, 0.0, -1)
                pending += [(node.right, i, d + 1), (node.left, -1, d + 1)]
            else:
                raise ValueError(
                    f"split on feature {node.feature_index!r} of a {n_features}-feature tree"
                )
            for column, entry in zip(columns, entries):
                column.append(entry)
        columns = tuple(map(tuple, columns))
        for f, attribute in zip(fields(self), (n_features, *columns, columns, depth)):
            object.__setattr__(self, f.name, attribute)

    def _walk(self, row: list) -> tuple[int, float]:
        """(leaf_id, value) of the leaf a row, a list of Python floats, reaches."""
        feature, threshold, left, right, value, leaf_id = self._columns
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
        n_nodes = len(self.feature)
        feature = np.array(self.feature, dtype=np.intp)
        threshold = np.array(self.threshold, dtype=np.float64)
        children = np.array(self.right + self.left, dtype=np.intp)
        nodes = np.zeros(n_rows, dtype=np.intp)
        for _ in range(self._depth):
            at = row_starts + feature.take(nodes)
            go_left = cells.take(at) <= threshold.take(nodes)
            nodes = children.take(nodes + go_left * n_nodes)
        return np.array(self.leaf_id, dtype=np.intp).take(nodes), np.array(self.value).take(nodes)

    def leaves(self) -> list[Leaf]:
        """All leaves in left-to-right order."""
        return [Leaf(i, v) for f, i, v in zip(self.feature, self.leaf_id, self.value) if f < 0]

    @property
    def n_leaves(self) -> int:
        return self.feature.count(-1)

    def depth(self) -> int:
        return self._depth

    def leaf_assignment(self, features) -> dict[int, np.ndarray]:
        """Map each leaf id to the ascending row indices routed to it.

        Every leaf id appears as a key, in left-to-right order, with an empty
        array when nothing reaches it; the member arrays partition the rows.
        Rows are routed with the same x[feature] <= threshold rule as apply,
        in one apply_batch pass, then each leaf id takes the rows that reached it.
        """
        ids, _ = self.apply_batch(features)
        # one scan of ids per leaf: faster than a stable sort for the few
        # leaves of a boosting tree (4 leaves: 87 vs 143 us on 1,500 rows)
        return {leaf_id: np.flatnonzero(ids == leaf_id) for leaf_id in range(1, self.n_leaves + 1)}

    @property
    def root(self) -> Split | Leaf:
        """The nested Split/Leaf form, rebuilt from the columns on each read."""
        return self._nested({})

    def with_leaf_values(self, values: dict[int, float]) -> "RegressionTree":
        """New tree with leaf values replaced by the given id -> value map."""
        return RegressionTree(self._nested(values), self.n_features)

    def _nested(self, values: dict[int, float]) -> Split | Leaf:
        """The Split/Leaf form, each leaf taking its value from values when
        its id is there.  Children follow their parent in preorder, so one
        backward pass builds every subtree before the split that holds it."""
        feature, threshold, left, right, value, leaf_id = self._columns
        nodes: list = [None] * len(feature)
        for i in reversed(range(len(feature))):
            if feature[i] < 0:
                nodes[i] = Leaf(leaf_id[i], float(values.get(leaf_id[i], value[i])))
            else:
                nodes[i] = Split(feature[i], threshold[i], nodes[left[i]], nodes[right[i]])
        return nodes[0]


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


def fit_tree(features, residuals, *, max_depth: int = 1, min_leaf: int = 1) -> RegressionTree:
    """Grow a depth-limited tree by greedy SSE splitting.

    Leaves start with value 0.0; the booster fills them in afterwards.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    res = np.asarray(residuals, dtype=np.float64)
    positive_int(max_depth, "max_depth", MAX_TREE_DEPTH)
    positive_int(min_leaf, "min_leaf")
    idx = np.arange(X.shape[0], dtype=np.intp)
    if idx.size == 0:
        raise ValueError("features must hold at least one row")
    root = _grow(X, res, idx, 0, max_depth, min_leaf, itertools.count(1))
    return RegressionTree(root, X.shape[1])
