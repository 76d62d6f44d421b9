"""Greedy least-squares regression trees with integer-numbered leaves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SplitCandidate:
    """Best (feature, threshold) found for one node; sse_after sums both children."""

    feature_index: int
    threshold: float
    sse_after: float


@dataclass(frozen=True)
class Leaf:
    leaf_id: int
    value: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RegressionTree:
    """Immutable fitted tree.  Routing uses x[feature] <= threshold for the
    left branch; leaf ids run 1..J in left-to-right order."""

    root: Split | Leaf
    n_features: int

    def apply(self, x) -> tuple[int, float]:
        """Route one instance to its leaf; returns (leaf_id, value)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[0]}")
        node = self.root
        while isinstance(node, Split):
            node = node.left if x[node.feature_index] <= node.threshold else node.right
        return node.leaf_id, node.value

    def leaves(self) -> list[Leaf]:
        """All leaves in left-to-right order."""
        out: list[Leaf] = []

        def walk(node):
            if isinstance(node, Leaf):
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def depth(self) -> int:
        def d(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self.root)

    def leaf_assignment(self, features) -> dict[int, np.ndarray]:
        """Map each leaf id to the ascending row indices routed to it.

        Every leaf id appears as a key, with an empty array when nothing
        reaches it; the member arrays partition the rows.  Each split divides
        its node's rows with the same x[feature] <= threshold rule as apply,
        left subtree first.
        """
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected rows of {self.n_features} features, got shape {X.shape}")
        groups: dict[int, np.ndarray] = {}
        # an explicit stack, so a tree as deep as the model loader accepts
        # cannot exhaust the interpreter's recursion limit here
        stack = [(self.root, np.arange(X.shape[0], dtype=np.intp))]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, Split):
                go_left = X[rows, node.feature_index] <= node.threshold
                stack += [(node.right, rows[~go_left]), (node.left, rows[go_left])]
            else:
                seen = groups.get(node.leaf_id)  # a hand-edited model may repeat an id
                groups[node.leaf_id] = rows if seen is None else np.union1d(seen, rows)
        return groups

    def with_leaf_values(self, values: dict[int, float]) -> "RegressionTree":
        """New tree with leaf values replaced by the given id -> value map."""

        def rebuild(node):
            if isinstance(node, Leaf):
                return Leaf(node.leaf_id, float(values.get(node.leaf_id, node.value)))
            return Split(node.feature_index, node.threshold, rebuild(node.left), rebuild(node.right))

        return RegressionTree(rebuild(self.root), self.n_features)


def _number_leaves(node, next_id: int):
    if isinstance(node, Leaf):
        return Leaf(next_id, node.value), next_id + 1
    left, next_id = _number_leaves(node.left, next_id)
    right, next_id = _number_leaves(node.right, next_id)
    return Split(node.feature_index, node.threshold, left, right), next_id


def _grow(X, res, idx, depth, max_depth, min_leaf):
    if depth >= max_depth or idx.size < 2:
        return Leaf(0, 0.0)
    candidate = best_split(X, res, idx, min_count=min_leaf)
    if candidate is None:
        return Leaf(0, 0.0)
    go_left = X[idx, candidate.feature_index] <= candidate.threshold
    return Split(
        candidate.feature_index,
        candidate.threshold,
        _grow(X, res, idx[go_left], depth + 1, max_depth, min_leaf),
        _grow(X, res, idx[~go_left], depth + 1, max_depth, min_leaf),
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
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
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
        root = Split(feature_index, float(threshold), Leaf(0, 0.0), Leaf(0, 0.0))
    else:
        root = _grow(X, res, idx, 0, max_depth, min_leaf)
    root, _ = _number_leaves(root, 1)
    return RegressionTree(root=root, n_features=X.shape[1])
