"""Boosting driver: additive residual-tree training, prediction, the
per-iteration bookkeeping trace, and the JSON model file format."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset
from .leaf_values import LeafSample, leaf_value_terms, newton_step, sigmoid
from .tree import MAX_TREE_DEPTH, Leaf, RegressionTree, Split, fit_tree


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run."""

    n_trees: int = 3
    learning_rate: float = 0.1
    max_depth: int = 1
    min_leaf: int = 1
    forced_splits: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 1 <= self.max_depth <= MAX_TREE_DEPTH:
            raise ValueError(f"max_depth must be in 1..{MAX_TREE_DEPTH}")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.forced_splits is not None:
            forced = tuple((int(f), float(t)) for f, t in self.forced_splits)
            object.__setattr__(self, "forced_splits", forced)
            if len(forced) != self.n_trees:
                raise ValueError("forced_splits must supply one (feature, threshold) pair per tree")
            if self.max_depth != 1:
                raise ValueError("forced_splits requires max_depth=1")


@dataclass(frozen=True)
class Model:
    """Fitted additive ensemble.  Prediction starts from a raw score of 0."""

    trees: tuple[RegressionTree, ...]
    learning_rate: float
    n_features: int
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        for tree in self.trees:
            if tree.n_features != self.n_features:
                raise ValueError(f"tree of {tree.n_features} features, model of {self.n_features}")

    def predict_raw(self, x) -> float:
        """Sum of learning-rate-scaled tree outputs for one instance, in tree order."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[0]}")
        row = x.tolist()
        score = 0.0
        for tree in self.trees:
            score += self.learning_rate * tree._walk(row)[1]
        return score

    def predict_raw_batch(self, features) -> np.ndarray:
        """predict_raw of every row of a matrix, bit for bit: each tree routes
        all rows at once, and each row's outputs are summed in tree order."""
        X = np.ascontiguousarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected rows of {self.n_features} features, got shape {X.shape}")
        scores = np.zeros(X.shape[0])
        for tree in self.trees:
            scores += self.learning_rate * tree.apply_batch(X)[1]
        return scores

    def predict_proba(self, x) -> float:
        return sigmoid(self.predict_raw(x))

    def predict_label(self, x, threshold: float = 0.5) -> int:
        """1 when the probability reaches the threshold, else 0."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        return 1 if self.predict_proba(x) >= threshold else 0


MODEL_FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Model file is structurally invalid."""


class ModelVersionError(ModelFormatError):
    """Model file declares an unsupported format version."""


def _node_to_dict(node):
    if isinstance(node, Leaf):
        return {"leaf_id": node.leaf_id, "gamma": node.value}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def serialize_model(model: Model) -> str:
    """Render a model as a versioned JSON document.

    Floats go through repr's shortest round-trip form, so deserializing
    reproduces every threshold and leaf value bit for bit.
    """
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(tree.root) for tree in model.trees],
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _integer(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:  # JSON true parses to bool, a subclass of int
        raise ModelFormatError(f"{key!r} must be a JSON integer, got {type(value).__name__}")
    return value


def _number(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float):
        raise ModelFormatError(f"{key!r} must be a JSON number, got {type(value).__name__}")
    # json.loads accepts Infinity, NaN and integers too large for a float
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ModelFormatError(f"{key!r} must be finite")
    return value


def _node_from_dict(obj, n_features: int, leaf_ids, depth: int = 0):
    """One tree node; leaf ids must be the successive values of leaf_ids,
    left subtree first, as fit_tree numbers them."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"tree node must be a JSON object, got {type(obj).__name__}")
    if "leaf_id" in obj:
        if "gamma" not in obj:
            raise ModelFormatError("leaf node missing 'gamma'")
        leaf_id, expected = _integer(obj, "leaf_id"), next(leaf_ids)
        if leaf_id != expected:
            raise ModelFormatError(f"leaf_id {leaf_id} out of order, expected {expected}")
        return Leaf(leaf_id, _number(obj, "gamma"))
    for key in ("feature_index", "threshold", "left", "right"):
        if key not in obj:
            raise ModelFormatError(f"internal node missing {key!r}")
    if depth == MAX_TREE_DEPTH:
        raise ModelFormatError(f"tree is deeper than the limit of {MAX_TREE_DEPTH} splits")
    feature_index = _integer(obj, "feature_index")
    if not 0 <= feature_index < n_features:
        raise ModelFormatError(
            f"feature_index {feature_index} out of range for {n_features} features"
        )
    threshold = _number(obj, "threshold")
    left = _node_from_dict(obj["left"], n_features, leaf_ids, depth + 1)
    right = _node_from_dict(obj["right"], n_features, leaf_ids, depth + 1)
    return Split(feature_index, threshold, left, right)


def deserialize_model(text: str) -> Model:
    """Parse a JSON model document.

    An unknown format_version is rejected before anything else is read; a
    malformed document raises ModelFormatError naming the problem (parse
    failures include the byte offset).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"model file is not valid JSON: {exc.msg} (byte offset {exc.pos})"
        ) from None
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("model file is nested deeper than the recursion limit") from None
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = document.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model format_version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    for key in ("learning_rate", "n_features", "feature_names", "trees"):
        if key not in document:
            raise ModelFormatError(f"model document missing {key!r}")
    learning_rate = _number(document, "learning_rate")
    if not 0.0 < learning_rate <= 1.0:
        raise ModelFormatError(f"'learning_rate' {learning_rate!r} is not in (0, 1]")
    n_features = _integer(document, "n_features")
    if n_features < 1:
        raise ModelFormatError(f"'n_features' must be >= 1, got {n_features}")
    names = document["feature_names"]
    if not isinstance(names, list) or len(names) != n_features:
        raise ModelFormatError(f"'feature_names' must be a list of {n_features} names")
    if not all(isinstance(name, str) for name in names):
        raise ModelFormatError("'feature_names' must be JSON strings")
    trees_raw = document["trees"]
    if not isinstance(trees_raw, list):
        raise ModelFormatError("'trees' must be a list")
    trees = tuple(
        RegressionTree(_node_from_dict(t, n_features, itertools.count(1)), n_features)
        for t in trees_raw
    )
    return Model(
        trees=trees,
        learning_rate=learning_rate,
        n_features=n_features,
        feature_names=tuple(names),
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: model file is not UTF-8 text ({exc.reason})") from None
    return deserialize_model(text)


@dataclass(frozen=True)
class LeafRecord:
    """Audit record for one leaf of one iteration.

    members holds ascending 0-based instance indices; denominator is the raw
    p(1-p) sum before the division floor is applied.
    """

    leaf_id: int
    members: np.ndarray
    numerator: float
    denominator: float
    value: float


@dataclass(frozen=True)
class IterationRecord:
    """Everything one boosting iteration computed, in the order it happened.

    labels is the data set's label array, the same object in every record.
    residuals and leaf_ids are derived from the other fields on each read,
    so a whole trace holds neither: a new array each time, bit-equal to what
    the round computed.
    """

    iteration: int
    labels: np.ndarray
    prior_probs: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    leaves: tuple[LeafRecord, ...]
    total_loss: float

    @property
    def residuals(self) -> np.ndarray:
        """labels - prior_probs: the targets this round's tree was fitted to."""
        return self.labels - self.prior_probs

    @property
    def leaf_ids(self) -> np.ndarray:
        """The id of the leaf each row reached."""
        ids = np.zeros(self.labels.size, dtype=np.intp)
        for leaf in self.leaves:
            ids[leaf.members] = leaf.leaf_id
        return ids


@dataclass(frozen=True)
class TrainingTrace:
    records: tuple[IterationRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_loss(self) -> float:
        return self.records[-1].total_loss


def total_loss(labels, probs) -> float:
    """Total cross-entropy of predicted probabilities against binary labels."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(y == 1.0, -np.log(p), -np.log1p(-p))
    return math.fsum(terms.tolist())


def train(dataset: Dataset, config: TrainConfig) -> tuple[Model, TrainingTrace]:
    """Fit an additive ensemble of residual trees with second-order leaf values.

    Starts every instance at raw score 0 (probability 0.5).  Each iteration
    fits a tree to the current residuals (or builds the configured forced
    stump), sets each leaf to the Newton step over the rows it holds (an
    empty leaf keeps 0), and advances the scores by learning_rate times the
    leaf value.  The returned trace is replay(model, dataset).
    """
    if dataset.labels is None:
        raise ValueError("training requires a labeled dataset")
    X, y = dataset.features, dataset.labels
    scores = np.zeros(dataset.n_rows)
    trees = []
    for m in range(config.n_trees):
        probs = sigmoid(scores)
        forced = config.forced_splits[m] if config.forced_splits is not None else None
        tree = fit_tree(
            X, y - probs, max_depth=config.max_depth, min_leaf=config.min_leaf, forced_split=forced
        )
        values = {}
        for leaf_id, members in tree.leaf_assignment(X).items():
            if members.size:
                sample = LeafSample(y[members], scores[members])
                values[leaf_id] = newton_step(*leaf_value_terms(sample))
                scores[members] += config.learning_rate * values[leaf_id]
        trees.append(tree.with_leaf_values(values))
    model = Model(tuple(trees), config.learning_rate, dataset.n_features, dataset.feature_names)
    return model, replay(model, dataset)


def replay(model: Model, dataset: Dataset) -> TrainingTrace:
    """Recompute the per-iteration bookkeeping of a model on a labeled dataset.

    Each round groups the rows by leaf, sums every leaf's Newton terms, reads
    its value off the model and advances the scores.  Each record's
    prior_probs is the previous record's probs array, not a copy.  Over the
    training data this is exactly the trace train returns.
    """
    if dataset.labels is None:
        raise ValueError("replay requires a labeled dataset")
    if dataset.n_features != model.n_features:
        raise DataError(
            f"data has {dataset.n_features} feature columns, model expects {model.n_features}"
        )
    X, y = dataset.features, dataset.labels
    scores, probs = np.zeros(dataset.n_rows), np.full(dataset.n_rows, 0.5)
    records = []
    for m, tree in enumerate(model.trees, start=1):
        stored = {leaf.leaf_id: leaf.value for leaf in tree.leaves()}
        prior_probs, scores = probs, scores.copy()
        leaves = []
        for leaf_id, members in sorted(tree.leaf_assignment(X).items()):
            numerator = denominator = 0.0
            if members.size:
                sample = LeafSample(y[members], scores[members])
                numerator, denominator = leaf_value_terms(sample)
            scores[members] += model.learning_rate * stored[leaf_id]
            leaves.append(LeafRecord(leaf_id, members, numerator, denominator, stored[leaf_id]))
        probs = sigmoid(scores)
        records.append(
            IterationRecord(
                iteration=m,
                labels=y,
                prior_probs=prior_probs,
                scores=scores,
                probs=probs,
                leaves=tuple(leaves),
                total_loss=total_loss(y, probs),
            )
        )
    return TrainingTrace(tuple(records))
