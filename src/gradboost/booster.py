"""Boosting driver: additive residual-tree training, prediction, the
per-iteration bookkeeping trace, and the JSON model file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset
from .leaf_values import LeafSample, leaf_value_terms, newton_step, sigmoid
from .tree import MAX_TREE_DEPTH, Leaf, RegressionTree, Split, finite_real, fit_tree, positive_int


def valid_learning_rate(value) -> float:
    """value as a float in (0, 1], the shrinkage applied to every tree's output."""
    learning_rate = finite_real(value, "learning_rate")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate {learning_rate!r} is not in (0, 1]")
    return learning_rate


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run."""

    n_trees: int = 3
    learning_rate: float = 0.1
    max_depth: int = 1
    min_leaf: int = 1
    forced_splits: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        positive_int(self.n_trees, "n_trees")
        object.__setattr__(self, "learning_rate", valid_learning_rate(self.learning_rate))
        positive_int(self.max_depth, "max_depth", MAX_TREE_DEPTH)
        positive_int(self.min_leaf, "min_leaf")
        if self.forced_splits is not None:
            forced = tuple(map(tuple, self.forced_splits))
            object.__setattr__(self, "forced_splits", forced)
            if len(forced) != self.n_trees:
                raise ValueError("forced_splits must supply one (feature, threshold) pair per tree")
            if self.max_depth != 1:
                raise ValueError("forced_splits requires max_depth=1")


@dataclass(frozen=True)
class Model:
    """Fitted additive ensemble.  Prediction starts from a raw score of 0.
    Like RegressionTree, it refuses any value a model file could not hold."""

    trees: tuple[RegressionTree, ...]
    learning_rate: float
    n_features: int
    feature_names: tuple[str, ...]

    def __post_init__(self):
        learning_rate = valid_learning_rate(self.learning_rate)
        positive_int(self.n_features, "n_features")
        names = self.feature_names
        strings = isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)
        if not strings or len(names) != self.n_features:
            raise ValueError(f"feature_names must be a list of {self.n_features} strings")
        object.__setattr__(self, "learning_rate", learning_rate)
        object.__setattr__(self, "feature_names", tuple(names))
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


def _node_from_dict(obj, depth: int = 0) -> Split | Leaf:
    """One tree node as Split/Leaf, holding the file's values as they are:
    RegressionTree checks them."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"tree node must be a JSON object, got {type(obj).__name__}")
    if "leaf_id" in obj:
        if "gamma" not in obj:
            raise ModelFormatError("leaf node missing 'gamma'")
        return Leaf(obj["leaf_id"], obj["gamma"])
    for key in ("feature_index", "threshold", "left", "right"):
        if key not in obj:
            raise ModelFormatError(f"internal node missing {key!r}")
    if depth == MAX_TREE_DEPTH:  # before recursing any further
        raise ModelFormatError(f"tree is deeper than the limit of {MAX_TREE_DEPTH} splits")
    left = _node_from_dict(obj["left"], depth + 1)
    right = _node_from_dict(obj["right"], depth + 1)
    return Split(obj["feature_index"], obj["threshold"], left, right)


def deserialize_model(text: str) -> Model:
    """Parse a JSON model document.

    An unknown format_version is rejected before anything else is read; a
    malformed document raises ModelFormatError naming the problem (parse
    failures include the byte offset).  The loader reads only the JSON
    shape; RegressionTree and Model refuse values no model may hold.
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
    if not isinstance(document["trees"], list):
        raise ModelFormatError("'trees' must be a list")
    n_features = document["n_features"]
    try:
        trees = tuple(RegressionTree(_node_from_dict(t), n_features) for t in document["trees"])
        return Model(trees, document["learning_rate"], n_features, document["feature_names"])
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def save_model(model: Model, path) -> None:
    text = serialize_model(model)  # first, so a model it refuses leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: model file is not UTF-8 text ({exc.reason})") from None
    return deserialize_model(text)


@dataclass(frozen=True, eq=False)
class LeafRecord:
    """Audit record for one leaf of one iteration.

    members holds ascending 0-based instance indices; denominator is the raw
    p(1-p) sum before the division floor is applied.  Records compare and
    hash by identity, as their array fields have no single truth value.
    """

    leaf_id: int
    members: np.ndarray
    numerator: float
    denominator: float
    value: float


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """Everything one boosting iteration computed, in the order it happened.

    labels is the data set's label array, the same object in every record.
    residuals and leaf_ids are derived from the other fields on each read,
    so a whole trace holds neither: a new array each time, bit-equal to what
    the round computed.  Like LeafRecord it compares and hashes by identity.
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


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Every round's record, in order; compared and hashed by identity."""

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
    # each row computes only its own term, so p = 1 at y = 1 never reaches log1p(-1)
    positive = y == 1.0
    terms = np.empty_like(p)
    terms[positive] = -np.log(p[positive])
    terms[~positive] = -np.log1p(-p[~positive])
    return math.fsum(terms.tolist())


def train(dataset: Dataset, config: TrainConfig) -> tuple[Model, TrainingTrace]:
    """Fit an additive ensemble of residual trees with second-order leaf values.

    Starts every instance at raw score 0 (probability 0.5).  Each iteration
    fits a tree to the current residuals, or takes the configured forced
    stump (all built, and so checked, before the first round), sets each
    leaf to the Newton step over the rows it holds (an empty leaf keeps 0),
    and advances the scores by learning_rate times the leaf value.  The
    returned trace is replay(model, dataset).
    """
    if dataset.labels is None:
        raise ValueError("training requires a labeled dataset")
    X, y = dataset.features, dataset.labels
    stumps = [
        RegressionTree(Split(f, t, Leaf(1, 0.0), Leaf(2, 0.0)), dataset.n_features)
        for f, t in config.forced_splits or ()
    ]
    scores = np.zeros(dataset.n_rows)
    trees = []
    for m in range(config.n_trees):
        if stumps:
            tree = stumps[m]
        else:
            residuals = y - sigmoid(scores)
            tree = fit_tree(X, residuals, max_depth=config.max_depth, min_leaf=config.min_leaf)
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
        prior_probs, scores = probs, scores.copy()
        leaves = []
        # both run over the leaves left to right, so in leaf id order
        for (leaf_id, members), leaf in zip(tree.leaf_assignment(X).items(), tree.leaves()):
            numerator = denominator = 0.0
            if members.size:
                sample = LeafSample(y[members], scores[members])
                numerator, denominator = leaf_value_terms(sample)
            scores[members] += model.learning_rate * leaf.value
            leaves.append(LeafRecord(leaf_id, members, numerator, denominator, leaf.value))
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
