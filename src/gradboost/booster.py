"""Boosting driver: additive residual-tree training, prediction, the
per-iteration bookkeeping trace, and the JSON model file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dataset import DataError, Dataset, float_array, frozen_copy, valid_feature_names
from .leaf_values import LeafSample  # not called here; bench/tracing.py wraps booster.LeafSample
from .leaf_values import leaf_value_terms, newton_step, sigmoid, total_loss
from .tree import (
    MAX_TREE_DEPTH, Leaf, RegressionTree, Split, finite_real, fit_tree, is_int, matrix_cells,
    positive_int, row_values,
)


def valid_learning_rate(value) -> float:
    """value as a float in (0, 1], the shrinkage applied to every tree's output."""
    learning_rate = finite_real(value, "learning_rate")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate {learning_rate!r} is not in (0, 1]")
    return learning_rate


def valid_threshold(value) -> float:
    """value as a float in (0, 1), the probability from which a row is labeled 1."""
    threshold = finite_real(value, "threshold")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold!r} is not in (0, 1)")
    return threshold


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run."""

    n_trees: int = 3
    learning_rate: float = 0.1
    max_depth: int = 1
    min_leaf: int = 1
    forced_splits: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_trees", positive_int(self.n_trees, "n_trees"))
        object.__setattr__(self, "learning_rate", valid_learning_rate(self.learning_rate))
        object.__setattr__(self, "max_depth", positive_int(self.max_depth, "max_depth", MAX_TREE_DEPTH))
        object.__setattr__(self, "min_leaf", positive_int(self.min_leaf, "min_leaf"))
        if self.forced_splits is not None:
            try:  # TypeError: not iterable; ValueError: an entry of another length
                forced = tuple((feature, threshold) for feature, threshold in self.forced_splits)
            except (TypeError, ValueError):
                raise ValueError("forced_splits must hold (feature, threshold) pairs") from None
            object.__setattr__(self, "forced_splits", forced)
            if len(forced) != self.n_trees:
                raise ValueError("forced_splits must supply one (feature, threshold) pair per tree")
            for name in ("max_depth", "min_leaf"):  # growth rules, which a forced stump skips
                if getattr(self, name) != 1:
                    raise ValueError(f"forced_splits requires {name}=1")


@dataclass(frozen=True)
class Model:
    """Fitted additive ensemble.  Prediction starts from a raw score of 0.
    Like RegressionTree, it refuses any value a model file could not hold,
    and a model whose raw score can overflow: learning_rate * max |value|,
    summed over the trees in order, must be finite.  Rounding is monotone,
    so every row's score, summed in the same order, is then finite too."""

    trees: tuple[RegressionTree, ...]
    learning_rate: float
    n_features: int
    feature_names: tuple[str, ...]

    def __post_init__(self):
        learning_rate = valid_learning_rate(self.learning_rate)
        object.__setattr__(self, "n_features", positive_int(self.n_features, "n_features"))
        object.__setattr__(self, "learning_rate", learning_rate)
        object.__setattr__(self, "feature_names", valid_feature_names(self.feature_names, self.n_features))
        object.__setattr__(self, "trees", tuple(self.trees))
        bound = 0.0
        for tree in self.trees:
            if not isinstance(tree, RegressionTree):
                kind = type(tree).__name__
                raise ValueError(f"a model's tree must be a RegressionTree, not {kind}")
            if tree.n_features != self.n_features:
                raise ValueError(f"tree of {tree.n_features} features, model of {self.n_features}")
            bound += learning_rate * max(map(abs, tree.value))
        if not math.isfinite(bound):
            raise ValueError("learning_rate * max |gamma| summed over the trees overflows a float")

    def check_width(self, features) -> None:
        """Refuse, as a DataError, a data matrix whose feature columns are not the model's."""
        width = float_array(features, "features", (None, None)).shape[1]
        if width != self.n_features:
            raise DataError(f"data has {width} feature columns, model expects {self.n_features}")

    def __reduce__(self):
        # a copy or a pickle is built again by the constructor, so it holds no walk form
        return Model, (self.trees, self.learning_rate, self.n_features, self.feature_names)

    @cached_property
    def _walks(self) -> tuple:
        """Each tree nested for a single-row walk, built on first use: a split is
        a (feature, threshold, left, right) tuple holding its children, a leaf
        the float learning_rate * value, the term predict_raw adds."""
        learning_rate = self.learning_rate
        leaf, split = (lambda _, value: learning_rate * value), (lambda *node: node)
        return tuple(tree.fold(leaf, split) for tree in self.trees)

    def predict_raw(self, x) -> float:
        """Sum of learning-rate-scaled tree outputs for one instance, in tree order.

        Walks each tree's nested form, with RegressionTree.apply's comparisons
        and the same sum, so it is bit-identical to adding up its outputs."""
        row = row_values(x, self.n_features)
        score = 0.0
        for node in self._walks:
            while type(node) is tuple:
                f, t, left, right = node
                node = left if row[f] <= t else right
            score += node
        return score

    def predict_raw_batch(self, features) -> np.ndarray:
        """predict_raw of every row of a matrix, bit for bit, refusing the rows it
        refuses: each tree routes all rows at once, summed in tree order."""
        cells, row_starts = matrix_cells(features, self.n_features)
        scores = np.zeros(len(row_starts))
        for tree in self.trees:
            values = float_array(tree.value, "leaf values")
            scores += self.learning_rate * values.take(tree._route(cells, row_starts))
        return scores

    def predict_proba(self, x) -> float:
        return sigmoid(self.predict_raw(x))

    def predict_label(self, x, threshold: float = 0.5) -> int:
        """1 when the probability reaches the threshold (valid_threshold), else 0."""
        threshold = valid_threshold(threshold)
        return 1 if self.predict_proba(x) >= threshold else 0


MODEL_FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Model file is structurally invalid."""


class ModelVersionError(ModelFormatError):
    """Model file declares an unsupported format version."""


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
        "trees": [tree.fold(_leaf_dict, _split_dict) for tree in model.trees],
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _leaf_dict(leaf_id: int, gamma: float) -> dict:
    return {"leaf_id": leaf_id, "gamma": gamma}


def _split_dict(feature_index: int, threshold: float, left: dict, right: dict) -> dict:
    return {"feature_index": feature_index, "threshold": threshold, "left": left, "right": right}


# the keys a model file's objects may hold: the document's, and a leaf's or a split's
_MODEL_KEYS = frozenset(("format_version", "learning_rate", "n_features", "feature_names", "trees"))
_NODE_KEYS = frozenset(("leaf_id", "gamma", "feature_index", "threshold", "left", "right"))


def _json_object(repeats: dict, pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict.  When the object repeats a
    key, repeats maps its id to (the object, the first key repeated): holding
    the object keeps its id from passing to another while the document is read."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        repeats[id(obj)] = obj, next(key for key, _ in pairs if key in seen or seen.add(key))
    return obj


def _refuse_keys(obj: dict, what: str, known: frozenset, repeats: dict) -> None:
    """Raise a ModelFormatError naming obj's repeated key when _json_object
    recorded one in repeats, else at obj's first key not in known."""
    if id(obj) in repeats:
        raise ModelFormatError(f"{what} repeats key {repeats[id(obj)][1]!r}")
    for key in obj:
        if key not in known:
            raise ModelFormatError(f"{what} holds unknown key {key!r}")


def _read_node(repeats: dict, obj) -> tuple:
    """A model file's node, a JSON object read by _json_object into repeats, as
    a leaf's (leaf_id, gamma), or a split's (feature_index, threshold, left,
    right) whose children are still to be read."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"tree node must be a JSON object, got {type(obj).__name__}")
    leaf = "leaf_id" in obj
    try:  # a tuple's items are read left to right, so the first missing key is named
        node = (obj["leaf_id"], obj["gamma"]) if leaf else (
            obj["feature_index"], obj["threshold"], obj["left"], obj["right"])
    except KeyError as missing:
        raise ModelFormatError(f"{'leaf' if leaf else 'internal'} node missing {missing.args[0]!r}") from None
    # it holds every key of its kind, so a repeat or any more entries are a fault
    if len(obj) != len(node) or repeats and id(obj) in repeats:
        _refuse_keys(obj, "tree node", _NODE_KEYS, repeats)
        raise ModelFormatError("tree node holds both leaf keys and split keys")
    return node


def deserialize_model(text: str) -> Model:
    """Parse a JSON model document.

    An unknown format_version is rejected before anything else is read; a
    malformed document raises ModelFormatError naming the problem (parse
    failures include the byte offset), and so does an object that repeats a
    key or holds one the format does not name, and a node that holds both
    leaf and split keys.  The loader reads only the JSON shape;
    RegressionTree and Model refuse values no model may hold.
    """
    repeats: dict = {}  # this document's objects that repeat a key, by id
    try:
        document = json.loads(text, object_pairs_hook=partial(_json_object, repeats))
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
    if not (is_int(version) and version == MODEL_FORMAT_VERSION):
        raise ModelVersionError(
            f"unsupported model format_version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    _refuse_keys(document, "model document", _MODEL_KEYS, repeats)
    for key in ("learning_rate", "n_features", "feature_names", "trees"):
        if key not in document:
            raise ModelFormatError(f"model document missing {key!r}")
    if not isinstance(document["trees"], list):
        raise ModelFormatError("'trees' must be a list")
    n_features = document["n_features"]
    try:
        read = partial(_read_node, repeats)
        trees = tuple(
            RegressionTree.__new__(RegressionTree)._compile(t, n_features, read) for t in document["trees"]
        )
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

    members holds ascending 0-based instance indices as a frozen_copy;
    denominator is the raw p(1-p) sum before the division floor is applied.
    Records compare and hash by identity, as their array fields have no
    single truth value.
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
    Every array field is a frozen_copy, and prior_probs is the previous
    record's probs, the same object.
    residuals, leaf_ids and total_loss are derived from the other fields on
    each read, so a whole trace holds none of them and no round computes a
    loss nobody reads: a new value each time, bit-equal to what the round
    computed.  Like LeafRecord it compares and hashes by identity.
    """

    iteration: int
    labels: np.ndarray
    prior_probs: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    leaves: tuple[LeafRecord, ...]

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

    @property
    def total_loss(self) -> float:
        """The log-loss of this round's scores."""
        # booster.total_loss, looked up at each call: a method body skips the class scope
        return total_loss(self.labels, self.scores)


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Every round's record, in order; compared and hashed by identity."""

    records: tuple[IterationRecord, ...]

    @property
    def final_loss(self) -> float:
        """The last round's log-loss; a ValueError for a trace of no rounds."""
        if not self.records:
            raise ValueError("the trace holds no rounds, so it has no final loss")
        return self.records[-1].total_loss


def _leaf_terms(leaf_rows, y, probs) -> list[tuple[int, np.ndarray, float, float]]:
    """(leaf_id, members, numerator, denominator) for each leaf's rows, left to
    right: the Newton terms of its rows at the round's probs.  An empty leaf
    takes the same call, whose fsum of no terms gives +0.0 and +0.0.
    Gathering probs[members] gives bit for bit sigmoid(scores[members])."""
    return [
        (leaf_id, members, *leaf_value_terms(y[members], probs[members]))
        for leaf_id, members in enumerate(leaf_rows, start=1)
    ]


def _round(iteration, tree, terms, y, scores, prior_probs, learning_rate) -> IterationRecord:
    """One round's record: a copy of scores advanced by learning_rate times each
    leaf's value over its members (terms and the leaves of tree.value's preorder
    run left to right).  Its scores, probs and members are each stored as a frozen_copy."""
    scores, leaves = scores.copy(), []
    values = (value for feature, value in zip(tree.feature, tree.value) if feature < 0)
    for (leaf_id, members, numerator, denominator), value in zip(terms, values):
        scores[members] += learning_rate * value
        leaves.append(LeafRecord(leaf_id, frozen_copy(members), numerator, denominator, value))
    scores = frozen_copy(scores)
    probs = frozen_copy(sigmoid(scores))
    return IterationRecord(iteration, y, prior_probs, scores, probs, tuple(leaves))


def train(dataset: Dataset, config: TrainConfig) -> tuple[Model, TrainingTrace]:
    """Fit an additive ensemble of residual trees with second-order leaf values.

    Starts every instance at raw score 0 (probability 0.5).  Each iteration
    fits a tree to the current residuals, with the grower's rows per leaf, or
    takes the configured forced stump (all built, checked and routed before
    round 1), sets each leaf to the Newton step over its rows (an empty leaf
    keeps 0) and advances the scores by learning_rate times the leaf value,
    recording each round with replay's helpers: the trace is replay(model, dataset).
    """
    if dataset.labels is None:
        raise ValueError("training requires a labeled dataset")
    X, y = dataset.features, dataset.labels
    stumps = [
        (stump, stump.leaf_assignment(X).values())
        for f, t in config.forced_splits or ()
        for stump in [RegressionTree(Split(f, t, Leaf(1, 0.0), Leaf(2, 0.0)), dataset.n_features)]
    ]
    scores, probs = np.zeros(dataset.n_rows), frozen_copy(np.full(dataset.n_rows, 0.5))
    trees, records = [], []
    for m in range(config.n_trees):
        tree, leaf_rows = stumps[m] if stumps else fit_tree(
            X, y - probs, max_depth=config.max_depth, min_leaf=config.min_leaf
        )
        terms = _leaf_terms(leaf_rows, y, probs)
        tree = tree.with_leaf_values([newton_step(n, d) for _, _, n, d in terms])
        records.append(_round(m + 1, tree, terms, y, scores, probs, config.learning_rate))
        trees.append(tree)
        scores, probs = records[-1].scores, records[-1].probs
    model = Model(tuple(trees), config.learning_rate, dataset.n_features, dataset.feature_names)
    return model, TrainingTrace(tuple(records))


def replay(model: Model, dataset: Dataset) -> TrainingTrace:
    """Recompute the per-iteration bookkeeping of a model on a labeled dataset.

    Each round groups the rows by leaf, sums every leaf's Newton terms, reads
    its value off the model and advances the scores.  Every array a record
    holds is a frozen_copy, and each record's prior_probs is the previous
    record's probs, the same object.  Over the training data this is exactly
    the trace train returns.
    """
    if dataset.labels is None:
        raise ValueError("replay requires a labeled dataset")
    model.check_width(dataset.features)
    X, y = dataset.features, dataset.labels
    scores, probs = np.zeros(dataset.n_rows), frozen_copy(np.full(dataset.n_rows, 0.5))
    records = []
    for m, tree in enumerate(model.trees, start=1):
        terms = _leaf_terms(tree.leaf_assignment(X).values(), y, probs)
        records.append(_round(m, tree, terms, y, scores, probs, model.learning_rate))
        scores, probs = records[-1].scores, records[-1].probs
    return TrainingTrace(tuple(records))
