"""Gradient boosted regression stumps and trees for binary classification.

A small numpy library exposing the full training loop (residual fitting,
second-order leaf values, score accumulation), prediction, an exact
bisection minimizer for auditing the closed-form leaf step, versioned JSON
model files, and CSV tooling via the command line.
"""

from .booster import (
    MODEL_FORMAT_VERSION,
    IterationRecord,
    LeafRecord,
    Model,
    ModelFormatError,
    ModelVersionError,
    TrainConfig,
    TrainingTrace,
    deserialize_model,
    load_model,
    replay,
    save_model,
    serialize_model,
    train,
)
from .dataset import DataError, Dataset, EmptyDatasetError, load_csv, save_csv
from .leaf_values import (
    NEWTON_DENOMINATOR_FLOOR,
    LeafSample,
    exact_leaf_value,
    leaf_loss,
    leaf_loss_derivative,
    leaf_value_terms,
    newton_leaf_value,
    newton_step,
    sigmoid,
    total_loss,
)
from .tree import Leaf, RegressionTree, Split, SplitCandidate, best_split, fit_tree

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "Dataset",
    "EmptyDatasetError",
    "IterationRecord",
    "Leaf",
    "LeafRecord",
    "LeafSample",
    "MODEL_FORMAT_VERSION",
    "Model",
    "ModelFormatError",
    "ModelVersionError",
    "NEWTON_DENOMINATOR_FLOOR",
    "RegressionTree",
    "Split",
    "SplitCandidate",
    "TrainConfig",
    "TrainingTrace",
    "best_split",
    "deserialize_model",
    "exact_leaf_value",
    "fit_tree",
    "leaf_loss",
    "leaf_loss_derivative",
    "leaf_value_terms",
    "load_csv",
    "load_model",
    "newton_leaf_value",
    "newton_step",
    "replay",
    "save_csv",
    "save_model",
    "serialize_model",
    "sigmoid",
    "total_loss",
    "train",
]
