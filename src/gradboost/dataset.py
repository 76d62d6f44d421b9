"""Dataset container and CSV loading with validation."""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """An input file or dataset failed validation."""


class EmptyDatasetError(DataError):
    """A CSV file had a header row but no data rows; features is the header's (0, d) matrix."""


def float_array(values, what: str, shape=None, finite: bool = False) -> np.ndarray:
    """values as a float64 array, not copied when it is one, else a DataError naming
    what is wrong: a dtype other than signed, unsigned or floating numbers (bools,
    strings), a shape other than shape, when given (None in it matches any
    length), or, with finite, a NaN or an infinity."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DataError(f"{what} must hold numbers, got dtype {array.dtype}")
    array = array.astype(np.float64, copy=False)
    # an equal shape settles it without the generator, which would double a row's check
    if shape is not None and array.shape != shape and (
        array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape))
    ):
        expected = str(tuple(shape)).replace("None", "*")
        raise DataError(f"{what} must have shape {expected}, got {array.shape}")
    if finite and not np.isfinite(array).all():
        raise DataError(f"{what} must be finite, got a NaN or an infinity")
    return array


def binary_labels(labels: np.ndarray) -> np.ndarray:
    """labels, a float_array, when every entry is exactly 0 or 1, else a DataError."""
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise DataError("labels must be exactly 0 or 1")
    return labels


def valid_feature_names(names, n_features: int) -> tuple[str, ...]:
    """names as a tuple when it is a list or tuple of n_features strings, else a DataError."""
    strings = isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)
    if not strings or len(names) != n_features:
        raise DataError(f"feature_names must be a list or tuple of {n_features} strings")
    return tuple(names)


def frozen_copy(array: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of a float64 array, over a bytes object: no flag
    makes it writable, and no array reachable through its base can be written."""
    return np.frombuffer(array.tobytes()).reshape(array.shape)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with optional binary labels.

    features : (n, d) float64 array, every value finite, n >= 1, d >= 1.
    labels : length-n float64 array of 0.0/1.0, or None for unlabeled data.
    feature_names : d column names in file order.

    Built only by this constructor, load_csv included, which checks the fields
    and stores each array as a frozen_copy; copies and pickles call it again.
    """

    features: np.ndarray
    labels: np.ndarray | None
    feature_names: tuple[str, ...]

    def __post_init__(self):
        features = float_array(self.features, "features", (None, None), finite=True)
        n, d = features.shape
        if n < 1 or d < 1:
            raise DataError("dataset needs at least one row and one feature column")
        object.__setattr__(self, "features", frozen_copy(features))

        if self.labels is not None:
            labels = binary_labels(float_array(self.labels, "labels", (n,)))
            object.__setattr__(self, "labels", frozen_copy(labels))

        object.__setattr__(self, "feature_names", valid_feature_names(self.feature_names, d))

    def __reduce__(self):
        return Dataset, (self.features, self.labels, self.feature_names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _parse_number(path, row_num: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f'{path}: row {row_num}, column "{column}": non-numeric value {cell!r}'
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f'{path}: row {row_num}, column "{column}": non-finite value {cell!r}'
        )
    return value


def load_csv(path, expect_labels: bool = False) -> Dataset:
    """Read a header-first CSV; a trailing "label" column becomes the labels.

    expect_labels requires that column to exist.  Rows are reported 1-based,
    counting from the first data row.  Rows are parsed as they are read, so of
    two faults the one earlier in the file is reported.  Raises
    EmptyDatasetError when the file holds a header but no rows, and DataError
    for every other violation.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _read_rows(path, csv.reader(fh), expect_labels)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: file is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a cell longer than the csv module's field limit
            raise DataError(f"{path}: {exc}") from None


def _read_rows(path, reader, expect_labels: bool) -> Dataset:
    header = next(reader, None)
    if not header:
        raise DataError(f"{path}: empty file, expected a header row")
    has_labels = header[-1] == "label"
    if expect_labels and not has_labels:
        raise DataError(f'{path}: expected the last column to be named "label", got {header[-1]!r}')
    feature_names = header[:-1] if has_labels else header
    if not feature_names:
        raise DataError(f"{path}: no feature columns")

    d, width = len(feature_names), len(header)
    features, labels = array("d"), array("d")
    for row_num, row in enumerate(reader, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {row_num} has {len(row)} cells, expected {width}")
        # one parse per row; only a row this refuses, or whose sum is not
        # finite, is parsed again cell by cell to name its first bad cell (a
        # row of finite cells whose sum overflows passes that parse and is read)
        try:
            values = list(map(float, row))
        except ValueError:
            values = None
        if values is None or not math.isfinite(sum(values)):
            values = [_parse_number(path, row_num, name, cell) for name, cell in zip(header, row)]
        if has_labels:
            label = values.pop()
            if label not in (0.0, 1.0):
                raise DataError(
                    f'{path}: row {row_num}, column "label": expected 0 or 1, got {row[-1]!r}'
                )
            labels.append(label)
        features.extend(values)
    features = np.frombuffer(features).reshape(-1, d)
    if not len(features):
        error = EmptyDatasetError(f"{path}: no data rows")
        error.features = features
        raise error
    return Dataset(features, labels if has_labels else None, tuple(feature_names))

