"""Dataset container, CSV loading with validation, and CSV round-tripping."""

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


def float_array(values, what: str) -> np.ndarray:
    """values as a float64 array, not copied when it is one.  Anything but signed,
    unsigned or floating numbers (bools, strings) is a DataError naming its dtype."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DataError(f"{what} must hold numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with optional binary labels.

    features : (n, d) float64 array, every value finite, n >= 1, d >= 1.
    labels : length-n float64 array of 0.0/1.0, or None for unlabeled data.
    feature_names : d column names in file order.
    """

    features: np.ndarray
    labels: np.ndarray | None
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self._hold(self.features, self.labels, self.feature_names, copy=True)

    @classmethod
    def _adopt(cls, features, labels, feature_names) -> "Dataset":
        """A Dataset holding these float64 arrays themselves, not copies, for
        arrays over buffers no caller holds: they are checked as a caller's
        copies are, then made read-only."""
        dataset = object.__new__(cls)
        dataset._hold(features, labels, feature_names, copy=False)
        return dataset

    def _hold(self, features, labels, feature_names, copy: bool):
        """Check the fields and store them, the arrays as float64 views of a read-only
        memoryview, which no flag makes writable: of copies, or (copy False) of the arrays given."""
        features = np.array(float_array(features, "features"), copy=copy)
        if features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n, d = features.shape
        if n < 1 or d < 1:
            raise DataError("dataset needs at least one row and one feature column")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        object.__setattr__(self, "features", np.asarray(memoryview(features).toreadonly()))

        if labels is not None:
            labels = np.array(float_array(labels, "labels"), copy=copy)
            if labels.shape != (n,):
                raise DataError("labels must be a length-n vector")
            labels = np.asarray(memoryview(binary_labels(labels)).toreadonly())
        object.__setattr__(self, "labels", labels)

        object.__setattr__(self, "feature_names", valid_feature_names(feature_names, d))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.feature_names != other.feature_names:
            return False
        if not np.array_equal(self.features, other.features):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


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
    # views of the arrays just filled, so the Dataset need not copy them
    features = np.frombuffer(features).reshape(-1, d)
    if not len(features):
        error = EmptyDatasetError(f"{path}: no data rows")
        error.features = features
        raise error
    labels = np.frombuffer(labels) if has_labels else None
    return Dataset._adopt(features, labels, tuple(feature_names))


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV with full-precision features.

    Uses repr's shortest round-trip float form, so load_csv(save_csv(ds))
    reproduces the dataset field for field.  An unlabeled dataset whose last
    feature is named "label" would load back as labeled, so it is refused.
    """
    header, rows = list(dataset.feature_names), dataset.features.tolist()
    if dataset.labels is not None:
        header.append("label")
        rows = [[*row, int(label)] for row, label in zip(rows, dataset.labels.tolist())]
    elif header[-1] == "label":
        raise DataError(f'{path}: an unlabeled dataset\'s last feature cannot be named "label"')
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
