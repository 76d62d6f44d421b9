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
    """A CSV file had a header row but no data rows."""


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
        features = np.array(self.features, dtype=np.float64, copy=True)
        if features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n, d = features.shape
        if n < 1 or d < 1:
            raise DataError("dataset needs at least one row and one feature column")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)

        labels = self.labels
        if labels is not None:
            labels = np.array(labels, dtype=np.float64, copy=True)
            if labels.shape != (n,):
                raise DataError("labels must be a length-n vector")
            if not np.all(np.isin(labels, (0.0, 1.0))):
                raise DataError("labels must be exactly 0 or 1")
            labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

        names = tuple(str(s) for s in self.feature_names)
        if len(names) != d:
            raise DataError("feature_names must name every feature column")
        object.__setattr__(self, "feature_names", names)

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

    d = len(feature_names)
    features, labels = array("d"), array("d")
    for row_num, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        features.extend(
            _parse_number(path, row_num, name, cell) for name, cell in zip(feature_names, row)
        )
        if has_labels:
            value = _parse_number(path, row_num, "label", row[-1])
            if value not in (0.0, 1.0):
                raise DataError(
                    f'{path}: row {row_num}, column "label": expected 0 or 1, got {row[-1]!r}'
                )
            labels.append(value)
    if not features:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(
        features=np.frombuffer(features, dtype=np.float64).reshape(-1, d),
        labels=np.frombuffer(labels, dtype=np.float64) if has_labels else None,
        feature_names=tuple(feature_names),
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV with full-precision features.

    Uses repr's shortest round-trip float form, so load_csv(save_csv(ds))
    reproduces the dataset field for field.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(dataset.feature_names)
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)
