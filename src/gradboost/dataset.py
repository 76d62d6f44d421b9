"""Dataset container and CSV loading with validation."""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """An input file or dataset failed validation."""


class EmptyDatasetError(DataError):
    """A CSV file had a header row but no data rows; features is the header's (0, d) matrix."""


# the dtype every native float64 array carries, the one float_array returns unconverted
FLOAT64 = np.dtype(np.float64)


def float_array(values, what: str, shape=None, finite: bool = False) -> np.ndarray:
    """values as a float64 array, else a DataError naming what is wrong: a dtype
    other than signed, unsigned or floating numbers (bools, strings), a shape
    other than shape, when given (None in it matches any length), or, with
    finite, a NaN or an infinity.  A native float64 array is returned itself,
    with no dtype test and no conversion call."""
    array = np.asarray(values)
    if array.dtype is not FLOAT64:
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
    """A read-only copy of an array of any dtype, with its dtype and shape, over
    a bytes object: no flag makes it writable, and no array reachable through
    its base can be written."""
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


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
    counting from the first data row.  Raises EmptyDatasetError when the file
    holds a header but no rows, and DataError for every other violation.

    The body is parsed in one numpy pass (_parse_at_once).  A file that pass
    refuses, or might read otherwise than the row parser, is read again by
    _read_rows, which parses each cell as it reads it, so of two faults the
    one earlier in the file is reported.  It alone words every message.  A
    pipe is read into memory first, as bytes, and then read as a file is.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if not fh.seekable():  # a pipe cannot be read a second time; its bytes can
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), encoding="utf-8", newline="")
        dataset = _parse_at_once(path, fh, expect_labels)
        if dataset is not None:
            return dataset
        fh.seek(0)
        try:
            return _read_rows(path, csv.reader(fh), expect_labels)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: file is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a cell longer than the csv module's field limit
            raise DataError(f"{path}: {exc}") from None


def _parse_at_once(path, fh, expect_labels: bool) -> Dataset | None:
    """load_csv's Dataset from one np.loadtxt pass over the body of fh, or None
    when the row parser must read the file: a fault of any kind (DataError,
    UnicodeDecodeError and loadtxt's own refusals are ValueErrors), a blank
    line, the only kind loadtxt skips, a body of no lines, on which it warns,
    or a line it might read otherwise than csv.reader and float() do."""
    limit = csv.field_size_limit()
    n_lines = 0

    def body():
        nonlocal n_lines
        for line in fh:
            # a line longer than the field limit may hold a cell csv.reader
            # refuses; loadtxt strips \x1c-\x1f from a cell as whitespace, float() does not
            if (not line.strip("\r\n") or len(line) > limit
                    or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
                raise ValueError("a line left to the row parser")
            n_lines += 1
            yield line
        if not n_lines:
            raise ValueError("a body of no lines, left to the row parser")

    try:
        header, has_labels = _read_header(path, csv.reader(fh), expect_labels)
        cells = np.loadtxt(body(), delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        if cells.shape != (n_lines, len(header)):
            return None
        d = len(header) - has_labels
        # the constructor checks that every feature is finite and every label 0 or 1
        return Dataset(cells[:, :d], cells[:, d] if has_labels else None, tuple(header[:d]))
    except (ValueError, csv.Error):
        return None


def _read_header(path, reader, expect_labels: bool) -> tuple[list[str], bool]:
    """The header row and whether its last column, "label", holds the labels."""
    header = next(reader, None)
    if not header:
        raise DataError(f"{path}: empty file, expected a header row")
    has_labels = header[-1] == "label"
    if expect_labels and not has_labels:
        raise DataError(f'{path}: expected the last column to be named "label", got {header[-1]!r}')
    if header == ["label"]:
        raise DataError(f"{path}: no feature columns")
    return header, has_labels


def _read_rows(path, reader, expect_labels: bool) -> Dataset:
    header, has_labels = _read_header(path, reader, expect_labels)
    feature_names = header[:-1] if has_labels else header
    d, width = len(feature_names), len(header)
    features, labels = array("d"), array("d")
    for row_num, row in enumerate(reader, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {row_num} has {len(row)} cells, expected {width}")
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

