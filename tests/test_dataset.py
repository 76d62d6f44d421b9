"""Dataset loading, validation, and CSV round-trip behavior."""

import csv
import math
import os
import re
import tempfile
import threading
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import DataError, Dataset, EmptyDatasetError, Model, load_csv
from gradboost import dataset as dataset_module
from gradboost.dataset import FLOAT64, float_array, frozen_copy

from conftest import COPIES, NOT_NUMBERS, assert_frozen_over_bytes, write_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_labeled_file(self, six_csv):
        ds = load_csv(six_csv, expect_labels=True)
        np.testing.assert_array_equal(ds.features[:, 0], [1.3, 1.5, 3.0, 4.0, 6.5, 8.4])
        np.testing.assert_array_equal(ds.labels, [1, 0, 1, 0, 1, 0])
        assert ds.feature_names == ("x",)
        assert ds.n_rows == 6
        assert ds.n_features == 1

    def test_unlabeled_file(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n1,2\n3,4\n"))
        assert ds.labels is None
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_label_column_used_even_when_not_required(self, tmp_path):
        # a trailing "label" column never silently becomes a feature
        ds = load_csv(_write(tmp_path, "a,label\n1,1\n"), expect_labels=False)
        assert ds.feature_names == ("a",)
        np.testing.assert_array_equal(ds.labels, [1.0])

    def test_scientific_notation(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a\n1e3\n-2.5E-2\n"))
        np.testing.assert_array_equal(ds.features[:, 0], [1000.0, -0.025])

    def test_crlf_line_endings(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,label\r\n1.5,0\r\n2.5,1\r\n"), expect_labels=True)
        np.testing.assert_array_equal(ds.features[:, 0], [1.5, 2.5])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_missing_label_column_when_expected(self, tmp_path):
        with pytest.raises(DataError, match="label"):
            load_csv(_write(tmp_path, "a,b\n1,2\n"), expect_labels=True)

    def test_label_value_out_of_range(self, tmp_path):
        with pytest.raises(DataError, match=r'row 1, column "label"'):
            load_csv(_write(tmp_path, "x,label\n1.0,2\n"), expect_labels=True)
        # the message quotes the label cell, not another of a wider row
        with pytest.raises(DataError, match=r'row 1, column "label": expected 0 or 1, got \'2\'$'):
            load_csv(_write(tmp_path, "x,z,label\n1.0,7,2\n"), expect_labels=True)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        with pytest.raises(DataError, match=r'row 2, column "b"'):
            load_csv(_write(tmp_path, "a,b\n1,2\n3,oops\n"))

    def test_non_finite_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r'row 1, column "a"'):
            load_csv(_write(tmp_path, "a\nnan\n"))
        with pytest.raises(DataError, match="non-finite"):
            load_csv(_write(tmp_path, "a\ninf\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="row 2 has 1 cells, expected 2"):
            load_csv(_write(tmp_path, "a,b\n1,2\n3\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_csv(_write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError) as caught:
            load_csv(_write(tmp_path, "a,label\n"), expect_labels=True)
        assert caught.value.features.shape == (0, 1)
        # and the empty-file error is still a DataError for coarse handling
        assert issubclass(EmptyDatasetError, DataError)

    def test_unlabeled_header_only_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError, match="no data rows") as caught:
            load_csv(_write(tmp_path, "a,b\r\n"))
        assert caught.value.features.shape == (0, 2)
        assert caught.value.features.dtype == np.float64

    def test_earlier_of_two_faults_is_reported(self, tmp_path):
        # rows are parsed as they are read: a bad cell in row 1 is reported
        # even though row 3 holds a cell over the csv module's field limit
        text = "a,label\n1,oops\n2,1\n" + "3" * 200_000 + ",0\n"
        with pytest.raises(DataError, match=r'row 1, column "label"'):
            load_csv(_write(tmp_path, text), expect_labels=True)
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(_write(tmp_path, text.replace("oops", "1")), expect_labels=True)

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        with pytest.raises(DataError, match=r'row 2, column "b": non-finite'):
            load_csv(_write(tmp_path, "a,b,c\n1,2,3\n4,inf,x\n"))
        with pytest.raises(DataError, match=r'row 2, column "b": non-numeric'):
            load_csv(_write(tmp_path, "a,b,c\n1,2,3\n4,x,inf\n"))

    def test_label_only_header(self, tmp_path):
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(_write(tmp_path, "label\n1\n"), expect_labels=True)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")


def _fields(dataset):
    """A data set's names and the bits of its features and labels (None when unlabeled)."""
    labels = None if dataset.labels is None else [v.hex() for v in dataset.labels.tolist()]
    return dataset.feature_names, [v.hex() for v in dataset.features.ravel().tolist()], labels


class TestRoundTrip:
    """load_csv reads back, bit for bit, what write_csv wrote."""

    def test_six_point_round_trip(self, six_csv, tmp_path):
        ds = load_csv(six_csv, expect_labels=True)
        again = load_csv(write_csv(ds, tmp_path / "copy.csv"), expect_labels=True)
        assert _fields(again) == _fields(ds)

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        features = np.concatenate(
            [rng.uniform(-1e6, 1e6, 8), [0.1 + 0.2, 1.0 / 3.0, 1e-17, -0.0, 1.2345678901234567e300]]
        ).reshape(-1, 1)
        ds = Dataset(features, rng.integers(0, 2, 13).astype(float), ("v",))
        again = load_csv(write_csv(ds, tmp_path / "v.csv"), expect_labels=True)
        assert _fields(again) == _fields(ds)

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(np.array([[1.5, 2.5]]), None, ("a", "b"))
        again = load_csv(write_csv(ds, tmp_path / "u.csv"))
        assert _fields(again) == _fields(ds)

    def test_a_labeled_dataset_with_a_feature_named_label_round_trips(self, tmp_path):
        ds = Dataset([[1.0, 0.5], [2.0, 3.0]], [0.0, 1.0], ("a", "label"))
        path = write_csv(ds, tmp_path / "l.csv")
        assert path.read_text(encoding="utf-8").startswith("a,label,label\n")
        assert _fields(load_csv(path, expect_labels=True)) == _fields(ds)


_NAMES = st.text(alphabet="ab ,\"'x_1", min_size=1, max_size=4).filter(lambda name: name != "label")


@st.composite
def datasets(draw):
    """A small data set of arbitrary finite floats, labeled or not."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(finite, min_size=n * d, max_size=n * d))
    labels = draw(st.none() | st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    names = draw(st.lists(_NAMES, min_size=d, max_size=d))
    return Dataset(np.array(cells).reshape(n, d), labels, tuple(names))


@settings(max_examples=40)
@given(datasets())
def test_save_then_load_gives_back_an_equal_dataset(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(dataset, Path(tmp) / "data.csv")
        again = load_csv(path, expect_labels=dataset.labels is not None)
    assert _fields(again) == _fields(dataset)


class TestDatasetInvariants:
    def test_rejects_non_finite_features(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([1.0]), ("x",))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0]]), np.array([0.5]), ("x",))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.empty((0, 1)), None, ("x",))

    def test_rejects_features_that_are_not_a_matrix(self):
        with pytest.raises(DataError, match=re.escape("features must have shape (*, *), got (2,)")):
            Dataset(np.array([1.0, 2.0]), None, ("x",))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, 2.0]]), None, ("x",))

    @pytest.mark.parametrize(
        "names", ["ab", [1, 2.5], ("a", None), np.array(["a", "b"])],
        ids=["one-string", "numbers", "none", "array"],
    )
    def test_dataset_and_model_take_names_only_as_a_list_or_tuple_of_strings(self, names):
        message = re.escape("feature_names must be a list or tuple of 2 strings")
        with pytest.raises(DataError, match=message):
            Dataset(np.array([[1.0, 2.0]]), None, names)
        with pytest.raises(ValueError, match=message):
            Model((), 0.1, 2, names)
        assert Dataset(np.array([[1.0, 2.0]]), None, ["a", "b"]).feature_names == ("a", "b")

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_rejects_features_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"features must hold numbers, got dtype {dtype}")
        with pytest.raises(DataError, match=message):
            Dataset(cells, None, ("x",))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_rejects_labels_that_are_not_numbers(self, cells, dtype):
        message = re.escape(f"labels must hold numbers, got dtype {dtype}")
        with pytest.raises(DataError, match=message):
            Dataset(np.array([[1.0], [2.0]]), np.ravel(cells), ("x",))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0], [2.0]]), np.array([1.0]), ("x",))

    def test_arrays_are_immutable(self, six_points):
        with pytest.raises(ValueError):
            six_points.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            six_points.labels[0] = 0.0

    def test_a_callers_arrays_are_copied(self):
        features, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0])
        dataset = Dataset(features, labels, ("a", "b"))
        features[0, 0], labels[0] = 9.0, 1.0
        assert dataset.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert dataset.labels.tolist() == [0.0, 1.0]
        assert features.flags.writeable and labels.flags.writeable

    def test_loaded_arrays_are_read_only_and_no_array_can_write_them(self, six_csv):
        loaded = load_csv(six_csv)
        built = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]), ("x",))
        for array in (loaded.features, loaded.labels, built.features, built.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_every_copy_holds_frozen_copies_over_bytes(self, source, how, six_points, six_csv):
        original = six_points if source == "built" else load_csv(six_csv)
        dataset = COPIES[how](original)
        assert type(dataset) is Dataset and dataset.feature_names == original.feature_names
        for array, first in [(dataset.features, original.features), (dataset.labels, original.labels)]:
            assert array.dtype == np.float64 and array.shape == first.shape
            assert array.tobytes() == first.tobytes()
            assert_frozen_over_bytes(array)
        with pytest.raises(ValueError, match="read-only"):
            dataset.labels[0] = 0.5
        with pytest.raises(AttributeError):  # a base is an array or bytes, never a writable exporter
            dataset.labels.base.obj[0] = 0.5
        assert dataset.labels.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_an_unlabeled_copy_stays_unlabeled(self, six_points):
        unlabeled = Dataset(six_points.features, None, ("x",))
        for how, make in COPIES.items():
            assert make(unlabeled).labels is None, how

    @pytest.mark.parametrize("array", [
        pytest.param(np.array([1.5, -0.0, 5e-324]), id="float64"),
        pytest.param(np.array([0, 3, 5], dtype=np.intp), id="intp"),  # a trace leaf's members
        pytest.param(np.array([], dtype=np.intp), id="empty-intp"),  # an empty leaf's members
        pytest.param(np.arange(6.0).reshape(2, 3), id="2d-float64"),
        pytest.param(np.arange(6.0).reshape(2, 3).T, id="2d-float64-transposed"),
    ])
    def test_frozen_copy_keeps_dtype_shape_and_bytes(self, array):
        copy = frozen_copy(array)
        assert copy.dtype == array.dtype and copy.shape == array.shape
        assert copy.tobytes() == array.tobytes()
        assert_frozen_over_bytes(copy)


INTEGER_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


def _integer_cells(dtype):
    info = np.iinfo(dtype)
    return np.array([[info.min, 0], [1, info.max]], dtype=dtype)


def _float_cells(dtype):
    info = np.finfo(dtype)
    cells = [[0.1, -0.0], [info.max, info.smallest_subnormal]]
    return np.array(cells, dtype=dtype)


class TestFloatArray:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([0.5, -1.0, 2.0]),
            lambda: np.arange(12.0).reshape(4, 3),
            lambda: Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]), ("x",)).features,
            lambda: np.arange(24.0).reshape(4, 6)[::2, 1::3],
        ],
        ids=["row", "matrix", "dataset-array", "strided-view"],
    )
    def test_a_native_float64_array_comes_back_itself(self, make):
        array = make()
        assert array.dtype is FLOAT64
        assert float_array(array, "x") is array
        assert float_array(array, "x", array.shape, finite=True) is array

    @pytest.mark.parametrize(
        "values",
        [
            *(pytest.param(_integer_cells(dtype), id=dtype) for dtype in INTEGER_DTYPES),
            *(pytest.param(_float_cells(dtype), id=dtype) for dtype in ["float16", "float32", ">f8"]),
            pytest.param([[1, 2.5], [-0.0, 1e300]], id="list"),
            pytest.param(((1, 2.5), (-0.0, 1e300)), id="tuple"),
        ],
    )
    def test_other_numbers_become_a_bit_equal_native_float64_array(self, values):
        array = float_array(values, "x")
        assert array.dtype is FLOAT64 and array.shape == np.shape(values)
        # Python's float() of each cell, an exact conversion but for rounding an int64 or uint64 extreme
        expected = [[float(cell) for cell in row] for row in np.asarray(values).tolist()]
        assert array.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "values, dtype",
        [
            *(param.values for param in NOT_NUMBERS),
            (np.array([b"1.5", b"2.5"]), "|S3"),
            (np.array([1.5 + 0j, 2.5]), "complex128"),
        ],
        ids=[*(param.id for param in NOT_NUMBERS), "bytes", "complex"],
    )
    def test_what_is_not_numbers_is_refused_naming_its_dtype(self, values, dtype):
        with pytest.raises(DataError, match=re.escape(f"x must hold numbers, got dtype {dtype}")):
            float_array(values, "x")

    @pytest.mark.parametrize("dtype", ["float64", "float32"], ids=["native", "converted"])
    def test_shape_and_finiteness_are_checked_on_both_branches(self, dtype):
        cells = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        assert float_array(cells, "x", (None, 2), finite=True).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        for shape, expected in [((None, 3), "(*, 3)"), ((2,), "(2,)"), ((3, None), "(3, *)")]:
            with pytest.raises(DataError, match=re.escape(f"x must have shape {expected}, got (2, 2)")):
                float_array(cells, "x", shape)
        for bad in (np.nan, np.inf, -np.inf):
            with_bad = cells.copy()
            with_bad[1, 0] = bad
            assert float_array(with_bad, "x", (2, 2)).shape == (2, 2)  # finite is opt-in
            with pytest.raises(DataError, match="x must be finite, got a NaN or an infinity"):
                float_array(with_bad, "x", (2, 2), finite=True)


def _reference_parse_number(path, row_num, column, cell):
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


def _reference_read_rows(path, reader, expect_labels):
    """A cell-by-cell reader written apart from load_csv, which its row parser
    must match, field for field and message for message."""
    header = next(reader, None)
    if not header:
        raise DataError(f"{path}: empty file, expected a header row")
    has_labels = header[-1] == "label"
    if expect_labels and not has_labels:
        raise DataError(f'{path}: expected the last column to be named "label", got {header[-1]!r}')
    feature_names = header[:-1] if has_labels else header
    if not feature_names:
        raise DataError(f"{path}: no feature columns")
    features, labels = array("d"), array("d")
    for row_num, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        features.extend(
            _reference_parse_number(path, row_num, name, cell)
            for name, cell in zip(feature_names, row)
        )
        if has_labels:
            value = _reference_parse_number(path, row_num, "label", row[-1])
            if value not in (0.0, 1.0):
                raise DataError(
                    f'{path}: row {row_num}, column "label": expected 0 or 1, got {row[-1]!r}'
                )
            labels.append(value)
    if not features:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(
        np.array(features).reshape(-1, len(feature_names)),
        np.array(labels) if has_labels else None,
        tuple(feature_names),
    )


def _outcome(path, expect_labels):
    """load_csv's dataset as (names, feature bits, label bits), or its error as (type, text)."""
    try:
        return _fields(load_csv(path, expect_labels=expect_labels))
    except DataError as exc:
        return type(exc), str(exc)


def _row_parser_outcome(path, expect_labels, read_rows=dataset_module._read_rows):
    """_outcome with the one-pass parse switched off, so read_rows reads every row."""
    with mock.patch.object(dataset_module, "_parse_at_once", return_value=None):
        with mock.patch.object(dataset_module, "_read_rows", read_rows):
            return _outcome(path, expect_labels)


def _one_pass(path):
    """The one-pass parse alone: load_csv's Dataset, or None where it defers."""
    with open(path, newline="", encoding="utf-8") as fh:
        return dataset_module._parse_at_once(path, fh, False)


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f" {v!r}\t"),  # padded cells
    st.sampled_from(["1e308", "-1e308", "1.7e308", "0", "-0.0", "+1", ".5", "1E-320"]),
)
# cells the two parsers might read apart: quotes, comments, digits float()
# takes and loadtxt does not, a BOM, non-finite spellings, subnormals, and
# padding float() refuses that loadtxt strips as whitespace
_HAZARDS = (
    '"1"', '"0,5"', "#1", "1#", "1_0", "1_000_000", "\uff11", "\ufeff1", "Infinity", "-iNF", "1e999",
    "5e-324", "-0", " ", "\t1 ", "\x1c1", "1\x1f", "1\x00",
)
_FAULTS = ("oops", "nan", "inf", "-inf", "NaN", "", "2", "label", "drop", "extra", *_HAZARDS)
# rows cut into no cells or whitespace alone, which loadtxt skips or reads apart
_LINE_FAULTS = ((), (" ",), ("\t ",))


@st.composite
def csv_texts(draw):
    """(CSV text, expect_labels, field limit or None): a labeled or unlabeled
    file of 1 to 6 rows, with up to two cells replaced by a fault or a row cut
    short or made long, up to two blank or whitespace lines, any line ending,
    and perhaps a BOM or a csv field limit some cells pass."""
    d = draw(st.integers(1, 3))
    has_labels = draw(st.booleans())
    header = [f"f{j}" for j in range(d)] + (["label"] if has_labels else [])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(_CELLS, min_size=d, max_size=d))
        if d > 1 and draw(st.integers(0, 3)) == 0:  # finite cells whose sum overflows
            row = ["1e308"] * d
        rows.append(row + ([draw(st.sampled_from(["0", "1", "1.0", "0e5", " 1"]))] if has_labels else []))
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(header) - 1))
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "drop":
            del rows[r][c]
        elif fault == "extra":
            rows[r].append("1")
        elif c < len(rows[r]):
            rows[r][c] = fault
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(_LINE_FAULTS))))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(",".join(row) for row in [header, *rows])
    text = "\ufeff" * draw(st.booleans()) + text + ending * draw(st.booleans())
    limit = draw(st.sampled_from([None, None, None, 12, 24]))
    return text, has_labels and draw(st.booleans()), limit


@settings(max_examples=400)
@given(csv_texts())
def test_one_parse_per_row_matches_the_cell_by_cell_reader(case):
    # the reference runs the row parser alone, the real one and the
    # cell-by-cell one: load_csv, one-pass parse first, gives the same bits
    # or the same error text, whatever it leaves to the row parser
    with tempfile.TemporaryDirectory() as tmp:
        _assert_the_parsers_agree(Path(tmp), *case)


def _assert_the_parsers_agree(tmp_path, text, expect_labels, limit=None):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    default_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        loaded = _outcome(path, expect_labels)
        row_parser = _row_parser_outcome(path, expect_labels)
        reference = _row_parser_outcome(path, expect_labels, _reference_read_rows)
    finally:
        csv.field_size_limit(default_limit)
    assert loaded == row_parser == reference


_HAZARD_FILES = [
    *(("a,b\n1,2\n{},3\n".format(cell), False) for cell in _HAZARDS),
    *(("a,b\n1,2\n3,{}\n".format(cell), False) for cell in _HAZARDS),
    *(("a,label\n1,0\n2,{}\n".format(cell), True) for cell in _HAZARDS),
    *((f"a{end}1{end}{line}{end}2{end}", False) for end in "\n\r" for line in ("", " ", "\t ")),
    *((f"a{end}1{end}{line}{end}", False) for end in ("\n", "\r\n", "\r") for line in ("", " ")),
    ("\ufeffa,b\n1,2\n", False),
    ("a,b\n1,2\n\ufeff3,4\n", False),
]


@pytest.mark.parametrize("text, expect_labels", _HAZARD_FILES, ids=map(repr, range(len(_HAZARD_FILES))))
def test_a_hazard_in_a_clean_file_is_read_as_the_row_parser_reads_it(tmp_path, text, expect_labels):
    _assert_the_parsers_agree(tmp_path, text, expect_labels)


@pytest.mark.parametrize("text", [
    "a,b\n1234567890123,1\n",  # a cell one past a limit of 12
    "a,b\n123456789012,123456789012\n",  # two cells at it, on a line past it
    "a\n1234567890123",  # a last line, with no line ending, one past it
])
def test_a_lowered_field_limit_is_read_as_the_row_parser_reads_it(tmp_path, text):
    default_limit = csv.field_size_limit()
    _assert_the_parsers_agree(tmp_path, text, False, limit=12)
    assert csv.field_size_limit() == default_limit


def test_a_clean_file_is_read_by_the_one_pass_parse_alone(tmp_path):
    texts = ["x,y,label\n1,-0.0,0\n2.5,1e-320,1\n", "x\r\n1\r\n2\r\n", "x,y\r1,2\r3,4"]
    with mock.patch.object(dataset_module, "_read_rows", side_effect=AssertionError("row parser ran")):
        for n, text in enumerate(texts):
            path = tmp_path / f"{n}.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _fields(load_csv(path)) == _row_parser_outcome(path, False)


def _piped_outcome(pipe, data):
    """_outcome of load_csv(pipe, expect_labels=True) while a thread writes data into the named pipe."""
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    piped = _outcome(pipe, True)
    writer.join(timeout=10)
    assert not writer.is_alive()
    return piped


_PIPED = {
    "clean": b"x,label\n1,0\n2,1\n",
    "fault": b"x,label\n1,0\n2,7\n",
    "header-only": b"x,label\n",
    "blank-line-mid-body": b"x,label\n1,0\n\n2,1\n",
    "blank-crlf-line-at-end": b"x,label\r\n1,0\r\n2,1\r\n\r\n",
    "bad-cell-then-not-utf8": b"x,label\nz,0\n2,1\n3\xff,1\n",
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data", _PIPED.values(), ids=_PIPED.keys())
def test_a_pipe_is_read_as_a_file_of_its_bytes(tmp_path, data):
    # a pipe cannot be read twice, so its bytes are held in memory and then
    # take a file's steps: the numpy pass and, on a refusal, the row parser
    pipe, regular = tmp_path / "pipe.csv", tmp_path / "data.csv"
    regular.write_bytes(data)
    expected = _outcome(regular, True)
    if isinstance(expected[1], str):  # an error, (type, text), which names its path
        expected = expected[0], expected[1].replace(str(regular), str(pipe))
    assert _piped_outcome(pipe, data) == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_clean_pipe_is_read_by_the_one_pass_parse_alone(tmp_path):
    with mock.patch.object(dataset_module, "_read_rows", side_effect=AssertionError("row parser ran")):
        piped = _piped_outcome(tmp_path / "pipe.csv", _PIPED["clean"])
    assert piped == (("x",), [1.0.hex(), 2.0.hex()], [0.0.hex(), 1.0.hex()])


_SIGNIFICANDS = st.integers(17, 40).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
_EXACT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]).map(repr),
    st.builds(  # 17 to 40 significant digits, whose rounding float() settles
        lambda sign, digits, exponent: f"{sign}{str(digits)[0]}.{str(digits)[1:]}e{exponent}",
        st.sampled_from(["", "-", "+"]), _SIGNIFICANDS, st.integers(-340, 307),
    ),
    st.builds("{}{}".format, st.sampled_from(["", "-"]), st.integers(2**53 + 1, 10**300)),
)


@settings(max_examples=200)
@given(st.lists(_EXACT_CELLS, min_size=1, max_size=20))
def test_the_one_pass_parse_reads_each_cell_to_the_bits_float_gives(cells):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("x\n" + "".join(f"{cell}\n" for cell in cells), encoding="utf-8")
        dataset = _one_pass(path)
    assert dataset is not None
    assert dataset.features.tobytes() == array("d", map(float, cells)).tobytes()


def test_load_csv_peaks_at_most_three_matrices(tmp_path):
    # measured: the row parser peaks at 2.1 times the matrix, the one-pass
    # parse at 2.0, and np.loadtxt over the whole body read into one string at 13.5
    rows = np.random.default_rng(0).normal(size=(10_000, 6)).tolist()
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,d,e,f\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    tracemalloc.start()
    try:
        dataset = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (10_000, 6)
    assert peak <= 3 * dataset.features.nbytes


def test_a_row_of_finite_cells_whose_sum_overflows_is_read(tmp_path):
    ds = load_csv(_write(tmp_path, "a,b,label\n1e308,1e308,1\n-1.7e308,-1e308,0\n"))
    assert ds.features.tolist() == [[1e308, 1e308], [-1.7e308, -1e308]]
    assert ds.labels.tolist() == [1.0, 0.0]
