"""Dataset loading, validation, and CSV round-trip behavior."""

import math
import re
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import DataError, Dataset, EmptyDatasetError, Model, load_csv
from gradboost import dataset as dataset_module

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
    """The cell-by-cell reader that load_csv's one-parse-per-row reader must
    match, field for field and message for message."""
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


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.integers(1_000, 10**9).map("{:_}".format),  # 1_000-style cells
    st.floats(-1e3, 1e3).map(lambda v: f" {v!r}\t"),  # padded cells
    st.sampled_from(["1e308", "-1e308", "1.7e308", "0", "-0.0", "+1", ".5", "1E-320"]),
)
_FAULTS = ("oops", "nan", "inf", "-inf", "NaN", "", "2", "label", "drop", "extra")


@st.composite
def csv_texts(draw):
    """(CSV text, expect_labels): a labeled or unlabeled file of 1 to 6 rows,
    with up to two cells replaced by a fault or a row cut short or made long."""
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
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    return text, has_labels and draw(st.booleans())


@settings(max_examples=150)
@given(csv_texts())
def test_one_parse_per_row_matches_the_cell_by_cell_reader(case):
    text, expect_labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        loaded = _outcome(path, expect_labels)
        with mock.patch.object(dataset_module, "_read_rows", _reference_read_rows):
            reference = _outcome(path, expect_labels)
    assert loaded == reference


def test_a_row_of_finite_cells_whose_sum_overflows_is_read(tmp_path):
    ds = load_csv(_write(tmp_path, "a,b,label\n1e308,1e308,1\n-1.7e308,-1e308,0\n"))
    assert ds.features.tolist() == [[1e308, 1e308], [-1.7e308, -1e308]]
    assert ds.labels.tolist() == [1.0, 0.0]
