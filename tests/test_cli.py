"""Command-line behavior: subcommands, file formats, and exit codes."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gradboost.booster import deserialize_model, load_model, serialize_model
from gradboost.cli import EXIT_DATA, EXIT_IO, EXIT_MODEL_VERSION, EXIT_OK, EXIT_USAGE, main

from conftest import SIX_CSV

FORCED = "0:3.5;0:2.25;0:5.25"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One forced three-round training run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    model = root / "model.json"
    trace = root / "trace.csv"
    code = main(
        [
            "train",
            "--data", str(data),
            "--trees", "3",
            "--learning-rate", "0.1",
            "--force-splits", FORCED,
            "--out", str(model),
            "--trace", str(trace),
        ]
    )
    assert code == EXIT_OK
    return SimpleNamespace(root=root, data=data, model=model, trace=trace)


def _write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTrain:
    def test_reports_final_loss_on_stdout(self, tmp_path, capsys):
        data = _write(tmp_path, SIX_CSV)
        code = main(["train", "--data", str(data), "--force-splits", FORCED])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "4.094946\n"

    def test_model_file_layout(self, trained):
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        assert document["format_version"] == 1
        assert document["learning_rate"] == 0.1
        assert document["n_features"] == 1
        assert document["feature_names"] == ["x"]
        assert [t["threshold"] for t in document["trees"]] == [3.5, 2.25, 5.25]
        first = document["trees"][0]
        assert set(first) == {"feature_index", "threshold", "left", "right"}
        assert set(first["left"]) == {"leaf_id", "gamma"}
        assert first["left"]["leaf_id"] == 1
        assert first["left"]["gamma"] == 0.6666666666666666

    def test_learned_splits_without_force_flag(self, tmp_path, capsys):
        data = _write(tmp_path, SIX_CSV)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        document = json.loads(model.read_text(encoding="utf-8"))
        # free split search prefers the outer gap over the forced walkthrough cut
        assert document["trees"][0]["threshold"] == 1.4


class TestTraceOutput:
    def test_section_structure(self, trained):
        lines = trained.trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration 1"
        assert lines[1] == "index,x,y,p_prev,r"
        assert lines[2] == "1,1.300000,1,0.500000,0.500000"
        assert lines[3] == "2,1.500000,0,0.500000,-0.500000"
        assert lines[8] == ""
        assert lines[9] == "iteration,leaf_id,members,numerator,denominator,gamma"
        assert lines[10] == "1,1,1 2 3,0.500000,0.750000,0.666667"
        assert lines[11] == "1,2,4 5 6,-0.500000,0.750000,-0.666667"
        assert lines[12] == ""
        assert lines[13] == "iteration 2"
        assert sum(1 for line in lines if line.startswith("iteration ")) == 3

    def test_member_lists_follow_later_splits(self, trained):
        lines = trained.trace.read_text(encoding="utf-8").splitlines()
        # leaf rows sit at fixed offsets: 13 lines per iteration section
        assert lines[23].split(",")[:3] == ["2", "1", "1 2"]
        assert lines[24].split(",")[:3] == ["2", "2", "3 4 5 6"]
        assert lines[36].split(",")[:3] == ["3", "1", "1 2 3 4"]
        assert lines[37].split(",")[:3] == ["3", "2", "5 6"]

    def test_third_round_starting_probabilities(self, trained):
        lines = trained.trace.read_text(encoding="utf-8").splitlines()
        start = lines.index("iteration 3")
        rows = lines[start + 2 : start + 8]
        p_prev = [float(row.split(",")[3]) for row in rows]
        expected = [0.514995, 0.514995, 0.517494, 0.484173, 0.484173, 0.484173]
        assert p_prev == pytest.approx(expected, abs=5e-4)

    def test_residuals_consistent_with_probabilities(self, trained):
        for line in trained.trace.read_text(encoding="utf-8").splitlines():
            cells = line.split(",")
            if len(cells) != 5 or cells[0] in ("index", "") or not cells[0].isdigit():
                continue
            y, p_prev, r = float(cells[2]), float(cells[3]), float(cells[4])
            # each side is rounded to 6 decimals, so allow one unit in the last place
            assert abs(r - (y - p_prev)) <= 1.1e-6

    def test_trace_subcommand_reproduces_training_trace(self, trained, tmp_path):
        out = tmp_path / "replayed.csv"
        code = main(
            ["trace", "--model", str(trained.model), "--data", str(trained.data), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_bytes() == trained.trace.read_bytes()

    def test_trace_to_stdout(self, trained, capsys):
        code = main(["trace", "--model", str(trained.model), "--data", str(trained.data)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("iteration 1\n")


class TestPredict:
    def test_stdout_rows(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n7\n1\n")
        code = main(["predict", "--model", str(trained.model), "--data", str(data)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "index,raw_score,probability,label\n"
            "1,-0.056994,0.485755,0\n"
            "2,0.056826,0.514203,1\n"
        )

    def test_file_output_matches_stdout(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n7\n1\n")
        out = tmp_path / "preds.csv"
        code = main(
            ["predict", "--model", str(trained.model), "--data", str(data), "--out", str(out)]
        )
        assert code == EXIT_OK
        main(["predict", "--model", str(trained.model), "--data", str(data)])
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_threshold_flips_borderline_label(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n7\n")
        code = main(
            ["predict", "--model", str(trained.model), "--data", str(data), "--threshold", "0.48"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "1,-0.056994,0.485755,1"

    def test_labeled_input_is_accepted(self, trained, capsys):
        code = main(["predict", "--model", str(trained.model), "--data", str(trained.data)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[1].startswith("1,0.056826,")

    def test_header_only_input_yields_header_only_output(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n")
        code = main(["predict", "--model", str(trained.model), "--data", str(data)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "index,raw_score,probability,label\n"


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--trees", "0"],
            ["--learning-rate", "0"],
            ["--learning-rate", "1.5"],
            ["--max-depth", "0"],
            ["--min-leaf", "0"],
            ["--force-splits", "0:3.5"],  # three trees need three pairs
            ["--force-splits", "0:3.5;nope;0:5.25"],
            ["--force-splits", FORCED, "--max-depth", "2"],
            ["--trees", "1", "--force-splits", "5:1.0"],  # feature index out of range
        ],
    )
    def test_bad_training_options(self, trained, capsys, extra):
        code = main(["train", "--data", str(trained.data), *extra])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "-0.2"])
    def test_bad_prediction_threshold(self, trained, capsys, threshold):
        code = main(
            [
                "predict",
                "--model", str(trained.model),
                "--data", str(trained.data),
                "--threshold", threshold,
            ]
        )
        assert code == EXIT_USAGE
        assert "threshold" in capsys.readouterr().err


class TestDataErrors:
    def test_train_requires_label_column(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n1\n2\n")
        assert main(["train", "--data", str(data)]) == EXIT_DATA
        assert "label" in capsys.readouterr().err

    def test_train_rejects_non_binary_label(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x,label\n1.0,2\n")
        assert main(["train", "--data", str(data)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "row 1" in err and "label" in err

    def test_train_rejects_non_numeric_cell(self, tmp_path, capsys):
        data = _write(tmp_path, "x,label\noops,1\n")
        assert main(["train", "--data", str(data)]) == EXIT_DATA
        capsys.readouterr()

    def test_predict_rejects_feature_count_mismatch(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "a,b\n1,2\n")
        code = main(["predict", "--model", str(trained.model), "--data", str(data)])
        assert code == EXIT_DATA
        assert "feature" in capsys.readouterr().err

    def test_trace_requires_labels(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n1\n")
        code = main(["trace", "--model", str(trained.model), "--data", str(data)])
        assert code == EXIT_DATA
        capsys.readouterr()


class TestIOErrors:
    def test_train_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.csv")])
        assert code == EXIT_IO
        capsys.readouterr()

    def test_predict_missing_model_file(self, trained, tmp_path, capsys):
        code = main(
            ["predict", "--model", str(tmp_path / "absent.json"), "--data", str(trained.data)]
        )
        assert code == EXIT_IO
        capsys.readouterr()

    def test_truncated_model_file(self, trained, tmp_path, capsys):
        bad = _write(tmp_path, '{"format_version": 1, "lea', name="bad.json")
        code = main(["predict", "--model", str(bad), "--data", str(trained.data)])
        assert code == EXIT_IO
        assert "byte offset" in capsys.readouterr().err

    def test_unwritable_output_path(self, trained, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "model.json"
        code = main(
            ["train", "--data", str(trained.data), "--force-splits", FORCED, "--out", str(out)]
        )
        assert code == EXIT_IO
        capsys.readouterr()


def _set(key, value):
    return lambda document: document.update({key: value})


def _set_root(key, value):
    return lambda document: document["trees"][0].update({key: value})


def _split_chain(depth):
    """A one-feature model whose single tree nests depth splits down its left side."""
    node = '{"leaf_id": 1, "gamma": 0.0}'
    for _ in range(depth):
        right = '{"leaf_id": 2, "gamma": 0.0}'
        node = f'{{"feature_index": 0, "threshold": 0.5, "left": {node}, "right": {right}}}'
    header = '"format_version": 1, "learning_rate": 0.1, "n_features": 1, "feature_names": ["x"]'
    return f'{{{header}, "trees": [{node}]}}'.encode()


class TestUnreadableInputs:
    """A bad input file ends the command with a one-line error and its documented code."""

    @pytest.mark.parametrize(
        "command, model, data, code",
        [
            pytest.param("train", None, b"x,label\n\xff,1\n", EXIT_DATA, id="non-utf8-csv"),
            pytest.param(
                "train", None, b"x,label\n" + b"1" * 200_000 + b",1\n", EXIT_DATA,
                id="cell-over-csv-field-limit",
            ),
            pytest.param(
                "trace", None, b"a,b,label\n1,2,1\n", EXIT_DATA, id="trace-feature-count-mismatch"
            ),
            pytest.param(
                "predict", b'{"format_version": 1, "\xff": 0}', None, EXIT_IO, id="non-utf8-model"
            ),
            pytest.param(
                "predict", _set_root("feature_index", 1), None, EXIT_IO,
                id="feature-index-out-of-range",
            ),
            pytest.param(
                "trace", _set_root("feature_index", -1), None, EXIT_IO, id="negative-feature-index"
            ),
            pytest.param(
                "predict", _set("feature_names", None), None, EXIT_IO, id="feature-names-null"
            ),
            pytest.param(
                "predict", _set("feature_names", ["x", "y"]), None, EXIT_IO,
                id="feature-names-wrong-length",
            ),
            pytest.param(
                "predict", _set("n_features", math.inf), None, EXIT_IO, id="infinite-n-features"
            ),
            pytest.param(
                "predict", _set_root("threshold", 10**400), None, EXIT_IO,
                id="threshold-beyond-float-range",
            ),
            pytest.param(
                "predict", b'{"format_version": 1, "n_features": ' + b"1" * 5000 + b"}", None,
                EXIT_IO, id="integer-past-digit-limit",
            ),
            pytest.param("predict", _split_chain(3000), None, EXIT_IO, id="deep-split-chain"),
            pytest.param(
                "predict", b"[" * 3000 + b"]" * 3000, None, EXIT_IO, id="deep-nested-arrays"
            ),
        ],
    )
    def test_clean_error(self, trained, tmp_path, capsys, command, model, data, code):
        model_path, data_path = trained.model, trained.data
        if isinstance(model, bytes):
            model_path = tmp_path / "bad.json"
            model_path.write_bytes(model)
        elif model is not None:
            document = json.loads(trained.model.read_text(encoding="utf-8"))
            model(document)
            model_path = tmp_path / "edited.json"
            model_path.write_text(json.dumps(document), encoding="utf-8")
        if data is not None:
            data_path = tmp_path / "bad.csv"
            data_path.write_bytes(data)
        argv = [command, "--data", str(data_path)]
        if command != "train":
            argv += ["--model", str(model_path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestModelVersion:
    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_unsupported_versions(self, trained, tmp_path, capsys, version):
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        if version is None:
            del document["format_version"]
        else:
            document["format_version"] = version
        bad = tmp_path / "versioned.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        code = main(["predict", "--model", str(bad), "--data", str(trained.data)])
        assert code == EXIT_MODEL_VERSION
        assert "format_version" in capsys.readouterr().err


class TestSerialization:
    def test_round_trip_is_bit_exact(self, trained):
        first = load_model(trained.model)
        text = serialize_model(first)
        second = deserialize_model(text)
        assert serialize_model(second) == text
        for g in np.linspace(0.0, 10.0, 100):
            x = np.array([g])
            assert second.predict_raw(x) == first.predict_raw(x)
