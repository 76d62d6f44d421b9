"""Command-line behavior: subcommands, file formats, and exit codes."""

import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradboost import (
    DataError, Dataset, Leaf, Model, RegressionTree, Split, TrainConfig, booster, train
)
from gradboost.booster import (
    ModelFormatError, ModelVersionError, deserialize_model, load_model, save_model, serialize_model
)
from gradboost.cli import (
    EXIT_CODES, EXIT_DATA, EXIT_IO, EXIT_MODEL_VERSION, EXIT_OK, EXIT_USAGE, build_parser, main,
    write_predictions,
)
from gradboost.leaf_values import sigmoid

from conftest import SIX_CSV, tree_depth

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

    def test_a_saturated_model_traces_without_warnings(self, tmp_path, capsys):
        # sigmoid(50) rounds to 1.0, so each y = 1 row has p = 1 exactly
        data = _write(tmp_path, "x,label\n" + "".join(f"{x},{int(x < 20)}\n" for x in range(40)))
        stump = RegressionTree(Split(0, 19.5, Leaf(1, 50.0), Leaf(2, -50.0)), 1)
        model = tmp_path / "model.json"
        save_model(Model((stump,), 1.0, 1, ("x",)), model)
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["trace", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert code == EXIT_OK
        assert caught == [] and capsys.readouterr().err == ""

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
        for header in ("x\n", "x,label\n"):
            data = _write(tmp_path, header)
            code = main(["predict", "--model", str(trained.model), "--data", str(data)])
            assert code == EXIT_OK
            assert capsys.readouterr().out == "index,raw_score,probability,label\n"


def _reference_write_predictions(fh, model, features, threshold):
    """The row-at-a-time csv.writer output that write_predictions must match byte for byte."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["index", "raw_score", "probability", "label"])
    for i, x in enumerate(features, start=1):
        raw = model.predict_raw(x)
        prob = sigmoid(raw)
        writer.writerow([i, f"{raw:.6f}", f"{prob:.6f}", 1 if prob >= threshold else 0])


class TestPredictionBlocks:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(300, 3))
        labels = (features[:, 0] + rng.normal(size=300) > 0).astype(float)
        config = TrainConfig(n_trees=6, learning_rate=0.5, max_depth=3)
        return train(Dataset(features, labels, ("a", "b", "c")), config)[0]

    @staticmethod
    def _both(model, features, threshold):
        written, expected = io.StringIO(), io.StringIO()
        write_predictions(written, model, features, threshold)
        _reference_write_predictions(expected, model, features, threshold)
        return written.getvalue(), expected.getvalue()

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_blocks_write_the_bytes_of_one_csv_row_per_write(self, model, n_rows):
        features = np.random.default_rng(n_rows).normal(size=(n_rows, 3))
        written, expected = self._both(model, features, 0.5)
        assert written == expected
        assert written.count("\n") == n_rows + 1

    @pytest.mark.parametrize("value", [5e-324, 1e15, 1.7e308, -1.7e308])
    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025])
    def test_blocks_write_the_bytes_of_extreme_scores(self, n_rows, value):
        # one one-leaf tree at learning rate 1 scores every row value: a
        # subnormal, a large whole number, and the widest numbers the
        # six-decimal cells print (a probability of 0 or 1)
        model = Model((RegressionTree(Leaf(1, value), 3),), 1.0, 3, ("a", "b", "c"))
        written, expected = self._both(model, np.zeros((n_rows, 3)), 0.5)
        assert written == expected
        assert written.count("\n") == n_rows + 1

    def test_a_probability_exactly_at_the_threshold_is_labeled_1(self, model):
        features = np.random.default_rng(1).normal(size=(50, 3))
        probs = sigmoid(model.predict_raw_batch(features)).tolist()
        threshold = sorted(set(probs))[len(set(probs)) // 2]
        written, expected = self._both(model, features, threshold)
        assert written == expected
        rows = [line.split(",") for line in written.splitlines()[1:]]
        assert [row[3] for row in rows] == ["1" if p >= threshold else "0" for p in probs]
        assert rows[probs.index(threshold)][3] == "1"

    @pytest.mark.parametrize("threshold", [1.5, math.nan, -1.0, 0.0, "0.5"])
    def test_a_bad_threshold_is_refused_before_anything_is_written(self, model, threshold):
        # not every row labeled 0 (1.5, NaN) or 1 (-1), nor a header alone
        written = io.StringIO()
        with pytest.raises(ValueError, match="threshold"):
            write_predictions(written, model, np.zeros((3, 3)), threshold)
        assert written.getvalue() == ""


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

    def test_training_defaults_are_train_configs(self):
        args = build_parser().parse_args(["train", "--data", "d.csv"])
        config = TrainConfig()
        parsed = (args.trees, args.learning_rate, args.max_depth, args.min_leaf)
        assert parsed == (config.n_trees, config.learning_rate, config.max_depth, config.min_leaf)

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
            ["--trees", "2", "--force-splits", "0:3.5;nope;0:5.25"],  # two good pairs, one bad
            ["--force-splits", ""],  # an empty list, not an absent one
            ["--force-splits", FORCED, "--max-depth", "2"],
            ["--force-splits", FORCED, "--min-leaf", "4"],  # a forced leaf holds 2 rows
            ["--trees", "1", "--force-splits", "5:1.0"],  # feature index out of range
            ["--max-depth", "513"],
        ],
    )
    def test_bad_training_options(self, trained, capsys, extra):
        code = main(["train", "--data", str(trained.data), *extra])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_max_depth_past_the_limit(self, tmp_path, capsys):
        # deep enough to exhaust the recursion limit if training were attempted
        rows = "".join(f"{x},{x % 2}\n" for x in range(3000))
        data = _write(tmp_path, "x,label\n" + rows)
        assert main(["train", "--data", str(data), "--max-depth", "1200"]) == EXIT_USAGE
        assert "max_depth" in capsys.readouterr().err

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

    def test_a_bad_threshold_is_reported_before_a_missing_model(self, trained, tmp_path, capsys):
        argv = ["predict", "--model", str(tmp_path / "missing.json"), "--data", str(trained.data)]
        assert main(argv + ["--threshold", "1.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: threshold 1.5 is not in (0, 1)\n"


class TestOneParserPerProcess:
    def test_calls_through_one_parser_match_calls_through_fresh_ones(self, tmp_path, capsys):
        # main reuses build_parser's one parser: a train, a usage error that
        # fails inside the train subparser, and a predict, run in one process,
        # give the codes, output and files a fresh parser per call gives
        data = _write(tmp_path, SIX_CSV)

        def session(fresh):
            model, predictions = tmp_path / f"model{fresh}.json", tmp_path / f"pred{fresh}.csv"
            calls = (
                ["train", "--data", str(data), "--trees", "3", "--max-depth", "2", "--out", str(model)],
                ["train", "--data", str(data), "--trees", "three"],
                ["predict", "--model", str(model), "--data", str(data), "--out", str(predictions)],
            )
            results = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                results.append((main(argv), *capsys.readouterr()))
            return results, model.read_bytes(), predictions.read_bytes()

        build_parser.cache_clear()
        reused = session(fresh=False)
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused[0]] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert "invalid int value: 'three'" in reused[0][1][2]
        assert reused == session(fresh=True)


def test_the_readme_exit_code_table_is_the_clis():
    # the codes are a documented contract: a test that compares only with the
    # constants passes whatever numbers they hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    assert {int(code) for code in re.findall(r"^\| (\d+) ", table, flags=re.MULTILINE)} == {0, 2, 3, 4, 5}
    assert (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_IO, EXIT_MODEL_VERSION) == (0, 2, 3, 4, 5)
    errors = ModelVersionError, ModelFormatError, OSError, DataError, ValueError
    assert [dict(EXIT_CODES)[error] for error in errors] == [5, 4, 4, 3, 2]


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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_predict_rejects_a_header_only_file_of_another_width(
        self, trained, tmp_path, capsys, to_file
    ):
        # a header with no rows is a matrix of no rows, so its width is checked as any file's
        data, out = _write(tmp_path, "a,b,c\n"), tmp_path / "predictions.csv"
        argv = ["predict", "--model", str(trained.model), "--data", str(data)]
        assert main(argv + ["--out", str(out)] * to_file) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == "error: data has 3 feature columns, model expects 1\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n"], ids=["header-only", "blank", "blanks"])
    @pytest.mark.parametrize("command", ["train", "predict", "trace"])
    def test_a_file_of_no_rows_gives_one_error_line_and_no_warning(
        self, trained, tmp_path, capsys, command, body
    ):
        # numpy's loadtxt warns on a body with no data; load_csv hands such a
        # file to its row parser, so only that parser's one line reaches stderr
        data = _write(tmp_path, "x,label\n" + body)
        argv = [command, "--data", str(data)] + ["--model", str(trained.model)] * (command != "train")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        if body:
            expected = EXIT_DATA, f"error: {data}: row 1 has 0 cells, expected 2\n"
        elif command == "predict":  # a header of the model's width is a matrix of no rows
            expected = EXIT_OK, ""
        else:
            expected = EXIT_DATA, f"error: {data}: no data rows\n"
        assert (code, capsys.readouterr().err) == expected
        assert caught == []

    def test_trace_rejects_feature_count_mismatch(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "a,b,label\n1,2,1\n3,4,0\n")
        assert main(["trace", "--model", str(trained.model), "--data", str(data)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == "error: data has 2 feature columns, model expects 1\n"
        assert captured.out == ""

    def test_trace_requires_labels(self, trained, tmp_path, capsys):
        data = _write(tmp_path, "x\n1\n")
        code = main(["trace", "--model", str(trained.model), "--data", str(data)])
        assert code == EXIT_DATA
        capsys.readouterr()


class TestOneErrorLine:
    def test_a_header_cell_with_a_line_break_is_escaped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, '"x\ny",label\n1.3,1\n1.5,0\nabc,1\n', "nl.csv")
        assert main(["train", "--data", "nl.csv"]) == EXIT_DATA
        assert capsys.readouterr().err == 'error: nl.csv: row 3, column "x\\ny": non-numeric value \'abc\'\n'

    def test_a_data_path_with_a_line_break_is_escaped(self, tmp_path, capsys):
        data = _write(tmp_path, "x,label\n1.3,1\nabc,0\n", "a\nb.csv")
        assert main(["train", "--data", str(data)]) == EXIT_DATA
        path = str(data).replace("\n", "\\n")
        assert capsys.readouterr().err == f'error: {path}: row 2, column "x": non-numeric value \'abc\'\n'

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text())
    def test_any_header_name_gives_one_error_line(self, trained, tmp_path, capsys, name):
        data = tmp_path / "named.csv"
        with data.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[name, "label"], ["1.3", "1"], ["abc", "0"]])
        model = str(trained.model)
        for argv in (
            ["train", "--data", str(data)],
            ["predict", "--model", model, "--data", str(data)],
            ["trace", "--model", model, "--data", str(data)],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            _assert_clean_exit(code, err, (name, argv[0]))
            assert code == EXIT_DATA, (name, argv[0], err)


def test_the_module_runs_as_a_script():
    # python -m gradboost.cli runs main and exits with its code
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "gradboost.cli", "train"]
    data = ["--data", str(root / "demos" / "data" / "six_points.csv")]
    done = subprocess.run(argv + data, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "3.845395\n", "")
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_USAGE and done.stdout == ""


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

    @pytest.mark.parametrize(
        "command, option",
        [("train", "--out"), ("train", "--trace"), ("predict", "--out"), ("trace", "--out")],
    )
    def test_an_empty_output_path_is_an_error(self, trained, capsys, command, option):
        # an absent option writes no file (train) or writes to stdout; an empty one is a path open refuses
        if command == "train":
            argv = ["train", "--data", str(trained.data), "--force-splits", FORCED]
        else:
            argv = [command, "--model", str(trained.model), "--data", str(trained.data)]
        code = main([*argv, option, ""])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def _set(key, value):
    return lambda document: document.update({key: value})


def _drop(key):
    return lambda document: document.pop(key)


def _set_root(key, value):
    return lambda document: document["trees"][0].update({key: value})


def _set_leaf(side, key, value):
    return lambda document: document["trees"][0][side].update({key: value})


def _swap_leaf_ids(document):
    root = document["trees"][0]
    root["left"]["leaf_id"], root["right"]["leaf_id"] = 2, 1


def _split_chain(depth):
    """A one-feature model whose single tree nests depth splits down its left
    side, with leaf ids 1..depth+1 left to right."""
    node = '{"leaf_id": 1, "gamma": 0.0}'
    for leaf_id in range(2, depth + 2):
        right = f'{{"leaf_id": {leaf_id}, "gamma": 0.0}}'
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
            pytest.param("predict", b"[]", None, EXIT_IO, id="model-not-an-object"),
            pytest.param("predict", _drop("learning_rate"), None, EXIT_IO, id="no-learning-rate"),
            pytest.param("predict", _drop("n_features"), None, EXIT_IO, id="no-n-features"),
            pytest.param("predict", _drop("feature_names"), None, EXIT_IO, id="no-feature-names"),
            pytest.param("predict", _drop("trees"), None, EXIT_IO, id="no-trees"),
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
                "predict", _set("feature_names", [1]), None, EXIT_IO, id="feature-name-not-a-string"
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
            # leaf ids must run 1..J left to right, as fit_tree numbers them
            pytest.param(
                "trace", _set_leaf("right", "leaf_id", 1), None, EXIT_IO, id="repeated-leaf-id"
            ),
            pytest.param(
                "predict", _swap_leaf_ids, None, EXIT_IO, id="leaf-ids-right-to-left"
            ),
            pytest.param(
                "predict", _set_leaf("left", "leaf_id", 0), None, EXIT_IO, id="leaf-ids-from-zero"
            ),
            pytest.param(
                "predict", _set("learning_rate", -7), None, EXIT_IO, id="negative-learning-rate"
            ),
            pytest.param(
                "predict", _set("learning_rate", 0), None, EXIT_IO, id="zero-learning-rate"
            ),
            pytest.param(
                "predict", _set("learning_rate", 1.5), None, EXIT_IO, id="learning-rate-above-one"
            ),
            pytest.param(
                "predict", lambda doc: doc.update(n_features=0, feature_names=[], trees=[]), None,
                EXIT_IO, id="zero-n-features",
            ),
            # integers must be JSON integers and numbers JSON numbers
            pytest.param("predict", _set("n_features", True), None, EXIT_IO, id="n-features-true"),
            pytest.param(
                "predict", _set("n_features", "1"), None, EXIT_IO, id="n-features-string"
            ),
            pytest.param("predict", _set("n_features", None), None, EXIT_IO, id="n-features-null"),
            pytest.param("predict", _set("n_features", [1]), None, EXIT_IO, id="n-features-list"),
            pytest.param("predict", _set("n_features", 1.7), None, EXIT_IO, id="n-features-float"),
            pytest.param(
                "predict", _set_root("feature_index", 0.5), None, EXIT_IO, id="feature-index-float"
            ),
            pytest.param(
                "predict", _set_root("feature_index", False), None, EXIT_IO,
                id="feature-index-false",
            ),
            pytest.param(
                "predict", _set_leaf("left", "leaf_id", True), None, EXIT_IO, id="leaf-id-true"
            ),
            pytest.param(
                "predict", _set_leaf("left", "leaf_id", 1.7), None, EXIT_IO, id="leaf-id-float"
            ),
            pytest.param(
                "predict", _set("learning_rate", True), None, EXIT_IO, id="learning-rate-true"
            ),
            pytest.param(
                "predict", _set("learning_rate", "0.5"), None, EXIT_IO, id="learning-rate-string"
            ),
            pytest.param(
                "predict", _set_root("threshold", "3.5"), None, EXIT_IO, id="threshold-string"
            ),
            pytest.param(
                "predict", _set_root("threshold", True), None, EXIT_IO, id="threshold-true"
            ),
            pytest.param(
                "predict", _set_leaf("left", "gamma", "0.5"), None, EXIT_IO, id="gamma-string"
            ),
            pytest.param(
                "predict", _set_leaf("left", "gamma", False), None, EXIT_IO, id="gamma-false"
            ),
            pytest.param(
                "predict", _split_chain(600), None, EXIT_IO, id="split-chain-past-depth-limit"
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

    def test_depth_limit_is_named(self, trained, tmp_path, capsys):
        model = tmp_path / "deep.json"
        model.write_bytes(_split_chain(600))
        assert main(["predict", "--model", str(model), "--data", str(trained.data)]) == EXIT_IO
        assert "512" in capsys.readouterr().err

    def test_deepest_allowed_tree_trains_saves_loads_and_traces(self, tmp_path, capsys):
        # alternating labels on distinct x values grow a chain as deep as allowed
        rows = "".join(f"{x},{x % 2}\n" for x in range(600))
        data = _write(tmp_path, "x,label\n" + rows)
        model = tmp_path / "model.json"
        argv = ["train", "--data", str(data), "--trees", "1", "--max-depth", "512"]
        assert main([*argv, "--out", str(model)]) == EXIT_OK
        assert tree_depth(load_model(model).trees[0]) == 512
        out = ["--out", str(tmp_path / "trace.csv")]
        assert main(["trace", "--model", str(model), "--data", str(data), *out]) == EXIT_OK
        capsys.readouterr()


class TestExtremeThresholds:
    def test_train_then_predict_on_values_whose_midpoint_overflows(self, tmp_path, capsys):
        data = _write(tmp_path, "x,label\n1e308,1\n1.7e308,0\n")
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(model)]) == EXIT_OK
        assert load_model(model).trees[0].root.threshold == 1e308
        assert main(["predict", "--model", str(model), "--data", str(data)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["1", "0"]

    def test_a_model_that_cannot_be_written_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(model):
            raise ValueError("cannot serialize")

        monkeypatch.setattr(booster, "serialize_model", refuse)
        tree = RegressionTree(Split(0, 3.5, Leaf(1, 0.5), Leaf(2, -0.5)), 1)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="cannot serialize"):
            save_model(Model((tree,), 0.1, 1, ("x",)), path)
        assert not path.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
    def test_a_forced_threshold_that_is_not_finite_is_refused(
        self, trained, tmp_path, capsys, threshold, out
    ):
        model = tmp_path / "model.json"
        argv = ["train", "--data", str(trained.data), "--trees", "1"]
        argv += ["--force-splits", f"0:{threshold}"] + (["--out", str(model)] if out else [])
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "threshold" in captured.err
        assert not model.exists()


# one literal per JSON type and edge: null, booleans, zero, a negative, a
# fraction, a number past the float range, an integer of 401 digits, strings,
# empty containers and a one-element list
SUBSTITUTES = {
    "null": "null",
    "true": "true",
    "false": "false",
    "zero": "0",
    "minus-one": "-1",
    "fraction": "1.5",
    "past-float-range": "1e400",
    "401-digits": "1" + "0" * 400,
    "string": '"x"',
    "numeric-string": '"1"',
    "empty-list": "[]",
    "empty-object": "{}",
    "one-element-list": "[1]",
}


def _key_paths(value, path=()):
    """The path of every value below a JSON document's root, parents first."""
    keys = value.keys() if isinstance(value, dict) else range(len(value))
    for key in keys:
        yield (*path, key)
        if isinstance(value[key], (dict, list)):
            yield from _key_paths(value[key], (*path, key))


# an empty cell, the special floats, a float past the range, a word, labels
# that are not 0 or 1, a cell holding the delimiter, an unclosed quote and NUL
CELL_SUBSTITUTES = ("", "nan", "inf", "1e400", "x", "2", "0.5", "1,2", '"', "\0")


def _assert_clean_exit(code, err, case):
    """A documented exit code; nothing on stderr after success, else one error line."""
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_IO, EXIT_MODEL_VERSION), (case, code)
    if code == EXIT_OK:
        assert err == "", (case, err)
    else:
        assert err.startswith("error:") and err.endswith("\n") and len(err.splitlines()) == 1, (case, err)


class TestModelFileSweep:
    @pytest.mark.parametrize("literal", SUBSTITUTES.values(), ids=SUBSTITUTES.keys())
    def test_every_single_edit_predicts_or_fails_cleanly(self, trained, tmp_path, capsys, literal):
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        paths = list(_key_paths(document))
        assert len(paths) == 33  # 5 top-level keys, 1 feature name, 3 stumps of 9 values
        marker = "substitute-here"
        edited = tmp_path / "edited.json"
        for path in paths:
            variant = json.loads(json.dumps(document))
            *parents, last = path
            target = variant
            for key in parents:
                target = target[key]
            target[last] = marker
            text = json.dumps(variant).replace(json.dumps(marker), literal)
            edited.write_text(text, encoding="utf-8")
            code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_IO, EXIT_MODEL_VERSION), (path, code)
            if code != EXIT_OK:
                assert err.startswith("error:") and err.count("\n") == 1, (path, err)

    def test_every_truncation_predicts_or_fails_cleanly(self, trained, tmp_path, capsys):
        whole = trained.model.read_bytes()
        edited = tmp_path / "truncated.json"
        for size in range(len(whole)):
            edited.write_bytes(whole[:size])
            code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
            _assert_clean_exit(code, capsys.readouterr().err, size)


class TestScoreRange:
    def test_a_model_whose_scores_can_overflow_is_refused(self, trained, tmp_path, capsys):
        # every value is finite, but three stumps of 1.7e308 sum past the float range
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        document["learning_rate"] = 1.0
        for stump in document["trees"]:
            stump["left"]["gamma"] = stump["right"]["gamma"] = 1.7e308
        model = _write(tmp_path, json.dumps(document), "model.json")
        for command in ("predict", "trace"):
            code = main([command, "--model", str(model), "--data", str(trained.data)])
            err = capsys.readouterr().err
            assert code == EXIT_IO
            assert err.startswith("error:") and err.count("\n") == 1 and "overflows" in err

    def test_a_loss_past_the_float_range_traces_cleanly(self, tmp_path, capsys):
        # every row is misclassified with |score| 1e308, so the exact loss is 4e308
        data = _write(tmp_path, "x,label\n0,1\n0,1\n1,0\n1,0\n")
        stump = RegressionTree(Split(0, 0.5, Leaf(1, -1e308), Leaf(2, 1e308)), 1)
        model = tmp_path / "model.json"
        save_model(Model((stump,), 1.0, 1, ("x",)), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["trace", "--model", str(model), "--data", str(data)])
        assert code == EXIT_OK and capsys.readouterr().err == ""


class TestByteFlipSweep:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_every_byte_replacement_runs_or_fails_cleanly(self, trained, tmp_path, capsys, data):
        """Each example replaces one byte of the model file, then one of the data
        CSV.  The model's indentation is skipped, so that the draws land on its
        keys, values and brackets."""
        model, csv = trained.model.read_bytes(), trained.data.read_bytes()
        structural = [i for i, byte in enumerate(model) if byte not in b" \n"]
        edited_model, edited_csv = tmp_path / "edited.json", tmp_path / "edited.csv"
        predict_model = [["predict", "--model", edited_model, "--data", trained.data]]
        run_data = [
            ["train", "--data", edited_csv],
            ["predict", "--model", trained.model, "--data", edited_csv],
            ["trace", "--model", trained.model, "--data", edited_csv],
        ]
        for original, offsets, edited, commands in (
            (model, structural, edited_model, predict_model),
            (csv, range(len(csv)), edited_csv, run_data),
        ):
            offset = data.draw(st.sampled_from(offsets), label="offset")
            byte = data.draw(st.integers(0, 255).filter(original[offset].__ne__), label="byte")
            edited.write_bytes(original[:offset] + bytes([byte]) + original[offset + 1:])
            for argv in commands:
                code = main(list(map(str, argv)))
                case = (edited.name, offset, byte, argv[0])
                _assert_clean_exit(code, capsys.readouterr().err, case)


class TestDataFileSweep:
    def test_every_single_cell_edit_runs_or_fails_cleanly(self, trained, tmp_path, capsys):
        rows = [line.split(",") for line in SIX_CSV.splitlines()]
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        assert len(cells) == 14  # the header and six rows, two cells each
        edited, model = tmp_path / "edited.csv", str(trained.model)
        commands = (
            ["train", "--data", str(edited)],
            ["predict", "--model", model, "--data", str(edited)],
            ["trace", "--model", model, "--data", str(edited)],
        )
        for (r, c), substitute in itertools.product(cells, CELL_SUBSTITUTES):
            variant = [list(row) for row in rows]
            variant[r][c] = substitute
            text = "".join(",".join(row) + "\n" for row in variant)
            edited.write_text(text, encoding="utf-8")
            for argv in commands:
                code = main(argv)
                _assert_clean_exit(code, capsys.readouterr().err, (r, c, substitute, argv[0]))


class TestModelVersion:
    @pytest.mark.parametrize("version", [2, 0, "1", None, True, 1.0])
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


def _found_model_text(document, fault):
    """The trained model's text with one fault the loader once read as another
    model: a split that also holds leaf keys (read as a leaf of 5.0, its subtree
    dropped), a gamma given twice (read as the last, 99.0), or a misspelled key
    (ignored)."""
    document = json.loads(json.dumps(document))
    if fault == "mixed-node":
        document["trees"][0].update(leaf_id=1, gamma=5.0)
    elif fault == "repeated-key":
        document["trees"][0]["left"]["gamma"] = "repeat-here"
    else:
        document["learning_rte"] = 0.5
    return json.dumps(document).replace('"repeat-here"', '1.0, "gamma": 99.0')


class TestStrictModelFile:
    @pytest.mark.parametrize("fault, message", [
        ("mixed-node", "tree node holds both leaf keys and split keys"),
        ("repeated-key", "tree node repeats key 'gamma'"),
        ("unknown-key", "model document holds unknown key 'learning_rte'"),
    ], ids=["mixed-node", "repeated-key", "unknown-key"])
    def test_a_model_file_read_otherwise_before_is_refused(self, trained, tmp_path, capsys, fault, message):
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        edited = _write(tmp_path, _found_model_text(document, fault), "edited.json")
        code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
        assert (code, capsys.readouterr().err) == (EXIT_IO, f"error: {message}\n")
        # the version is still read first, whatever else the file holds
        document["format_version"] = 2
        edited.write_text(_found_model_text(document, fault), encoding="utf-8")
        code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
        assert code == EXIT_MODEL_VERSION and "format_version" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ('"format_version": 1,', '"format_version": 1, "trees": [],', "model document repeats key 'trees'"),
        ('"leaf_id": 1,', '"leaf_id": 1, "weight": 2,', "tree node holds unknown key 'weight'"),
        ('"threshold": 0.5,', '"threshold": 0.5, "gamma": 0.0,', "tree node holds both leaf keys and split keys"),
        ('"threshold": 0.5,', '"threshold": 0.5, "left": 7,', "tree node repeats key 'left'"),
    ], ids=["document-repeats", "node-unknown", "split-with-gamma", "split-repeats"])
    def test_a_key_fault_is_named(self, old, new, message):
        document = {
            "format_version": 1, "learning_rate": 0.1, "n_features": 1, "feature_names": ["x"],
            "trees": [{"feature_index": 0, "threshold": 0.5, "left": {"leaf_id": 1, "gamma": 0.0},
                       "right": {"leaf_id": 2, "gamma": 1.0}}],
        }
        text = json.dumps(document)
        assert old in text
        with pytest.raises(ModelFormatError) as caught:
            deserialize_model(text.replace(old, new, 1))
        assert str(caught.value) == message


class TestObjectWhereAValueBelongs:
    @pytest.mark.parametrize("path, value, message", [
        (("learning_rate",), '{"a": 1}', "learning_rate must be a real number, got dict"),
        (("n_features",), '{"a": 1}', "n_features must be an integer >= 1, got {'a': 1}"),
        (("trees", 0, "threshold"), '{"a": 1}', "threshold must be a real number, got dict"),
        (("trees", 0, "left", "gamma"), '{"a": 1}', "leaf value must be a real number, got dict"),
        (("trees", 0, "feature_index"), '{"a": 1}', "split on feature {'a': 1} of a 1-feature tree"),
        (("trees", 0, "left", "leaf_id"), '{"a": 1}', "leaf id {'a': 1} out of order, expected 1"),
        # an object that repeats a key shows as read, with its last value
        (("n_features",), '{"a": 1, "a": 2}', "n_features must be an integer >= 1, got {'a': 2}"),
        (("trees", 0, "feature_index"), '{"a": 1, "a": 2}', "split on feature {'a': 2} of a 1-feature tree"),
        (("trees", 0, "left", "leaf_id"), '{"a": 1, "a": 2}', "leaf id {'a': 2} out of order, expected 1"),
    ], ids=["learning-rate", "n-features", "threshold", "gamma", "feature-index", "leaf-id",
            "n-features-repeats", "feature-index-repeats", "leaf-id-repeats"])
    def test_a_json_object_is_named_as_a_dict(self, trained, tmp_path, capsys, path, value, message):
        document = json.loads(trained.model.read_text(encoding="utf-8"))
        *parents, key = path
        place = document
        for step in parents:
            place = place[step]
        place[key] = "value-here"
        text = json.dumps(document).replace('"value-here"', value)
        edited = _write(tmp_path, text, "edited.json")
        code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
        assert (code, capsys.readouterr().err) == (EXIT_IO, f"error: {message}\n")
        # the version is still read first
        edited.write_text(text.replace('"format_version": 1', '"format_version": 2'), encoding="utf-8")
        code = main(["predict", "--model", str(edited), "--data", str(trained.data)])
        assert code == EXIT_MODEL_VERSION and "format_version" in capsys.readouterr().err

    def test_a_repeated_key_is_named_before_an_unknown_key_in_one_object(self):
        text = json.dumps({
            "format_version": 1, "learning_rate": 0.1, "n_features": 1, "feature_names": ["x"],
            "trees": [{"leaf_id": 1, "gamma": 0.0}],
        }).replace('"gamma": 0.0', '"weight": 2, "gamma": 0.0, "leaf_id": 1')
        with pytest.raises(ModelFormatError, match="^tree node repeats key 'leaf_id'$"):
            deserialize_model(text)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, trained):
        first = load_model(trained.model)
        text = serialize_model(first)
        second = deserialize_model(text)
        assert serialize_model(second) == text
        for g in np.linspace(0.0, 10.0, 100):
            x = np.array([g])
            assert second.predict_raw(x) == first.predict_raw(x)

    @pytest.mark.parametrize(
        "tree, message",
        [
            ([], "tree node must be a JSON object, got list"),
            ({"leaf_id": 1}, "leaf node missing 'gamma'"),
            (
                {"feature_index": 0, "threshold": 0.5, "left": {"leaf_id": 1, "gamma": 0.0}},
                "internal node missing 'right'",
            ),
            # two faults: the loader reads the tree in preorder, left subtree
            # first, and names the first fault it meets
            (
                {"feature_index": 0, "threshold": 0.5, "left": {"leaf_id": 2, "gamma": 0.0},
                 "right": 7},
                "leaf id 2 out of order, expected 1",
            ),
            (
                {"feature_index": 0, "threshold": 0.5, "left": {"leaf_id": 1},
                 "right": {"leaf_id": 2, "gamma": "0.5"}},
                "leaf node missing 'gamma'",
            ),
            (
                {"feature_index": 3, "threshold": 0.5, "left": [],
                 "right": {"leaf_id": 2, "gamma": 0.0}},
                "split on feature 3 of a 1-feature tree",
            ),
            # a value is checked as its node is read, before any child is
            (
                {"feature_index": 0, "threshold": "0.5", "left": {"leaf_id": 1},
                 "right": {"leaf_id": 2, "gamma": 0.0}},
                "threshold must be a real number, got str",
            ),
            (
                {"feature_index": 0, "threshold": 0.5, "left": {"leaf_id": 1, "gamma": True},
                 "right": []},
                "leaf value must be a real number, got bool",
            ),
            (
                {"feature_index": 1.0, "threshold": 0.5, "left": {"leaf_id": 1, "gamma": 0.0},
                 "right": {"feature_index": 0}},
                "split on feature 1.0 of a 1-feature tree",
            ),
        ],
        ids=["not-an-object", "leaf-without-gamma", "split-without-right", "id-then-not-an-object",
             "no-gamma-then-string-gamma", "feature-then-not-an-object", "string-threshold-then-no-gamma",
             "bool-gamma-then-not-an-object", "float-feature-then-bad-right"],
    )
    def test_a_bad_tree_names_its_first_fault_in_preorder(self, tree, message):
        document = {
            "format_version": 1, "learning_rate": 0.1, "n_features": 1, "feature_names": ["x"],
            "trees": [{"leaf_id": 1, "gamma": 0.0}, tree],
        }
        with pytest.raises(ModelFormatError) as caught:
            deserialize_model(json.dumps(document))
        assert str(caught.value) == message
