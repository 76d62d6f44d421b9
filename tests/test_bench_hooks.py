"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracing.py measures layers by rebinding module and class attributes, so
a refactor that renames or stops calling one of them through its module
breaks the traced benchmark without breaking any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

import gradboost
import gradboost.cli

from conftest import SIX_CSV

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(argv):
    """(exit code, tracer) of one gradboost CLI call under the benchmark's tracer."""
    return _traced_call(gradboost.cli.main, argv)


def _traced_call(fn, *args):
    """(fn's result, tracer) of one call under the benchmark's tracer."""
    tracer = _load_tracing().Tracer()
    tracer.prepare(gradboost)
    tracer.install()
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return result, tracer


def _span_names(tracer):
    return {tracer.names[span[0]] for span in tracer.spans}


def test_traced_train_records_layer_spans(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    model = tmp_path / "model.json"
    code, tracer = _traced(["train", "--data", str(data), "--out", str(model)])
    assert code == 0
    capsys.readouterr()
    spans = _span_names(tracer)
    assert {
        "dataset.load_csv",
        "booster.train",
        "tree.fit_tree",
        "leaf_values.leaf_value_terms",
        "booster.total_loss",
        "cli.save_model",
    } <= spans
    assert tracer.counts["model_bytes"] == model.stat().st_size
    # a round sums its leaves over the round's probs, building no LeafSample
    assert "leaf_values.leaf_sample" not in spans


def test_traced_train_counts_every_split_search(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    code, tracer = _traced(["train", "--data", str(data)])
    assert code == 0
    capsys.readouterr()
    # the default 3 grown stumps each search the six rows once, 1 feature x 5 positions; a
    # scan that bypasses tree.best_split fails here instead of reading 0 in the benchmark
    assert sum(tracer.names[span[0]] == "tree.best_split" for span in tracer.spans) == 3
    assert tracer.counts["best_split_calls"] == 3
    assert tracer.counts["candidates_scanned"] == 3 * 5


def test_traced_train_routes_each_row_once_per_round(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    code, tracer = _traced(["train", "--data", str(data)])
    assert code == 0
    capsys.readouterr()
    # the default 3 grown stumps: each round sums its two leaves once, over the
    # rows the grower hands back, so no row is routed through a tree
    assert tracer.counts["rows_routed"] == 0
    assert tracer.counts["leaves_evaluated"] == 2 * 3


def test_traced_train_routes_each_forced_stumps_rows_once(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    code, tracer = _traced(["train", "--data", str(data), "--force-splits", "0:3.5;0:2.25;0:5.25"])
    assert code == 0
    capsys.readouterr()
    # three forced stumps: each routes the six rows once, and sums its two leaves once
    assert tracer.counts["rows_routed"] == 6 * 3
    assert tracer.counts["leaves_evaluated"] == 2 * 3


def test_traced_predict_and_trace_record_layer_spans(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    model = tmp_path / "model.json"
    assert gradboost.cli.main(["train", "--data", str(data), "--out", str(model)]) == 0
    predictions, trace = tmp_path / "predictions.csv", tmp_path / "trace.csv"

    code, tracer = _traced(
        ["predict", "--model", str(model), "--data", str(data), "--out", str(predictions)]
    )
    assert code == 0
    assert {"cli.load_model", "dataset.load_csv", "cli.write_predictions"} <= _span_names(tracer)
    assert tracer.counts["model_bytes"] == model.stat().st_size
    assert tracer.counts["output_bytes"] == predictions.stat().st_size
    assert tracer.counts["predict_raw_calls"] == 0  # the batch path scores every row
    assert tracer.counts["rows_parsed"] == len(SIX_CSV.splitlines()) - 1  # every data row

    code, tracer = _traced(
        ["trace", "--model", str(model), "--data", str(data), "--out", str(trace)]
    )
    assert code == 0
    assert {
        "cli.load_model",
        "dataset.load_csv",
        "booster.replay",
        "tree.leaf_assignment",
        "cli.write_trace",
    } <= _span_names(tracer)
    assert "leaf_values.leaf_sample" not in _span_names(tracer)
    assert tracer.counts["rows_routed"] == 6 * 3  # six rows through each of the default 3 trees
    assert tracer.counts["output_bytes"] == trace.stat().st_size
    capsys.readouterr()


def _loss_calls(tracer):
    return sum(tracer.names[span[0]] == "booster.total_loss" for span in tracer.spans)


def test_traced_train_computes_one_loss(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    code, tracer = _traced(["train", "--data", str(data)])
    assert code == 0
    capsys.readouterr()
    # the printed final loss, not one per round of the default 3
    assert _loss_calls(tracer) == 1


def test_traced_trace_computes_no_loss(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    model, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    assert gradboost.cli.main(["train", "--data", str(data), "--out", str(model)]) == 0
    code, tracer = _traced(["trace", "--model", str(model), "--data", str(data), "--out", str(trace)])
    assert code == 0
    capsys.readouterr()
    # the trace CSV prints no loss, so replay computes none
    assert "booster.replay" in _span_names(tracer)
    assert _loss_calls(tracer) == 0


def test_traced_predict_proba_records_the_raw_score_and_sigmoid_spans(reference_run):
    model, _ = reference_run
    x = np.array([7.0])
    p, tracer = _traced_call(model.predict_proba, x)
    assert p == model.predict_proba(x)
    assert {"booster.predict_raw", "leaf_values.sigmoid"} <= _span_names(tracer)
    assert tracer.counts["predict_raw_calls"] == 1
