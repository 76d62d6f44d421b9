"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracing.py measures layers by rebinding module and class attributes, so
a refactor that renames or stops calling one of them through its module
breaks the traced benchmark without breaking any other test.
"""

import importlib.util
from pathlib import Path

import gradboost
import gradboost.cli

from conftest import SIX_CSV

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_records_layer_spans(tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV, encoding="utf-8")
    model = tmp_path / "model.json"
    tracer = _load_tracing().Tracer()
    tracer.prepare(gradboost)
    tracer.install()
    try:
        code = gradboost.cli.main(["train", "--data", str(data), "--out", str(model)])
    finally:
        tracer.uninstall()
    assert code == 0
    capsys.readouterr()
    spans = {tracer.names[span[0]] for span in tracer.spans}
    assert {
        "dataset.load_csv",
        "booster.train",
        "tree.fit_tree",
        "leaf_values.leaf_sample",
        "leaf_values.leaf_value_terms",
        "booster.total_loss",
        "cli.save_model",
    } <= spans
    assert tracer.counts["model_bytes"] == model.stat().st_size
