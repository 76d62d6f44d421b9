"""Every benchmark workload's seed-0 outputs keep their recorded fingerprints.

bench/run.py compares every output with bench/fingerprints.json at the
default seed; this test makes the same comparison for each workload in the
plain test suite, so a byte change in a model file, the predictions or the
trace CSV fails here too.  It only reads bench/.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import gradboost.cli

from conftest import BENCH


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["fit-wide", "score-batch", "audit-replay"])
def test_outputs_match_the_recorded_fingerprints(name, tmp_path, bench_workloads):
    recorded = json.loads((BENCH / "fingerprints.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == bench_workloads.DEFAULT_SEED
    assert set(recorded) == {"seed", *bench_workloads.WORKLOADS}
    workload = bench_workloads.WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / workload.output
    bench_workloads.prepare(workload, bench_workloads.DEFAULT_SEED, inputs)
    with contextlib.redirect_stdout(io.StringIO()):
        assert gradboost.cli.main(workload.argv(inputs, out)) == 0
    # a train call's model is its output, so fit-wide has one fingerprint
    assert {
        "model.json": _sha256(workload.model_path(inputs, out)),
        workload.output: _sha256(out),
    } == recorded[workload.name]
