"""tools/ab_pairs.py reads bench/run.py's result lines and summarizes the
pairs, on canned lines: no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load_tool()


def _line(attempted, setup_s, cli_call_s, p50, rss, failed=0):
    values = {"setup_s": setup_s, "cli_call_s": cli_call_s, "predict_one_us.p50": p50, "peak_rss_mb": rss}
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


PARENT = [
    _line(80000, 0.60, 0.325, 3.1, 45.0),
    _line(76000, 0.70, 0.330, 3.0, 45.5),
    _line(84000, 0.65, 0.320, 3.2, 45.2),
]
CHANGE = [
    _line(120000, 0.55, 0.195, 3.1, 48.0),
    _line(140000, 0.50, 0.200, 3.1, 49.7),
    _line(114000, 0.66, 0.190, 3.0, 47.7),
]


def test_the_summary_gives_both_medians_their_ratio_and_the_pairs_won():
    parent = [ab_pairs.parse_result(line, METRICS) for line in PARENT]
    change = [ab_pairs.parse_result(line, METRICS) for line in CHANGE]
    assert parent[1] == {
        "correct": True, "attempted": 76000, "failed": 0, "setup_s": 0.70, "cli_call_s": 0.330,
        "predict_one_us.p50": 3.0, "peak_rss_mb": 45.5,
    }
    header, *rows, failures = ab_pairs.summary(METRICS, parent, change)
    assert header.split()[:6] == ["metric", "unit", "parent", "change", "ratio", "parent"]
    table = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(table) == [metric["name"] for metric in METRICS]
    # unit, parent median, change median, ratio, parent quartile distance, pairs won, verdict
    assert table["setup_s"] == ["s", "0.65", "0.55", "x0.846", "0.05", "2/3", "same"]
    assert table["cli_call_s"] == ["s", "0.325", "0.195", "x0.600", "0.005", "3/3", "gain"]
    # a tie (3.1 and 3.1) counts for neither side
    assert table["predict_one_us.p50"] == ["us", "3.1", "3.1", "x1.000", "0.1", "1/3", "same"]
    assert table["peak_rss_mb"] == ["MB", "45.2", "48", "x1.062", "0.25", "0/3", "same"]
    assert failures == "failed operations: parent 0 of 240000, change 0 of 374000"


# one metric of each verdict: setup_s x1.31 past its bound of 0.25; cli_call_s
# better in every pair by more than the parent's IQR; predict_one_us.p50's
# parent IQR, 1.0, wider than its bound, 0.25 of 3.0; peak_rss_mb within noise
VERDICT_PARENT = [
    _line(80000, 0.60, 0.325, 2.0, 45.0),
    _line(80000, 0.62, 0.330, 3.0, 45.5),
    _line(80000, 0.61, 0.320, 4.0, 45.2),
]
VERDICT_CHANGE = [
    _line(80000, 0.80, 0.195, 3.1, 45.1),
    _line(80000, 0.79, 0.200, 2.9, 45.4),
    _line(80000, 0.81, 0.190, 3.0, 45.3),
]


def test_each_metric_gets_the_verdict_its_bound_and_the_parents_spread_give():
    parent = [ab_pairs.parse_result(line, METRICS) for line in VERDICT_PARENT]
    change = [ab_pairs.parse_result(line, METRICS) for line in VERDICT_CHANGE]
    header, *rows, _ = ab_pairs.summary(METRICS, parent, change)
    assert header.split()[-1] == "verdict"
    assert {row.split()[0]: row.split()[-1] for row in rows} == {
        "setup_s": "worse", "cli_call_s": "gain", "predict_one_us.p50": "unresolved", "peak_rss_mb": "same",
    }


@pytest.mark.parametrize(
    "better, before, after, expected",
    [
        # a spread wider than the bound is resolved when every change run beats every parent run
        ("lower", [1.0, 1.05, 3.0], [0.9, 0.95, 0.99], "same"),
        ("lower", [1.0, 1.05, 3.0], [0.9, 0.95, 1.01], "unresolved"),
        ("higher", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "gain"),
        ("higher", [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], "worse"),
        # 8 pairs won of 10 is no gain, however far apart the medians
        ("lower", [2.0] * 10, [1.0] * 8 + [3.0] * 2, "same"),
    ],
    ids=["all-beat-all", "one-overlaps", "higher-gain", "higher-worse", "eight-of-ten"],
)
def test_each_verdict_rule_at_its_edge(better, before, after, expected):
    metric = {"name": "m", "unit": "-", "better": better, "bound": 0.2}
    lines = ab_pairs.summary([metric], [{"m": v, "failed": 0, "attempted": 1} for v in before],
                             [{"m": v, "failed": 0, "attempted": 1} for v in after])
    assert lines[1].split()[-1] == expected


def test_each_run_prints_attempted_failed_and_every_metric():
    values = ab_pairs.parse_result(CHANGE[0], METRICS)
    assert ab_pairs.run_line(0, "change", values, METRICS) == (
        "pair  1 change correct=true attempted=120000 failed=0 setup_s=0.55 cli_call_s=0.195 "
        "predict_one_us.p50=3.1 peak_rss_mb=48"
    )


@pytest.mark.parametrize(
    "line",
    [
        "",
        "# gradboost benchmark: {}",
        '{"attempted": 10, "failed": 0}',
        PARENT[0].replace('"peak_rss_mb"', '"peak_rss"'),
        PARENT[0].replace('"attempted": 80000', '"attempted": "many"'),
        "[1, 2]",
        PARENT[0].replace('"correct": true', '"correct": 1'),
    ],
    ids=["empty", "not-json", "no-metrics", "a-metric-missing", "attempted-not-a-number", "not-an-object",
         "correct-not-a-bool"],
)
def test_a_line_that_is_not_a_result_is_refused(line):
    with pytest.raises(ValueError, match="not a benchmark result line"):
        ab_pairs.parse_result(line, METRICS)


def _main(tmp_path, monkeypatch, capsys, parent_lines, change_lines, *options):
    """ab_pairs.main over canned result lines in place of run.py runs: (exit
    code, stdout, stderr, the (side, seed) of each run in order)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, lines = [], {"parent": iter(parent_lines), "change": iter(change_lines)}

    def run_once(checkout, workload, seed, metrics):
        runs.append((checkout.name, seed))
        return ab_pairs.parse_result(next(lines[checkout.name]), metrics)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                                      "--workload", "fit-wide", "--pairs", str(len(parent_lines)), *options])
    code = ab_pairs.main()
    out, err = capsys.readouterr()
    return code, out, err, runs


def test_the_sides_alternate_and_the_seed_is_passed_only_when_given(tmp_path, monkeypatch, capsys):
    code, out, err, runs = _main(tmp_path, monkeypatch, capsys, PARENT, CHANGE)
    assert (code, err) == (0, "")
    assert runs == [("parent", None), ("change", None), ("change", None), ("parent", None),
                    ("parent", None), ("change", None)]
    assert out.splitlines()[-1] == "failed operations: parent 0 of 240000, change 0 of 374000"
    assert _main(tmp_path / "seeded", monkeypatch, capsys, PARENT[:1], CHANGE[:1], "--seed", "1")[3] == [
        ("parent", 1), ("change", 1)]


def test_each_sides_median_attempted_comes_before_the_table(tmp_path, monkeypatch, capsys):
    # peak_rss_mb grows with the operations a run attempts, so it is read beside them
    code, out, _, _ = _main(tmp_path, monkeypatch, capsys, PARENT, CHANGE)
    lines = out.splitlines()
    # six run lines, then this one, then the table's header
    assert code == 0 and lines[6] == "median attempted: parent 80000, change 120000 (x1.500)"
    assert lines[7].split()[:2] == ["metric", "unit"]
    out = _main(tmp_path / "two", monkeypatch, capsys, PARENT[:2], CHANGE[:2])[1]
    assert "median attempted: parent 78000, change 130000 (x1.667)" in out.splitlines()


def test_a_run_with_failed_operations_makes_the_tool_fail(tmp_path, monkeypatch, capsys):
    change = [CHANGE[0], _line(130000, 0.5, 0.190, 3.1, 48.0, failed=2), CHANGE[2]]
    code, out, err, _ = _main(tmp_path, monkeypatch, capsys, PARENT, change)
    assert code == 1
    assert out.splitlines()[-1] == "failed operations: parent 0 of 240000, change 2 of 364000"
    assert err == "error: runs that reported correct: false: change pair 2\n"


def test_a_metric_whose_verdict_is_worse_makes_the_tool_fail(tmp_path, monkeypatch, capsys):
    # VERDICT_CHANGE's setup_s reads worse, and every run is correct
    code, out, err, _ = _main(tmp_path, monkeypatch, capsys, VERDICT_PARENT, VERDICT_CHANGE)
    assert code == 1
    assert out.splitlines()[-1] == "failed operations: parent 0 of 240000, change 0 of 240000"
    assert err == "error: metrics whose verdict is worse: setup_s\n"
