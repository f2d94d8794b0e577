"""The summary that ``tools/bench_pairs.py`` writes for paired runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(run_ref, ok_ratio):
    return {"metrics": {"run_ref": {"value": run_ref}, "ok_ratio": {"value": ok_ratio}}}


def test_summary_counts_pairs_won_in_each_metrics_direction():
    parent = [result(v, 1.0) for v in (10.0, 12.0, 11.0, 13.0)]
    change = [result(v, r) for v, r in ((9.0, 1.0), (12.0, 0.5), (10.0, 1.0), (14.0, 1.0))]
    summary = bench_pairs.summarize(parent, change, {"run_ref": "lower", "ok_ratio": "higher"})
    # a tie is not a win, and a higher ok_ratio never occurs here
    assert summary["run_ref"]["change_better_pairs"] == 2
    assert summary["ok_ratio"]["change_better_pairs"] == 0
    assert summary["run_ref"]["parent_median"] == 11.5
    assert summary["run_ref"]["change_median"] == 11.0
    assert summary["run_ref"]["pairs"] == 4


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]
