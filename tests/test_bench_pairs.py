"""The summaries that ``tools/bench_pairs.py`` writes for paired runs, and
its runs of the larger inputs and scripts."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from quotrel.cli import _Options, run_script
from quotrel.fields import GF
from quotrel.groebner import groebner_basis
from quotrel.poly import PolyRing
from quotrel.script import parse_script

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


def larger(seconds, built, sha):
    return {"seconds": seconds, "s_polynomials": built, "basis_size": 7, "basis_sha256_16": sha}


def test_larger_summary_reports_both_sides_and_whether_the_bases_agree():
    parent = [larger(s, 10, "aa") for s in (3.0, 1.0, 2.0)]
    change = [larger(s, 4, "aa") for s in (0.5, 0.25, 1.0)]
    summary = bench_pairs.summarize_larger(parent, change)
    assert summary["parent_median_s"] == 2.0 and summary["change_median_s"] == 0.5
    assert summary["change_s"] == [0.5, 0.25, 1.0]
    assert (summary["parent_s_polynomials"], summary["change_s_polynomials"]) == (10, 4)
    assert summary["basis_size"] == [7] and summary["outputs_equal"]
    change[1] = larger(0.25, 4, "bb")
    assert not bench_pairs.summarize_larger(parent, change)["outputs_equal"]


def test_larger_run_builds_katsura_and_cyclic_systems():
    """One fresh-process run in this checkout; katsura-3 and cyclic-4 have
    reduced bases of 7 elements, and the hash is that of the rendered
    basis."""
    out = bench_pairs.larger_run(TOOL.parent.parent, "katsura", 3, "FF(32003)")
    ring = PolyRing(GF(32003), ("u0", "u1", "u2", "u3"))
    basis = groebner_basis([ring.parse(g) for g in (
        "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
        "u1^2 + 2*u0*u2 + 2*u1*u3 - u2",
    )])
    text = "\n".join(ring.render(g) for g in basis)
    assert out["basis_size"] == 7 and out["s_polynomials"] > 0
    assert out["basis_sha256_16"] == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert bench_pairs.larger_run(TOOL.parent.parent, "cyclic", 4, "QQ")["basis_size"] == 7


def test_larger_script_summary_reports_both_sides_and_whether_the_reports_agree():
    parent = [{"seconds": s, "report_sha256_16": "aa"} for s in (4.0, 2.0, 3.0)]
    change = [{"seconds": s, "report_sha256_16": "aa"} for s in (1.0, 0.5, 2.0)]
    summary = bench_pairs.summarize_larger(parent, change)
    assert summary["parent_median_s"] == 3.0 and summary["change_median_s"] == 1.0
    assert summary["parent_s"] == [4.0, 2.0, 3.0]
    assert summary["report_sha256_16"] == ["aa"] and summary["outputs_equal"]
    assert "basis_size" not in summary and "parent_s_polynomials" not in summary
    change[2] = {"seconds": 2.0, "report_sha256_16": "bb"}
    assert not bench_pairs.summarize_larger(parent, change)["outputs_equal"]


@pytest.mark.parametrize("name", sorted(bench_pairs.LARGER_SCRIPTS))
def test_larger_script_run_hashes_the_rendered_report(name):
    """One fresh-process run of each script input, at a small degree bound,
    hashes the report that ``run_script`` renders in this process."""
    text, _ = bench_pairs.LARGER_SCRIPTS[name]
    out = bench_pairs.script_run(TOOL.parent.parent, text, 4)
    report = run_script(parse_script(text), _Options(max_degree=4)).render_text()
    assert "error" not in report and out["seconds"] > 0
    assert out["report_sha256_16"] == hashlib.sha256(report.encode()).hexdigest()[:16]
