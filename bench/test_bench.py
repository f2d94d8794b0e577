"""Checks of the benchmark's goldens against sources other than quotrel, and
of the benchmark's own bookkeeping.

Run with ``python3 -m pytest bench``.  The Groebner cross-check asks sympy
for cyclic-5 and katsura-5 over FF(32003), which takes a few seconds.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

from run import END_TO_END
from tracing import LAYER_METRICS
from workloads import (
    REPO_ROOT,
    SRC_DIR,
    WORKLOADS,
    golden_path,
    load_cases,
    load_goldens,
    split_blocks,
)
from worker import _compare

sys.path.insert(0, str(SRC_DIR))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from quotrel.fields import GF  # noqa: E402
from quotrel.poly import GREVLEX, PolyRing  # noqa: E402
from quotrel.script import DECL_KINDS, parse_script  # noqa: E402

sympy = pytest.importorskip("sympy")


def declarations(workload: str, case: str) -> dict:
    """Statement fields of a case's declarations, by declared name."""
    script = parse_script(load_cases(workload)[case])
    return {st.fields["name"]: st.fields for st in script.statements
            if st.kind in DECL_KINDS}


def table(block: str, heading: str) -> list[str]:
    lines = block.splitlines()
    start = lines.index(heading) + 1
    rows = []
    for line in lines[start:]:
        if not line or line.startswith("verdict:"):
            break
        rows.append(line)
    return rows


@pytest.mark.parametrize("case,ideal", [("cyclic5", "CYC5"), ("katsura5", "KAT5")])
def test_groebner_goldens_agree_with_sympy(case, ideal):
    from oracles import sympy_reduced_groebner

    decls = declarations("gb-ideals", case)
    comp = decls[decls[ideal]["ring"]]["components"][0]
    ring = PolyRing(GF(comp["field"][1]), tuple(comp["names"]), GREVLEX)
    polys = [ring.parse(e) for e in decls[ideal]["exprs"]]
    (block,) = load_goldens("gb-ideals")[case]
    assert set(table(block, "reduced basis:")) == sympy_reduced_groebner(
        polys, "grevlex"
    )


def test_s3_kernel_dimensions_count_partitions_into_three_parts():
    # Symmetric polynomials in three variables: the degree-n piece has one
    # basis element per partition of n into parts of size at most 3.
    partitions = [1] + [0] * 6
    for part in (1, 2, 3):
        for n in range(part, 7):
            partitions[n] += partitions[n - part]
    cumulative = [sum(partitions[: n + 1]) for n in range(7)]
    assert cumulative == [1, 2, 4, 7, 11, 16, 23]
    golden = golden_path("paper-constructions", "s3-orbit").read_text()
    assert f"dimensions by degree: {cumulative}" in golden


def _vanishes_mod_p(expr, symbols, p) -> bool:
    return sympy.Poly(sympy.expand(expr), *symbols, modulus=p).is_zero


def _sympy_of(text: str, symbols: dict):
    return sympy.sympify(text.replace("^", "**"), locals=symbols)


def _algebra_context(case: str):
    decls = declarations("frobenius-sieves", case)
    comp = decls[decls["SUB"]["ring"]]["components"][0]
    assert not comp["quotient"]
    symbols = {n: sympy.Symbol(n) for n in comp["names"]}
    sub = [_sympy_of(e, symbols) for e in decls["SUB"]["exprs"]]
    tags = {f"w{j + 1}": g for j, g in enumerate(sub)}
    return decls, symbols, tags, comp["field"][1]


@pytest.mark.parametrize("case", ["frobenius-ff3", "frobenius-ff2"])
def test_frobenius_certificates_substitute_back(case):
    decls, symbols, tags, p = _algebra_context(case)
    gens = [_sympy_of(e, symbols) for e in decls["GEN"]["exprs"]]
    (block,) = load_goldens("frobenius-sieves")[case]
    q = int(re.search(r"^q = \d+\^\d+ = (\d+)$", block, re.M).group(1))
    certs = re.findall(r"^  .* = (.*) in the generators$", block, re.M)
    assert len(certs) == len(gens)
    for b, cert in zip(gens, certs):
        image = _sympy_of(cert, {n: sympy.Symbol(n) for n in tags}).subs(tags)
        assert _vanishes_mod_p(image - b**q, list(symbols.values()), p)


def test_subalgebra_certificate_substitutes_back():
    decls, symbols, tags, p = _algebra_context("subalgebra-member")
    (block,) = load_goldens("frobenius-sieves")["subalgebra-member"]
    query = re.search(r"^\$ check SUB subalgebra-member (.*)$", block, re.M).group(1)
    cert = re.search(r"^certificate: (.*)$", block, re.M).group(1)
    image = _sympy_of(cert, {n: sympy.Symbol(n) for n in tags}).subs(tags)
    assert _vanishes_mod_p(image - _sympy_of(query, symbols),
                           list(symbols.values()), p)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_goldens_split_into_one_block_per_command(workload):
    for case, text in load_cases(workload).items():
        report = golden_path(workload, case).read_text()
        blocks = split_blocks(report)
        assert "".join(blocks) == report
        commands = [st for st in parse_script(text).statements
                    if st.kind not in DECL_KINDS]
        assert [b.splitlines()[0] for b in blocks] == [
            "$ " + st.render() for st in commands
        ]


def test_block_comparison_counts_every_failed_command():
    golden = ["$ a\nverdict: x\n\n", "$ b\n\n", "$ c\n"]
    assert _compare(list(golden), golden) == (0, None)
    assert _compare([golden[0], "$ b\nchanged\n\n", golden[2]], golden)[0] == 1
    assert _compare(golden[:1], golden)[0] == 2
    assert _compare(golden + ["$ d\n"], golden)[0] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        LAYER_METRICS
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == (
        END_TO_END + [("ok_ratio", "ratio")]
    )
