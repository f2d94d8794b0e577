"""End-to-end runs of the command-line front end.

Each test writes a script to a temp file, invokes ``main`` in-process and
checks the rendered report and exit code.  One test goes through the
installed ``quotrel`` console script to make sure the packaging glue works.
"""

import io
import json
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from quotrel.cli import main

SMOKE = (
    "ring R = QQ[x,y];\n"
    "ideal I = (x^2 - y^2) in R;\n"
    "check I member x+y;\n"
)

SMOKE_GOLDEN = (
    "$ check I member x+y\n"
    "inputs: I (ideal in R), x+y (inline)\n"
    "verdict: not-member\n"
)

# Involution on the plane: the four-generator relation is not transitive as
# a scheme, dropping the mixed generator repairs it.
INVOLUTION = """
ring D = QQ[x1, y1, x2, y2];
ideal DIAG = (x1 - x2, y1 - y2) in D;
ideal ANTI = (x1 + x2, y1 + y2) in D;
intersect DIAG ANTI;
ring X = QQ[x, y];
relation R on X = (x1^2 - x2^2, y1^2 - y2^2, x1*y1 - x2*y2, x1*y2 - x2*y1);
verify-relation R;
relation RSTAR on X = (x1^2 - x2^2, y1^2 - y2^2, x1*y1 - x2*y2);
verify-relation RSTAR;
"""

INVOLUTION_GOLDEN = (
    "$ intersect DIAG ANTI\n"
    "inputs: DIAG (ideal in D), ANTI (ideal in D)\n"
    "intersection basis:\n"
    "y1*x2 - x1*y2\n"
    "y1^2 - y2^2\n"
    "x1*y1 - x2*y2\n"
    "x1^2 - x2^2\n"
    "\n"
    "$ verify-relation R\n"
    "inputs: R (relation on X (explicit)), mode=scheme\n"
    "equivalence-relation check (mode=scheme)\n"
    "  reflexivity:  pass\n"
    "  symmetry:     pass\n"
    "  transitivity: FAIL   witness: -y1*x3 + x1*y3\n"
    "  finiteness:   pass\n"
    "verdict: fail\n"
    "\n"
    "$ verify-relation RSTAR\n"
    "inputs: RSTAR (relation on X (explicit)), mode=scheme\n"
    "equivalence-relation check (mode=scheme)\n"
    "  reflexivity:  pass\n"
    "  symmetry:     pass\n"
    "  transitivity: pass\n"
    "  finiteness:   pass\n"
    "verdict: pass\n"
)

COCYCLE = """
ring A = QQ[x1, x2];
cocycle F on A = maps (x1^2, x1*x2 - x2^2, x2^3) poly (x1*y2 - x2*y1)*y2^3;
check-cocycle F;
effectivity F;
"""

SLOW_GROEBNER = """
ring R = QQ[x,y,z];
ideal I = (x^5 + y^4 + z^3 - 1, x^3 + y^3 + z^2 - 1, x^2*y^2*z);
groebner I;
"""


CUSP_PINCH = (
    "ring P = QQ[u, v];\n"
    "pinchinput CUSP in P = ideal (u) sub (v^2, v^3) module (v);\n"
)


def run(tmp_path, capsys, text, *args):
    path = tmp_path / "script.qs"
    path.write_text(text)
    code = main([str(path), *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_passing_check_exits_zero(tmp_path, capsys):
    script = SMOKE.replace("member x+y", "member x^2 - y^2")
    code, out, err = run(tmp_path, capsys, script)
    assert code == 0
    assert "verdict: member" in out
    assert err == ""


def test_failing_check_golden_text(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, SMOKE)
    assert code == 1
    assert out == SMOKE_GOLDEN
    assert err == ""


def test_involution_script_golden_text(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INVOLUTION)
    assert code == 1
    assert out == INVOLUTION_GOLDEN


def test_set_mode_rescues_transitivity(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INVOLUTION, "--mode", "set")
    assert code == 0
    assert "mode=set" in out
    assert "FAIL" not in out


def test_json_document_shape(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SMOKE, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["status"] == 1
    (result,) = doc["results"]
    assert result == {
        "command": "check I member x+y",
        "inputs": ["I (ideal in R)", "x+y (inline)"],
        "tables": {},
        "verdict": "not-member",
        "witnesses": [],
    }
    # keys come out sorted so the document is diff-stable
    assert list(doc) == ["results", "status", "version"]


def test_output_is_deterministic(tmp_path, capsys):
    runs = [run(tmp_path, capsys, INVOLUTION) for _ in range(2)]
    assert runs[0] == runs[1]
    json_runs = [
        run(tmp_path, capsys, INVOLUTION, "--format", "json") for _ in range(2)
    ]
    assert json_runs[0] == json_runs[1]


def test_parse_error_exits_two(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "ring R = QQ[x,y];\nideal I = (x^2;\n")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2")


def test_missing_file_exits_two(capsys):
    code = main(["/no/such/place/script.qs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_unknown_flag_exits_two(tmp_path, capsys):
    path = tmp_path / "script.qs"
    path.write_text(SMOKE)
    assert main([str(path), "--frobnicate"]) == 2


def test_budget_flag_exits_three(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, SLOW_GROEBNER, "--budget", "3")
    assert code == 3
    assert "exceeded budget" in err
    # the same script finishes under the default (unlimited) budget
    code, out, err = run(tmp_path, capsys, SLOW_GROEBNER)
    assert code == 0
    assert "reduced basis:" in out


def test_execution_error_keeps_finished_blocks(tmp_path, capsys):
    script = SLOW_GROEBNER.replace(
        "ideal I", "ideal J = (x - y);\ngroebner J;\nideal I"
    )
    finished = (
        "$ groebner J\n"
        "inputs: J (ideal in R)\n"
        "reduced basis:\n"
        "x - y\n"
    )
    code, out, err = run(tmp_path, capsys, script, "--budget", "3")
    assert code == 3
    assert err.startswith("error: line 6: ")
    assert "exceeded budget" in err
    assert out == finished + "\n" + err
    code, out, err = run(tmp_path, capsys, script, "--budget", "3",
                         "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == 3
    assert doc["error"] == err.removeprefix("error: ").rstrip("\n")
    assert [r["command"] for r in doc["results"]] == ["groebner J"]
    assert doc["results"][0]["tables"] == {"reduced basis": ["x - y"]}


def test_reads_script_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SMOKE))
    code = main(["-"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == SMOKE_GOLDEN


def test_max_degree_bounds_kernel_basis(tmp_path, capsys):
    script = (
        "ring X = QQ[x, y];\n"
        "relation RM on X = from-map (x^2, x*y, y^2);\n"
        "kernel-basis RM;\n"
    )
    _, shallow, _ = run(tmp_path, capsys, script, "--max-degree", "3")
    _, deep, _ = run(tmp_path, capsys, script, "--max-degree", "4")
    assert "degree bound 3" in shallow
    assert "degree bound 4" in deep
    assert "dimensions by degree: [1, 1, 4, 4]" in shallow
    assert shallow != deep


def test_primes_flag_limits_effectivity_fields(tmp_path, capsys):
    _, out, _ = run(tmp_path, capsys, COCYCLE, "--primes", "2")
    assert "primes 2" in out
    assert "over FF(2):" in out
    assert "FF(5)" not in out
    _, full, _ = run(tmp_path, capsys, COCYCLE)
    assert "over FF(5):" in full


def test_noneffective_verdict_is_not_a_failure(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, COCYCLE)
    assert code == 0
    assert "verdict: cocycle" in out
    assert "verdict: noneffective" in out


def test_pushout_diagram_failure_witness(tmp_path, capsys):
    script = """
ring X = QQ[x, y];
algebra B1 = (x, y^2, y^3) in X;
algebra B2 = (x + y, x + x^2, y^2, y^3) in X;
algebra COR = (x + x^2, x*y^2, x*y^3, y^2, y^3) in X;
verify-pushout diagram B1 B2 COR;
"""
    code, out, _ = run(tmp_path, capsys, script, "--max-degree", "5")
    assert code == 1
    assert "verdict: not-push-out" in out
    assert "witness: x^3 - 3/4*x" in out


def test_map_evaluation(tmp_path, capsys):
    script = (
        "ring L = QQ[t];\n"
        "map SQ : L -> L = (t^2);\n"
        "evaluate SQ t^2 + 1;\n"
    )
    code, out, _ = run(tmp_path, capsys, script)
    assert code == 0
    assert "t^4 + 1" in out


@pytest.mark.skipif(shutil.which("quotrel") is None, reason="not installed")
def test_console_script(tmp_path):
    path = tmp_path / "script.qs"
    path.write_text(SMOKE)
    proc = subprocess.run(
        ["quotrel", str(path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == SMOKE_GOLDEN


def test_monomial_enumeration_over_budget_exits_three(tmp_path, capsys):
    # C(100002, 2) monomials: refused from the count, before enumerating
    script = "ring R = QQ[x, y, z];\nmonomials R degree 100000;\n"
    start = time.perf_counter()
    code, out, err = run(tmp_path, capsys, script)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "monomial enumeration exceeded budget" in err
    # --budget bounds the count too: 10 monomials up to degree 2
    small = "ring R = QQ[x, y, z];\nmonomials R degree 2;\n"
    code, out, err = run(tmp_path, capsys, small, "--budget", "9")
    assert code == 3
    assert "exceeded budget" in err
    code, out, err = run(tmp_path, capsys, small, "--budget", "10")
    assert code == 0


@pytest.mark.parametrize("script", [
    "ring X = QQ[x, y];\n"
    "relation RM on X = from-map (x^2, x*y, y^2);\n"
    "kernel-basis RM;\n",
    "ring X = QQ[x, y];\n"
    "action S on X = (x, y | y, x);\n"
    "invariant-basis S;\n",
    CUSP_PINCH + "pinch CUSP;\n",
    CUSP_PINCH + "verify-pushout CUSP;\n",
])
def test_max_degree_over_budget_exits_three(tmp_path, capsys, script):
    # each command checks all C(100002, 2) monomials up to the bound at
    # once, before forming any product
    start = time.perf_counter()
    code, _, err = run(tmp_path, capsys, script, "--max-degree", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "monomial enumeration exceeded budget" in err


GROEBNER_FIRST = (
    "ring A = {field}[x1, x2];\n"
    "ideal I = (x1^2 + x2) in A;\n"
    "groebner I;\n"
)


@pytest.mark.parametrize("field, tail, message", [
    ("FF(3)", "ideal J = (1/3*x1) in A;\n",
     "error: line 4: denominator 3 not invertible in FF(3)"),
    ("QQ", "poly f = x1 + 1/0 in A;\n",
     "error: line 4: denominator 0 not invertible in QQ"),
    # the QQ run succeeds; the rerun over FF(2) cannot reduce the 1/2
    ("QQ", "cocycle F on A = maps (x1^2, x1*x2 - x2^2, x2^3)"
           " poly 1/2*(x1*y2 - x2*y1)*y2^3;\n"
           "effectivity F;\n",
     "error: line 5: cannot rerun over FF(2): "
     "denominator 2 not invertible in FF(2)"),
])
def test_zero_denominator_is_an_error_that_keeps_finished_blocks(
        tmp_path, capsys, field, tail, message):
    code, out, err = run(tmp_path, capsys,
                         GROEBNER_FIRST.format(field=field) + tail)
    assert code == 2
    assert err.startswith(message)
    assert "Traceback" not in err
    assert out.startswith(
        "$ groebner I\n"
        "inputs: I (ideal in A)\n"
        "reduced basis:\n"
        "x1^2 + x2\n"
        "\n"
    )
    assert out.endswith(err)


def test_failed_effectivity_rerun_keeps_finished_tables(tmp_path, capsys):
    script = (GROEBNER_FIRST.format(field="QQ")
              + "cocycle F on A = maps (x1^2, x1*x2 - x2^2, x2^3)"
                " poly 1/2*(x1*y2 - x2*y1)*y2^3;\n"
                "effectivity F;\n")
    code, out, err = run(tmp_path, capsys, script)
    assert code == 2
    assert err.startswith("error: line 5: cannot rerun over FF(2): ")
    # the QQ table finished before the FF(2) rerun failed; no verdict
    block = out.split("$ effectivity F\n", 1)[1]
    assert block.startswith(
        "inputs: F (cocycle data on A, degree 5), primes 2,3,5\n"
        "over QQ:\n"
        "effectivity test in degree 5 over QQ\n")
    assert "  verdict: noneffective\n\n" + err in block
    assert "\nover FF(2):" not in block
    assert "\nverdict:" not in block
    doc = json.loads(run(tmp_path, capsys, script, "--format", "json")[1])
    assert list(doc["results"][-1]["tables"]) == ["over QQ"]
    assert doc["results"][-1]["verdict"] is None


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_checks_reuse_the_ideal_basis(tmp_path, capsys, monkeypatch):
    from quotrel import groebner

    calls = counting(monkeypatch, groebner, "_buchberger")
    script = (SMOKE.replace("check", "groebner I;\ncheck")
              + "check I member x^3 - x*y^2;\n")
    code, out, _ = run(tmp_path, capsys, script)
    assert code == 1
    assert out.count("verdict: member") == 1
    assert len(calls) == 1


KERNEL_SOURCE = (
    "ring X = QQ[x, y];\n"
    "relation RS on X = (x1^2 - x2^2, y1^2 - y2^2, x1*y1 - x2*y2);\n"
)


def test_kernel_commands_share_one_truncation(tmp_path, capsys, monkeypatch):
    from quotrel import cli, quotient

    commands = ["kernel-basis RS;\n", "min-generators RS;\n", "probe RS;\n"]
    alone = [run(tmp_path, capsys, KERNEL_SOURCE + c, "--max-degree", "4")
             for c in commands]
    calls = counting(monkeypatch, cli, "coequalizer_kernel_basis")
    # noetherian_probe reaches the kernel through its own module
    monkeypatch.setattr(quotient, "coequalizer_kernel_basis",
                        cli.coequalizer_kernel_basis)
    code, out, _ = run(tmp_path, capsys, KERNEL_SOURCE + "".join(commands),
                       "--max-degree", "4")
    assert len(calls) == 1
    assert code == 0
    assert out == "\n".join(o for _, o, _ in alone)


def test_set_mode_computes_only_the_finiteness_basis(tmp_path, capsys,
                                                     monkeypatch):
    from quotrel import eqrel
    from quotrel.poly import BlockOrder

    calls = counting(monkeypatch, eqrel, "groebner_basis")
    code, out, _ = run(tmp_path, capsys, KERNEL_SOURCE + "verify-relation RS;\n",
                       "--mode", "set")
    assert code == 0
    assert "mode=set" in out
    assert [gens[0].ring.order for gens, *_ in calls] == [BlockOrder(2)]


def test_verify_pushout_reuses_the_pinch(tmp_path, capsys, monkeypatch):
    from quotrel import cli

    case = (Path(__file__).parents[1] / "bench" / "cases"
            / "paper-constructions" / "cusp-pinch.qs").read_text()
    commands = ["pinch CUSP;\n", "verify-pushout CUSP;\n"]
    assert case.endswith("".join(commands))
    declarations = case[:-len("".join(commands))]
    alone = [run(tmp_path, capsys, declarations + c, "--max-degree", "6")
             for c in commands]
    calls = counting(monkeypatch, cli, "pinch_generators")
    code, out, _ = run(tmp_path, capsys, case, "--max-degree", "6")
    assert len(calls) == 1
    assert code == 0
    assert out == "\n".join(o for _, o, _ in alone)


def test_cusp_pinch_builds_each_sieve_once(tmp_path, capsys, monkeypatch):
    """`pinch` and `verify-pushout` share their sieves: the cusp pinch builds
    its 3 distinct sieves once each, and the presentation of the glued ring
    is read off the sieve that check (a) queries, so Buchberger runs 5
    times: the locus ideal, the 3 sieves and the presentation."""
    from quotrel import groebner
    from quotrel.groebner import MembershipSieve

    builds = []
    original = MembershipSieve.__init__

    def counted(self, ring, gens, extra_relations=(), budget=None):
        builds.append((tuple(gens), tuple(extra_relations)))
        original(self, ring, gens, extra_relations, budget)

    monkeypatch.setattr(MembershipSieve, "__init__", counted)
    runs = counting(monkeypatch, groebner, "_buchberger")
    case = (Path(__file__).parents[1] / "bench" / "cases"
            / "paper-constructions" / "cusp-pinch.qs").read_text()
    code, _, _ = run(tmp_path, capsys, case, "--max-degree", "6")
    assert code == 0
    assert len(builds) == 3
    assert len(set(builds)) == 3
    assert len(runs) == 5
