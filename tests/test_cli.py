"""End-to-end runs of the command-line front end.

Each test writes a script to a temp file, invokes ``main`` in-process and
checks the rendered report and exit code.  One test goes through the
installed ``quotrel`` console script to make sure the packaging glue works.
"""

import io
import json
import re
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from quotrel.cli import main
from quotrel.script import COMMAND_KINDS, GRAMMAR, Script, parse_script

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


# One script per case, each with the report it printed when recorded.  A
# script's optional "# args: ..." line gives the command-line flags and
# "# exit: N" the exit code (default 0); re-record a report with
# ``python -m quotrel.cli tests/cli_goldens/NAME.qs ARGS > tests/cli_goldens/NAME.out``.
GOLDENS = sorted((Path(__file__).parent / "cli_goldens").glob("*.qs"))


def header(text: str, key: str, default: str) -> str:
    found = re.search(rf"^# {key}: (.*)$", text, re.M)
    return found.group(1) if found else default


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_golden_report(path, capsys):
    text = path.read_text()
    code = main([str(path), *header(text, "args", "").split()])
    assert capsys.readouterr().out == path.with_suffix(".out").read_text()
    assert code == int(header(text, "exit", "0"))


def test_every_command_form_has_a_golden():
    """Every form of every command kind runs in some golden script."""
    covered = {
        (st.kind, i)
        for path in GOLDENS
        for st in parse_script(path.read_text()).statements
        for i, form in enumerate(GRAMMAR[st.kind]) if form.matches(st.fields)
    }
    forms = {(k, i) for k in COMMAND_KINDS for i in range(len(GRAMMAR[k]))}
    assert forms <= covered


def _first_use(kind, i):
    """The golden script with the first statement of form ``i`` of
    ``kind``, and that statement's index."""
    for path in GOLDENS:
        statements = parse_script(path.read_text()).statements
        for at, st in enumerate(statements):
            if st.kind == kind and GRAMMAR[kind][i].matches(st.fields):
                return path, statements, at
    raise AssertionError(f"no golden runs form {i} of {kind}")


@pytest.mark.parametrize("kind, i", [
    (k, i) for k in COMMAND_KINDS for i in range(len(GRAMMAR[k]))
], ids=str)
def test_empty_lists_end_in_a_report_or_an_exit_code(kind, i, tmp_path, capsys):
    """A command form run on its golden's declarations with every list slot
    given as ``()`` ends in a report or an exit code 1-3, never in another
    exception."""
    path, statements, at = _first_use(kind, i)
    script = [st for st in statements[:at] if st.kind not in COMMAND_KINDS]
    script.append(statements[at])
    for st in script:
        form = next(form for form in GRAMMAR[st.kind] if form.matches(st.fields))
        st.fields.update({key: [] for key, slot, _ in form.slots if slot == "list"})
    text = Script(script).render()
    code, _, err = run(tmp_path, capsys, text, *header(path.read_text(), "args", "").split())
    assert code in (0, 1, 2, 3)
    assert code in (0, 1) or err.startswith("error: line ")


def test_large_prime_fields(tmp_path, capsys):
    """FF(2^61 - 1) is certified prime at once; a characteristic beyond the
    primality test's exact range is an input error."""
    text = "ring R = FF(2305843009213693951)[x];\nideal I = (2*x - 1) in R;\ngroebner I;\n"
    code, out, _ = run(tmp_path, capsys, text)
    assert code == 0 and "x + 1152921504606846975" in out
    code, _, err = run(tmp_path, capsys, "ring R = FF(618970019642690137449562111)[x];\n")
    assert code == 2 and "cannot certify" in err


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


def test_negative_max_degree_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "script.qs"
    path.write_text(SMOKE)
    assert main([str(path), "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-degree: expected a nonnegative integer, got '-1'" in captured.err


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "ring R = QQ[x];\nmonomials R degree ²;\n")
    assert code == 2
    assert out == ""
    assert err == "error: line 2, column 20: expected integer, found '²'\n"


def test_non_ascii_names_are_declared(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, "ring X = QQ[x];\nideal Ĩ = (x) in X;\ngroebner Ĩ;\n")
    assert code == 0
    assert out == "$ groebner Ĩ\ninputs: Ĩ (ideal in X)\nreduced basis:\nx\n"


def test_orbit_relation_needs_the_action_on_its_ring(tmp_path, capsys):
    script = (
        "ring X = QQ[x, y];\n"
        "ring Y = QQ[u, v];\n"
        "action S on Y = (u, v | v, u);\n"
        "relation R on X = from-action S;\n"
    )
    code, out, err = run(tmp_path, capsys, script)
    assert code == 2
    assert err == "error: line 4: action S is declared on Y, not on X\n"


def test_ideals_are_refused_in_product_rings(tmp_path, capsys):
    for gens in ("()", "((x, y))"):
        code, _, err = run(tmp_path, capsys,
                           f"ring P = QQ[x] * QQ[y];\nideal I = {gens} in P;\n")
        assert code == 2
        assert err.startswith("error: line 2: ")


def test_wrong_kind_names_both_kinds(tmp_path, capsys):
    script = "ring X = QQ[x];\nideal I = (x);\npresent I;\n"
    code, _, err = run(tmp_path, capsys, script)
    assert code == 2
    assert err == "error: line 3: 'I' is an ideal, expected an algebra\n"


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


def test_budget_flag_scopes_one_run(tmp_path, capsys):
    from quotrel.poly import DEFAULT_BUDGET, current_budget

    code, _, _ = run(tmp_path, capsys, SLOW_GROEBNER, "--budget", "3")
    assert code == 3
    assert current_budget() == DEFAULT_BUDGET


def test_monomials_refuses_a_product_ring(tmp_path, capsys):
    script = "ring R = QQ[x, y] * QQ[z];\nmonomials R degree 1;\n"
    code, out, err = run(tmp_path, capsys, script)
    assert code == 2
    assert err == "error: line 2: monomials are listed for one-component rings\n"


def test_eliminate_renders_in_the_smaller_ring(tmp_path, capsys):
    script = (
        "ring S = QQ[a, b, c];\n"
        "ideal I = (a - b^2, c - b^3) in S;\n"
        "eliminate I drop b;\n"
    )
    code, out, err = run(tmp_path, capsys, script)
    assert code == 0
    assert out == (
        "$ eliminate I drop b\n"
        "inputs: I (ideal in S)\n"
        "elimination basis:\n"
        "a^3 - c^2\n"
    )


def test_frobenius_powers_stay_sparse(tmp_path, capsys):
    # (x + y)^(5^8) has two terms; forming it by repeated squaring does not
    # finish in minutes
    script = (
        "ring R = FF(5)[x, y];\n"
        "algebra S = (x^2) in R;\n"
        "algebra A = (x + y) in R;\n"
        "frobenius-exponent S A;\n"
    )
    start = time.perf_counter()
    code, out, _ = run(tmp_path, capsys, script, "--budget", "1000")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert out.splitlines()[-2:] == [
        "no exponent found with r <= 8", "verdict: not-found"]


def test_frobenius_exponents_iterate_residues(tmp_path, capsys):
    # each r divides the fifth power of the normal form found at r - 1,
    # never (x + y)^(5^r) itself, so forty steps stay quick
    script = (
        "ring R = FF(5)[x, y];\n"
        "algebra S = (x^2) in R;\n"
        "algebra A = (x + y) in R;\n"
        "frobenius-exponent S A rmax = 40;\n"
    )
    start = time.perf_counter()
    code, out, _ = run(tmp_path, capsys, script, "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[-2:] == [
        "no exponent found with r <= 40", "verdict: not-found"]


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


def test_invariant_basis_of_an_affine_action_exits_two(tmp_path, capsys):
    # degree by degree the system would print only 1, and miss x^2 + x and
    # x^4 + x; the orbit relation's kernel-basis finds them
    script = (
        "ring X = FF(2)[x];\n"
        "action T on X = (x | x + 1);\n"
        "relation ORB on X = from-action T;\n"
        "kernel-basis ORB;\n"
        "invariant-basis T;\n"
    )
    code, out, err = run(tmp_path, capsys, script, "--max-degree", "4")
    assert code == 2
    assert "degree 2: x^2 + x\ndegree 4: x^4 + x\n" in out
    assert err == (
        "error: line 5: invariant bases need linear maps, but x -> x + 1 is not "
        "homogeneous of degree 1; the kernel-basis of the action's orbit "
        "relation (from-action) finds the invariants of an affine action\n")


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
    is the tag-only part of the basis of the sieve that check (a) queries,
    with no second basis computation, so Buchberger runs 4 times: the locus
    ideal and the 3 sieves."""
    from quotrel import groebner
    from quotrel.groebner import MembershipSieve

    builds = []
    original = MembershipSieve.__init__

    def counted(self, ring, gens, extra_relations=()):
        builds.append((tuple(gens), tuple(extra_relations)))
        original(self, ring, gens, extra_relations)

    monkeypatch.setattr(MembershipSieve, "__init__", counted)
    runs = counting(monkeypatch, groebner, "_buchberger")
    case = (Path(__file__).parents[1] / "bench" / "cases"
            / "paper-constructions" / "cusp-pinch.qs").read_text()
    code, _, _ = run(tmp_path, capsys, case, "--max-degree", "6")
    assert code == 0
    assert len(builds) == 3
    assert len(set(builds)) == 3
    assert len(runs) == 4
