"""Parsing the declarative command language (no execution here)."""

import re
from pathlib import Path

import hypothesis.strategies as hs
import pytest
from hypothesis import given, settings

from quotrel.script import GRAMMAR, Script, ScriptError, Statement, parse_script

FULL_COVERAGE = """
ring R = QQ[x, y];
ring F = FF(5)[t] / (t^3);
ring P = QQ[u] * QQ[v];
poly f = x^2 - y in R;
poly g = x*y;
ideal I = (x^2 - y^2, x*y) in R;
algebra A = (x^2, y^2) in R;
algebra B = ();
map m : R -> F = (t, t^2);
action sg on R = (x, y | -x, -y);
relation REL on R = (x1 - x2, y1 - y2);
relation RM on R = from-map (x^2 + y, x*y);
relation RA on R = from-action sg;
cocycle C on R = maps (x^2, x*y - y^2, y^3) poly (x1*y2 - x2*y1)*y2^3;
pinchinput PI in R = ideal (x) sub (y^2, y^3) module (y);
groebner I;
check I member x + y;
check I radical-member x;
check A subalgebra-member x^2*y^2;
intersect I I;
eliminate I drop x;
present A;
present A names a, b;
verify-relation REL;
kernel-basis RM;
kernel-basis (m, m);
min-generators RM;
probe RM;
invariant-basis sg;
reynolds sg x^2 + y;
orbit-equation sg x;
check-cocycle C;
effectivity C;
pinch PI;
pinch PI names a, b, c;
verify-pushout PI;
verify-pushout diagram A A B;
subalgebra-intersection A B;
frobenius-exponent A B;
frobenius-exponent A B rmax = 4;
twist 5 t^2 in F;
evaluate m x^2;
derivative x^2*y wrt x in R;
monomials R degree 2;
"""


def test_smoke():
    script = parse_script(
        "ring R = QQ[x,y]; ideal I = (x^2 - y^2); check I member x+y;"
    )
    assert [s.kind for s in script.statements] == ["ring", "ideal", "check"]
    ideal = script.statements[1]
    assert ideal.fields == {"name": "I", "exprs": ["x^2 - y^2"], "ring": None}
    check = script.statements[2]
    assert check.fields == {"target": "I", "op": "member", "expr": "x+y"}


def test_empty_input():
    assert parse_script("") == Script([])
    assert parse_script("  # only a comment\n") == Script([])


def test_every_statement_kind_round_trips():
    script = parse_script(FULL_COVERAGE)
    assert len(script.statements) == 44
    again = parse_script(script.render())
    assert again == script
    # rendering is a fixed point after one pass
    assert again.render() == script.render()


def test_ring_declaration_fields():
    script = parse_script("ring F = FF(5)[t] / (t^3) * QQ[u, v];")
    comps = script.statements[0].fields["components"]
    assert comps[0] == {"field": ("FF", 5), "names": ["t"], "quotient": ["t^3"]}
    assert comps[1] == {"field": "QQ", "names": ["u", "v"], "quotient": []}


def test_action_tuples():
    script = parse_script("action sg on R = (x, y | -x, -y);")
    assert script.statements[0].fields["tuples"] == [["x", "y"], ["-x", "-y"]]


def test_expression_spans_keep_raw_text():
    script = parse_script("poly f = (x + 1)*(y - 2) in R;")
    assert script.statements[0].fields["expr"] == "(x + 1)*(y - 2)"


def test_optional_ring_clause():
    with_ring = parse_script("poly f = x^2 in R;").statements[0]
    without = parse_script("poly f = x^2;").statements[0]
    assert with_ring.fields["ring"] == "R"
    assert without.fields["ring"] is None
    assert without.render() == "poly f = x^2"


def test_hyphens_split_from_names():
    # statement keywords keep interior hyphens; trailing ones are operators
    script = parse_script("poly f = x-y in R; verify-relation REL;")
    assert script.statements[0].fields["expr"] == "x-y"
    assert script.statements[1].kind == "verify-relation"


def test_statement_equality_ignores_position():
    a = parse_script("groebner I;").statements[0]
    b = parse_script("\n\n   groebner I;").statements[0]
    assert a == b
    assert a != Statement("present", a.fields, 1)


def test_missing_semicolon():
    with pytest.raises(ScriptError, match="missing ';'"):
        parse_script("groebner I")


def test_truncated_statement_reports_end_of_input():
    with pytest.raises(ScriptError, match="at end of input"):
        parse_script("ideal I = (x^2;")


def test_unknown_keyword():
    with pytest.raises(ScriptError, match="unknown statement keyword"):
        parse_script("frobnicate X;")


def test_unexpected_character():
    with pytest.raises(ScriptError, match=r"unexpected character '\$'"):
        parse_script("poly f = $;")


def test_empty_statement():
    with pytest.raises(ScriptError, match="empty statement"):
        parse_script("groebner I;;")


def test_trailing_input_rejected():
    with pytest.raises(ScriptError, match="trailing input"):
        parse_script("groebner I J;")


def test_error_positions():
    try:
        parse_script("\n\n  frobnicate X;")
    except ScriptError as e:
        assert (e.line, e.col) == (3, 3)
        assert str(e).startswith("line 3, column 3:")
    else:
        pytest.fail("expected a ScriptError")


def test_check_operator_validation():
    with pytest.raises(ScriptError, match="member"):
        parse_script("check I divides x;")


def test_comments_are_skipped():
    script = parse_script("# header\ngroebner I; # trailing\n# footer\n")
    assert len(script.statements) == 1


FORMS = [(kind, form) for kind, forms in GRAMMAR.items() for form in forms]

# Every literal word of the table; generated identifiers avoid them.
WORDS = {word for _, form in FORMS
         for word in re.findall(r"[a-z][\w-]*", re.sub(r"{.*?}", "", form.template))}

IDENTS = hs.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in WORDS)
EXPRS = hs.recursive(
    hs.sampled_from(["x", "y", "t2", "x1"]) | hs.integers(0, 99).map(str),
    lambda inner: hs.one_of(
        hs.tuples(inner, hs.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        hs.tuples(inner, hs.integers(1, 5)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=6,
)
SLOT_VALUES = {
    "name": IDENTS,
    "int": hs.integers(0, 1000),
    "expr": EXPRS,
    "list": hs.lists(EXPRS, max_size=3),
    "names": hs.lists(IDENTS, min_size=1, max_size=3),
    "ring": hs.lists(hs.fixed_dictionaries({
        "field": hs.just("QQ") | hs.integers(2, 101).map(lambda p: ("FF", p)),
        "names": hs.lists(IDENTS, min_size=1, max_size=3),
        "quotient": hs.lists(EXPRS, max_size=2),
    }), min_size=1, max_size=3),
    "tuples": hs.lists(hs.lists(EXPRS, min_size=1, max_size=3),
                       min_size=1, max_size=3),
    "source": IDENTS.map(lambda n: ("rel", n))
    | hs.tuples(hs.just("pair"), IDENTS, IDENTS),
}


@pytest.mark.parametrize("kind, form", FORMS, ids=[f.template for _, f in FORMS])
@settings(max_examples=25, deadline=None)
@given(data=hs.data())
def test_every_form_round_trips(kind, form, data):
    fields = dict(form.consts)
    for key, slot, optional in form.slots:
        values = SLOT_VALUES[slot]
        if optional:  # the clause absent or present
            values = hs.just([] if slot == "names" else None) | values
        fields[key] = data.draw(values, label=key)
    st = Statement(kind, fields, 1)
    text = st.render()
    (again,) = parse_script(text + ";").statements
    assert again == st
    assert again.render() == text


def test_readme_lists_every_form():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [f.template for _, f in FORMS if f"`{f.template}`" not in readme] == []
