"""Relations in doubled variables and the four equivalence axioms."""

import pytest

from quotrel.eqrel import (
    RelationPresentation,
    copy_names,
    relation_from_group_action,
    relation_from_map,
    verify_relation,
)
from quotrel.fields import QQ
from quotrel.groebner import normal_form
from quotrel.invariants import GroupAction
from quotrel.poly import GREVLEX, BlockOrder, PolyRing
from quotrel.ring import AmbientRing, RingMap


def line():
    return AmbientRing.free(QQ, ("x",))


def plane():
    return AmbientRing.free(QQ, ("x", "y"))


def test_copy_names_plain():
    assert copy_names(["x", "y"], 2) == [["x1", "y1"], ["x2", "y2"]]


def test_copy_names_rotates_letters_for_indexed_input():
    assert copy_names(["x1", "x2"], 3) == [
        ["x1", "x2"],
        ["y1", "y2"],
        ["z1", "z2"],
    ]


def test_copy_names_fallback_suffixes():
    assert copy_names(["a1", "b2"], 2) == [["a1_c1", "b2_c1"], ["a1_c2", "b2_c2"]]


def test_product_ambient_rejected():
    prod = AmbientRing([(PolyRing(QQ, ("t",)), []) for _ in range(2)])
    with pytest.raises(ValueError):
        RelationPresentation(prod, [])


def test_relation_from_squaring_map():
    A = line()
    rel = relation_from_map(A, [A.poly_ring(0).parse("x^2")])
    assert rel.doubled.names == ("x1", "x2")
    assert [rel.doubled.render(g) for g in rel.gens] == ["x1^2 - x2^2"]
    assert rel.maps == [A.poly_ring(0).parse("x^2")] and rel.action is None
    rep = verify_relation(rel, "scheme")
    assert rep.all_pass
    assert "pass" in rep.render() and "FAIL" not in rep.render()


def test_swap_is_an_involution():
    A = plane()
    rel = relation_from_map(A, [A.poly_ring(0).parse("x*y + y^3")])
    g = rel.gens[0]
    assert rel.swap(rel.swap(g)) == g
    assert rel.swap(g) != g


def test_projection_relation_fails_finiteness():
    # identifying whole vertical lines is not a finite relation
    A = plane()
    rel = relation_from_map(A, [A.poly_ring(0).parse("x")])
    rep = verify_relation(rel, "scheme")
    assert rep.verdicts["reflexivity"]
    assert rep.verdicts["symmetry"]
    assert rep.verdicts["transitivity"]
    assert not rep.verdicts["finiteness"]
    w = rep.witnesses["finiteness"]
    assert w.ring.render(w) == "y2"
    # finiteness is structural, so set mode agrees
    assert not verify_relation(rel, "set").verdicts["finiteness"]


def test_mode_validation():
    rel = relation_from_map(line(), [])
    with pytest.raises(ValueError):
        verify_relation(rel, "points")


def test_explicit_diagonal_is_an_equivalence():
    A = plane()
    D = PolyRing(QQ, ("x1", "y1", "x2", "y2"))
    rel = RelationPresentation(A, [D.parse("x1 - x2"), D.parse("y1 - y2")])
    assert rel.maps is None and rel.action is None
    assert verify_relation(rel, "scheme").all_pass


def test_fat_diagonal_is_transitive_only_as_sets():
    A = line()
    D = PolyRing(QQ, ("x1", "x2"))
    rel = RelationPresentation(A, [D.parse("(x1 - x2)^2")])
    scheme = verify_relation(rel, "scheme")
    assert scheme.verdicts["reflexivity"]
    assert scheme.verdicts["symmetry"]
    assert scheme.verdicts["finiteness"]
    assert not scheme.verdicts["transitivity"]
    w = scheme.witnesses["transitivity"]
    assert w.ring.render(w) == "x1^2 - 2*x1*x3 + x3^2"
    assert verify_relation(rel, "set").all_pass


def test_indiscrete_relation_finite_only_on_finite_schemes():
    rep = verify_relation(relation_from_map(line(), []))
    assert not rep.verdicts["finiteness"]
    pr = PolyRing(QQ, ("x",))
    fat_point = AmbientRing.quotient(pr, [pr.parse("x^2")])
    assert verify_relation(relation_from_map(fat_point, [])).all_pass


def test_quotient_ambient_carries_its_ideal():
    pr = PolyRing(QQ, ("x", "y"))
    parabola = AmbientRing.quotient(pr, [pr.parse("y - x^2")])
    rel = relation_from_map(parabola, [pr.parse("x")])
    # both copies of the defining ideal lie in the relation ideal
    gb = rel.gb()
    assert all(normal_form(q, gb).is_zero() for q in rel.full_gens[len(rel.gens):])
    # x determines y on the parabola, so the relation is the diagonal
    assert verify_relation(rel, "scheme").all_pass


def test_sign_action_orbit_relation():
    A = plane()
    pr = A.poly_ring(0)
    ident = RingMap.identity(A)
    neg = RingMap.on_polys(A, A, [pr.parse("-x"), pr.parse("-y")])
    act = GroupAction(A, [ident, neg])
    rel = relation_from_group_action(act)
    assert rel.action is act and rel.maps is None
    scheme = verify_relation(rel, "scheme")
    assert scheme.verdicts["reflexivity"]
    assert scheme.verdicts["symmetry"]
    assert scheme.verdicts["finiteness"]
    # the composed correspondence picks up an embedded origin
    assert not scheme.verdicts["transitivity"]
    w = scheme.witnesses["transitivity"]
    cross = w.ring.parse("x1*y3 - y1*x3")
    assert w == cross or w == -cross
    assert verify_relation(rel, "set").all_pass


def test_negation_on_the_line_is_scheme_transitive():
    A = line()
    pr = A.poly_ring(0)
    act = GroupAction(A, [RingMap.identity(A), RingMap.on_polys(A, A, [pr.parse("-x")])])
    rel = relation_from_group_action(act)
    assert [rel.doubled.render(g) for g in rel.gens] == ["x1^2 - x2^2"]
    assert verify_relation(rel, "scheme").all_pass


def test_group_action_type_checked():
    with pytest.raises(TypeError):
        relation_from_group_action("swap")


def test_explicit_generators_parse_in_the_doubled_ring():
    A = plane()
    D = PolyRing(QQ, ("x1", "y1", "x2", "y2"))
    texts = ["x1 - x2", "y1^2 - y2^2"]
    assert (RelationPresentation(A, texts).gens
            == RelationPresentation(A, [D.parse(t) for t in texts]).gens)


def test_a_relation_takes_one_of_gens_maps_or_action():
    A = line()
    pr = A.poly_ring(0)
    act = GroupAction(A, [RingMap.identity(A), RingMap.on_polys(A, A, [pr.parse("-x")])])
    for inputs in ({"gens": ["x1 - x2"], "maps": [pr.parse("x")]},
                   {"gens": ["x1 - x2"], "action": act},
                   {"maps": [pr.parse("x")], "action": act}):
        with pytest.raises(ValueError, match="one of gens, maps or action"):
            RelationPresentation(A, **inputs)


def test_composed_generators_include_the_ambient_copies():
    """On the cusp QQ[x, y]/(x^2 - y^3), I(x,y) + I(y,z) of the relation
    of x holds x^2 - y^3 on every copy it touches."""
    pr = PolyRing(QQ, ("x", "y"))
    rel = relation_from_map(AmbientRing.quotient(pr, [pr.parse("x^2 - y^3")]), [pr.parse("x")])
    T = PolyRing(QQ, ("x1", "y1", "x2", "y2", "x3", "y3"))
    I12 = ["x1 - x2", "x1^2 - y1^3", "x2^2 - y2^3"]
    I23 = ["x2 - x3", "x2^2 - y2^3", "x3^2 - y3^3"]
    assert rel.tripled == T
    assert rel.composed_gens() == [T.parse(g) for g in I12 + I23]


def test_report_render_shows_failures():
    A = plane()
    rel = relation_from_map(A, [A.poly_ring(0).parse("x")])
    text = verify_relation(rel, "scheme").render()
    lines = text.splitlines()
    assert lines[0] == "equivalence-relation check (mode=scheme)"
    assert [ln.split(":")[0].strip() for ln in lines[1:]] == [
        "reflexivity",
        "symmetry",
        "transitivity",
        "finiteness",
    ]
    assert "FAIL" in lines[4] and "witness: y2" in lines[4]



def _recorded_bases(monkeypatch):
    """The order, variable names and any degree argument of every basis
    ``eqrel`` computes from here on."""
    from quotrel import eqrel

    calls, original = [], eqrel.groebner_basis

    def recorded(gens, *rest):
        calls.append((gens[0].ring.order, gens[0].ring.names, *rest))
        return original(gens, *rest)

    monkeypatch.setattr(eqrel, "groebner_basis", recorded)
    return calls


def test_homogeneous_finiteness_reads_the_fibre_over_the_origin(monkeypatch):
    """(x1*y1 - x2*y2) is homogeneous, so its finiteness is read off the
    grevlex basis of its fibre over x1 = y1 = 0, (x2*y2) in x2, y2: neither
    variable has a pure power as a leading monomial, as in the block
    order."""
    A = plane()
    rel = relation_from_map(A, [A.poly_ring(0).parse("x*y")])
    calls = _recorded_bases(monkeypatch)
    assert [w.ring.render(w) for w in rel.unbounded()] == ["x2", "y2"]
    assert calls == [(GREVLEX, ("x2", "y2"))]


def test_inhomogeneous_relations_read_finiteness_in_the_block_order(monkeypatch):
    """The fibre decides finiteness only for homogeneous ideals: the line
    x = 0 of the plane glued to itself by y -> y + 1, and the relation of
    x on the cusp QQ[x, y]/(x^2 - y^3), take the block-order basis."""
    D = PolyRing(QQ, ("x1", "y1", "x2", "y2"))
    glue = RelationPresentation(plane(), [D.parse(g) for g in ("x1", "x2", "y2 - y1 - 1")])
    pr = PolyRing(QQ, ("x", "y"))
    cusp = relation_from_map(AmbientRing.quotient(pr, [pr.parse("x^2 - y^3")]),
                             [pr.parse("x")])
    calls = _recorded_bases(monkeypatch)
    assert glue.unbounded() == cusp.unbounded() == []
    assert calls == [(BlockOrder(2), ("x2", "y2", "x1", "y1"))] * 2


def test_homogeneous_transitivity_reads_a_truncated_basis(monkeypatch):
    """The fat diagonal's I12 + I23 is tested in degree 2, the degree of
    its generator, by a basis truncated there; reflexivity, symmetry and
    the fibre take full bases."""
    rel = RelationPresentation(line(), [PolyRing(QQ, ("x1", "x2")).parse("(x1 - x2)^2")])
    calls = _recorded_bases(monkeypatch)
    assert not verify_relation(rel).verdicts["transitivity"]
    assert calls == [(GREVLEX, ("x1", "x2"), None), (GREVLEX, ("x1", "x2"), None),
                     (GREVLEX, ("x1", "x2", "x3"), 2), (GREVLEX, ("x2",))]
