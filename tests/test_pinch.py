"""Gluing a closed locus along a finite map, with truncated verification."""

import pytest

from quotrel import pinch
from quotrel.fields import QQ
from quotrel.groebner import MembershipSieve
from quotrel.linalg import RowSpace, nullspace
from quotrel.pinch import (
    PinchInput,
    PinchResult,
    _product_span,
    pinch_generators,
    subalgebra_intersection_trunc,
    verify_pushout,
    verify_pushout_diagram,
)
from quotrel.poly import PolyRing
from quotrel.ring import AmbientRing


@pytest.fixture
def node_input():
    """Glue the two points t = 0, 1 of a line to a single point."""
    R = AmbientRing.free(QQ, ("t",))
    t = R.embed(0, R.poly_ring(0).var(0))
    return PinchInput(R, [t * t - t], [], [t])


def test_validate_finds_missing_module_generator():
    R = AmbientRing.free(QQ, ("t",))
    t = R.embed(0, R.poly_ring(0).var(0))
    thin = PinchInput(R, [t * t - t], [], [])
    ok, witness = thin.validate(4)
    assert not ok and witness.render() == "t"
    with pytest.raises(ValueError, match="first missing element: t"):
        pinch_generators(thin, 4)


def test_node_generators(node_input):
    assert node_input.validate(4) == (True, None)
    out = pinch_generators(node_input, 4)
    assert [g.render() for g in out.generators] == ["t^2 - t", "t^3 - t^2"]
    assert out.pres_ring.names == ("w1", "w2")
    assert [out.pres_ring.render(g) for g in out.pres_ideal] == [
        "w1^3 + w1*w2 - w2^2"
    ]
    assert len(out.certificates) == len(out.generators)


def test_node_is_a_pushout(node_input):
    out = pinch_generators(node_input, 4)
    rep = verify_pushout(node_input, out, 4)
    assert rep.passed and rep.witness() is None
    assert rep.render().splitlines() == [
        "push-out checks through degree 4:",
        "  ideal multiples land in the glued algebra: PASS",
        "  residues generate the target subalgebra: PASS",
        "  kernel of the gluing equals the ideal in each degree: PASS",
        "verdict: push-out",
    ]


def test_dropping_a_generator_breaks_the_pushout(node_input):
    out = pinch_generators(node_input, 4)
    bad = PinchResult(
        out.generators[:1], out.certificates[:1], out.pres_ring,
        out.pres_ideal, 4,
    )
    rep = verify_pushout(node_input, bad, 4)
    assert not rep.passed
    assert rep.witness().render() == "t^3 - t^2"
    assert "verdict: NOT a push-out" in rep.render()


def test_cusp_the_axis_inside_the_plane():
    # glue the line u = 0 along t  ->  (t^2, t^3)
    P = AmbientRing.free(QQ, ("u", "v"))
    pr = P.poly_ring(0)
    u, v = P.embed(0, pr.parse("u")), P.embed(0, pr.parse("v"))
    inp = PinchInput(P, [u], [v ** 2, v ** 3], [v])
    assert inp.validate(5) == (True, None)
    out = pinch_generators(inp, 5)
    assert [g.render() for g in out.generators] == ["v^2", "v^3", "u", "u*v"]
    assert [out.pres_ring.render(g) for g in out.pres_ideal] == [
        "w2*w3 - w1*w4",
        "w1*w3^2 - w4^2",
        "w1^2*w3 - w2*w4",
        "w1^3 - w2^2",
    ]
    assert verify_pushout(inp, out, 5).passed


def test_cusp_without_v_squared_fails_the_kernel_check(monkeypatch):
    """Dropping v^2 from the cusp's generators loses u*v^2 from the glued
    algebra, and check (c) names it: an ideal multiple outside the kernel of
    the gluing.  Only the level of that witness solves its kernel."""
    P = AmbientRing.free(QQ, ("u", "v"))
    pr = P.poly_ring(0)
    u, v = P.embed(0, pr.parse("u")), P.embed(0, pr.parse("v"))
    inp = PinchInput(P, [u], [v ** 2, v ** 3], [v])
    out = pinch_generators(inp, 5)
    bad = PinchResult(out.generators[1:], out.certificates[1:], out.pres_ring,
                      out.pres_ideal, 5)
    solves = []

    def recorded(rows, columns, field):
        solves.append(len(columns))
        return nullspace(rows, columns, field)

    monkeypatch.setattr(pinch, "nullspace", recorded)
    assert verify_pushout(inp, bad, 5).render().splitlines() == [
        "push-out checks through degree 5:",
        "  ideal multiples land in the glued algebra: FAIL  (witness: u*v^2)",
        "  residues generate the target subalgebra: FAIL  (witness: v^2)",
        "  kernel of the gluing equals the ideal in each degree: FAIL"
        "  (witness: u*v^2)",
        "verdict: NOT a push-out",
    ]
    # one solve, at degree 3, the witness's: over the product rows of pivot
    # degree at most 3
    space, _ = _product_span(inp.flat, [inp.flat.element([inp.model.to_poly(g)])
                                        for g in bad.generators], 5)
    assert solves == [sum(1 for piv in space.pivots if sum(piv) <= 3)]


def test_passing_cusp_pushout_solves_no_kernel(monkeypatch):
    """Check (c) compares each level's kernel with the ideal span by rank:
    the cusp pinch at degree 40 passes without one ``nullspace`` solve."""
    P = AmbientRing.free(QQ, ("u", "v"))
    pr = P.poly_ring(0)
    u, v = P.embed(0, pr.parse("u")), P.embed(0, pr.parse("v"))
    inp = PinchInput(P, [u], [v ** 2, v ** 3], [v])
    out = pinch_generators(inp, 40)
    solves = []

    def recorded(*args):
        solves.append(args)
        return nullspace(*args)

    monkeypatch.setattr(pinch, "nullspace", recorded)
    assert verify_pushout(inp, out, 40).passed
    assert solves == []


def test_passing_cusp_pushout_sieves_no_multiple_inside_the_span(monkeypatch):
    """Check (a) asks the sieve only about ideal multiples outside check
    (c)'s product span: on the cusp pinch at degree 40 the generators'
    sieve answers no query for a multiple inside it."""
    P = AmbientRing.free(QQ, ("u", "v"))
    pr = P.poly_ring(0)
    u, v = P.embed(0, pr.parse("u")), P.embed(0, pr.parse("v"))
    inp = PinchInput(P, [u], [v ** 2, v ** 3], [v])
    out = pinch_generators(inp, 40)
    gen_sieve = inp.sieve(out.generators)
    queried, contains = [], MembershipSieve.contains

    def recorded(self, f):
        if self is gen_sieve:
            queried.append(f)
        return contains(self, f)

    monkeypatch.setattr(MembershipSieve, "contains", recorded)
    assert verify_pushout(inp, out, 40).passed
    space, _ = _product_span(inp.flat, [inp.flat.element([g]) for g in gen_sieve.gens], 40)
    assert not [p for p in queried if space.contains(p.terms)]


def test_cusp_pushout_check_inserts_each_ideal_multiple_once(monkeypatch):
    """Check (c) grows one ideal span degree by degree: on the cusp at
    degree 14 ``verify_pushout`` makes at most 600 ``RowSpace.insert``
    calls (586 counted, the residue rows' rank space included; 1588 when
    every degree rebuilt its row spaces)."""
    P = AmbientRing.free(QQ, ("u", "v"))
    pr = P.poly_ring(0)
    u, v = P.embed(0, pr.parse("u")), P.embed(0, pr.parse("v"))
    inp = PinchInput(P, [u], [v ** 2, v ** 3], [v])
    out = pinch_generators(inp, 14)
    calls = []
    insert = RowSpace.insert

    def counted(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(RowSpace, "insert", counted)
    assert verify_pushout(inp, out, 14).passed
    assert len(calls) <= 600


def test_gluing_two_origins_across_components():
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    pu, pv = X.poly_ring(0), X.poly_ring(1)
    a = X.element([pu.var(0), pv.zero])
    b = X.element([pu.zero, pv.var(0)])
    inp = PinchInput(X, [a, b], [], [X.element([pu.one, pv.zero])])
    assert inp.validate(3) == (True, None)
    out = pinch_generators(inp, 3)
    assert [g.render() for g in out.generators] == ["(u, 0)", "(0, v)"]
    assert [out.pres_ring.render(g) for g in out.pres_ideal] == ["w1*w2"]
    assert verify_pushout(inp, out, 3).passed


# -- subalgebra intersections -------------------------------------------------


def test_intersection_of_power_subalgebras():
    pr = PolyRing(QQ, ("x",))
    tr = subalgebra_intersection_trunc([pr.parse("x^2")], [pr.parse("x^3")], 12)
    assert [f.render() for f in tr.basis()] == ["1", "x^6", "x^12"]
    assert tr.dims()[-1] == 3
    assert tr.defining_membership(tr.ring.embed(0, pr.parse("x^6")))
    assert not tr.defining_membership(tr.ring.embed(0, pr.parse("x^2")))


def test_intersection_is_symmetric():
    pr = PolyRing(QQ, ("x", "y"))
    g1 = [pr.parse("x + y"), pr.parse("x*y")]
    g2 = [pr.parse("x"), pr.parse("y^2")]
    a = subalgebra_intersection_trunc(g1, g2, 4)
    b = subalgebra_intersection_trunc(g2, g1, 4)
    assert [f.render() for f in a.basis()] == [f.render() for f in b.basis()]


def test_intersection_validation():
    pr = PolyRing(QQ, ("x",))
    other = PolyRing(QQ, ("y",))
    with pytest.raises(ValueError):
        subalgebra_intersection_trunc([], [pr.parse("x")], 3)
    with pytest.raises(ValueError):
        subalgebra_intersection_trunc([pr.parse("x")], [other.parse("y")], 3)


# -- claimed push-out squares --------------------------------------------------


def test_diagram_true_square():
    pr = PolyRing(QQ, ("x",))
    rep = verify_pushout_diagram(
        [pr.parse("x^2")], [pr.parse("x^3")], [pr.parse("x^6")], 12
    )
    assert rep.passed


def test_diagram_builds_one_sieve_per_side(monkeypatch):
    """The corner check and the intersection share the two side sieves."""
    builds = []
    init = MembershipSieve.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MembershipSieve, "__init__", counted)
    pr = PolyRing(QQ, ("x", "y"))
    rep = verify_pushout_diagram(
        [pr.parse("x^2"), pr.parse("y")], [pr.parse("x"), pr.parse("y^2")],
        [pr.parse("x^2"), pr.parse("y^2")], 6,
    )
    assert rep.passed
    assert len(builds) == 2


def test_diagram_corner_too_small():
    pr = PolyRing(QQ, ("x",))
    rep = verify_pushout_diagram(
        [pr.parse("x^2")], [pr.parse("x^3")], [pr.parse("x^12")], 12
    )
    assert not rep.passed
    assert rep.witness().render() == "x^6"
    assert rep.render().splitlines()[2] == (
        "  intersection spanned by the corner through the degree bound:"
        " FAIL  (witness: x^6)"
    )


def test_diagram_corner_outside_a_side():
    pr = PolyRing(QQ, ("x",))
    rep = verify_pushout_diagram(
        [pr.parse("x^2")], [pr.parse("x^3")], [pr.parse("x^2")], 6
    )
    assert not rep.passed
    assert rep.witness().render() == "x^2"
    assert not rep.checks[0][1]
