"""Ambient rings: quotients, products, elements, maps, flattening."""

import pytest

from quotrel.fields import QQ
from quotrel.groebner import groebner_basis, normal_form
from quotrel.poly import PolyRing
from quotrel.ring import (
    AmbientRing,
    RingElement,
    RingMap,
    subalgebra_member_ring,
)


@pytest.fixture
def dual():
    """k[x, eps] / (eps^2), the dual numbers over a line."""
    pr = PolyRing(QQ, ("x", "eps"))
    return AmbientRing.quotient(pr, [pr.parse("eps^2")])


@pytest.fixture
def lines3():
    """Product of three affine lines."""
    return AmbientRing(
        [(PolyRing(QQ, ("t",)), []) for _ in range(3)]
    )


def test_quotient_normalizes_elements(dual):
    pr = dual.poly_ring(0)
    el = dual.embed(0, pr.parse("eps^2 + x"))
    assert el.parts[0] == pr.parse("x")
    assert (dual.embed(0, pr.parse("eps")) ** 2).is_zero()


def test_element_arithmetic(lines3):
    t = lines3.poly_ring(0).var(0)
    a = lines3.element([t, t * t, lines3.poly_ring(2).one])
    b = lines3.one
    s = a + b
    assert s.parts[0].ring.render(s.parts[0]) == "t + 1"
    prod = a * a
    assert prod.parts[1] == t ** 4
    assert (a - a).is_zero()
    assert a.scale(QQ.of_int(2)).parts[0] == t + t


def test_element_degree_is_max_over_components(lines3):
    t = lines3.poly_ring(0).var(0)
    el = lines3.element([t, t ** 3, lines3.poly_ring(2).zero])
    assert el.degree() == 3
    assert lines3.zero.degree() == -1


def test_element_render(lines3, dual):
    t = lines3.poly_ring(0).var(0)
    el = lines3.element([t, lines3.poly_ring(1).zero, lines3.poly_ring(2).one])
    assert el.render() == "(t, 0, 1)"
    # one-component elements render bare
    pr = dual.poly_ring(0)
    assert dual.embed(0, pr.parse("x^2 - x")).render() == "x^2 - x"


def test_element_pow_uses_quotient(dual):
    pr = dual.poly_ring(0)
    el = dual.embed(0, pr.parse("x + eps"))
    # (x + eps)^4 = x^4 + 4 x^3 eps mod eps^2
    assert (el ** 4).render() == "x^4 + 4*x^3*eps"
    assert el ** 0 == dual.one
    with pytest.raises(ValueError):
        el ** -2


def test_int_coercion(dual):
    pr = dual.poly_ring(0)
    el = dual.embed(0, pr.parse("x"))
    assert (el + 1).render() == "x + 1"
    assert (1 - el).render() == "-x + 1"
    assert (2 * el).render() == "2*x"


def test_mixed_ring_arithmetic_rejected(dual, lines3):
    with pytest.raises(ValueError):
        dual.one + lines3.one


def test_standard_monomials(dual):
    # eps^2 = 0 kills all higher eps powers
    mons = dual.standard_monomials(0, 2)
    assert set(mons) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)}


def test_ring_render(dual, lines3):
    assert dual.render() == "QQ[x,eps]/(eps^2)"
    assert lines3.render() == "QQ[t] * QQ[t] * QQ[t]"


# -- maps ----------------------------------------------------------------


def test_identity_and_apply(dual):
    ident = RingMap.identity(dual)
    pr = dual.poly_ring(0)
    el = dual.embed(0, pr.parse("x*eps + 3"))
    assert ident.apply(el) == el


def test_map_well_definedness(dual):
    pr = dual.poly_ring(0)
    # eps -> x is not well defined: eps^2 -> x^2 != 0 in the quotient
    bad = RingMap.on_polys(dual, dual, [pr.parse("x"), pr.parse("x")])
    assert not bad.is_well_defined()
    good = RingMap.on_polys(dual, dual, [pr.parse("x + eps"), pr.parse("eps")])
    assert good.is_well_defined()


def test_map_compose(dual):
    pr = dual.poly_ring(0)
    shift = RingMap.on_polys(dual, dual, [pr.parse("x + eps"), pr.parse("eps")])
    neg = RingMap.on_polys(dual, dual, [pr.parse("-x"), pr.parse("eps")])
    both = neg.compose(shift)  # shift first, then neg: x -> -x + eps
    el = dual.embed(0, pr.parse("x"))
    assert both.apply(el).render() == "-x + eps"
    other = shift.compose(neg)  # x -> -(x + eps)
    assert other.apply(el).render() == "-x - eps"


def test_map_equality_modulo_quotient(dual):
    pr = dual.poly_ring(0)
    a = RingMap.on_polys(dual, dual, [pr.parse("x"), pr.parse("eps")])
    b = RingMap.on_polys(dual, dual, [pr.parse("x + eps^2"), pr.parse("eps")])
    assert a == b  # images differ by the defining ideal


def test_map_between_product_components(lines3):
    point = AmbientRing.free(QQ, ("s",))
    s = point.poly_ring(0).var(0)
    # pick out the middle line
    proj = RingMap(lines3, point, [(1, [s])])
    t = lines3.poly_ring(1).var(0)
    el = lines3.element([lines3.poly_ring(0).one, t * t, lines3.poly_ring(2).zero])
    assert proj.apply(el).render() == "s^2"


def test_map_validation_errors(lines3, dual):
    point = AmbientRing.free(QQ, ("s",))
    s = point.poly_ring(0).var(0)
    with pytest.raises(ValueError):
        RingMap(lines3, point, [(7, [s])])
    with pytest.raises(ValueError):
        RingMap(lines3, point, [(0, [s, s])])  # too many images
    with pytest.raises(ValueError):
        RingMap.on_polys(lines3, point, [s])  # product source
    with pytest.raises(ValueError):
        RingMap.on_polys(dual, dual, [dual.poly_ring(0).parse("x")])


def test_evaluate_map(dual):
    pr = dual.poly_ring(0)
    shift = RingMap.on_polys(dual, dual, [pr.parse("x + eps"), pr.parse("eps")])
    out = shift.apply(dual.element([pr.parse("x^2")]))
    assert out.render() == "x^2 + 2*x*eps"


# -- flattened product presentation ---------------------------------------


def test_flat_model_single_component_is_passthrough(dual):
    model = dual.model()
    assert model.poly_ring is dual.poly_ring(0)
    el = dual.embed(0, dual.poly_ring(0).parse("x*eps"))
    assert model.to_poly(el) == el.parts[0]


def test_flat_model_is_a_homomorphism(lines3):
    model = lines3.model()
    assert model.poly_ring.names[:3] == ("e1", "e2", "e3")
    gb = groebner_basis(list(model.relations))
    e0 = model.poly_ring.var(0)
    assert normal_form(e0 * e0 - e0, gb).is_zero()
    t = lines3.poly_ring(0).var(0)
    a = lines3.element([t * t, t, lines3.poly_ring(2).one + t])
    b = lines3.element([t + 1, t ** 3, lines3.poly_ring(2).one])
    lhs = model.to_poly(a + b) - (model.to_poly(a) + model.to_poly(b))
    assert normal_form(lhs, gb).is_zero()
    lhs = model.to_poly(a * b) - model.to_poly(a) * model.to_poly(b)
    assert normal_form(lhs, gb).is_zero()
    # unit sums the idempotents
    assert normal_form(model.to_poly(lines3.one) - model.poly_ring.one, gb).is_zero()


def test_flat_model_column_poly(lines3):
    model = lines3.model()
    P = model.poly_ring
    mono = lines3.poly_ring(1).monomial((2,))
    assert model.lift(1, mono) == P.var(1) * P.var(4) ** 2


def test_flat_model_to_element_inverts_to_poly(lines3):
    model = lines3.model()
    gb = groebner_basis(list(model.relations))
    t = lines3.poly_ring(0).var(0)
    elements = [
        lines3.element([t * t + 2, 3 * t - 1, t ** 3 + 5]),
        lines3.element([t + 1, lines3.poly_ring(1).zero, t - 7]),
        lines3.element([t.ring.from_int(c) for c in (2, 0, 5)]),
        lines3.one,
        lines3.zero,
    ]
    for a in elements:
        p = normal_form(model.to_poly(a), gb)
        assert model.to_element(p) == a
        assert model.to_element(model.to_poly(a)) == a


def test_flat_model_to_element_rejects_mixed_terms(lines3):
    model = lines3.model()
    P = model.poly_ring  # e1, e2, e3, t_1, t_2, t_3
    with pytest.raises(ValueError, match="mixes components"):
        model.to_element(P.var(3) * P.var(4) + P.one)
    with pytest.raises(ValueError, match="mixes components"):
        model.to_element(P.var(1) * P.var(3))


def test_subalgebra_member_ring_products(lines3):
    t0 = lines3.embed(0, lines3.poly_ring(0).var(0))
    t1 = lines3.embed(1, lines3.poly_ring(1).var(0))
    t2 = lines3.embed(2, lines3.poly_ring(2).var(0))
    gens = [t0 + t1 + t2]
    ok, cert = subalgebra_member_ring((t0 + t1 + t2) ** 3, gens)
    assert ok and cert.ring.render(cert) == "w1^3"
    ok, _ = subalgebra_member_ring(t0, gens)
    assert not ok


def test_subalgebra_member_ring_quotient(dual):
    pr = dual.poly_ring(0)
    eps = dual.embed(0, pr.parse("eps"))
    x = dual.embed(0, pr.parse("x"))
    # eps * x^5 is a product of members
    ok, cert = subalgebra_member_ring(eps * x ** 5, [eps, x])
    assert ok
    # eps itself not in k[x, eps^2] = k[x] (eps^2 = 0)
    ok, _ = subalgebra_member_ring(eps, [x, eps * eps])
    assert not ok
