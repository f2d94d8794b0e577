"""q-power factorization exponents."""

import pytest

from quotrel.fields import GF, QQ
from quotrel.frobenius import frobenius_exponent, frobenius_power
from quotrel.poly import PolyRing
from quotrel.ring import AmbientRing, subalgebra_member_ring


def line(p):
    pr = PolyRing(GF(p), ("t",))
    A = AmbientRing.quotient(pr, [])
    return A, A.embed(0, pr.var(0))


def eval_cert(cert, gens, ring):
    """Substitute the subalgebra generators into a certificate."""
    total = ring.zero
    for m, coeff in cert.terms.items():
        term = ring.one.scale(coeff)
        for g, e in zip(gens, m):
            term = term * g ** e
        total = total + term
    return total


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cusp_needs_one_twist(p):
    A, t = line(p)
    w = frobenius_exponent([t ** 2, t ** 3], [t])
    assert (w.p, w.r, w.q) == (p, 1, p)
    # certificate evaluates back to the power it certifies
    b, cert = w.certificates[0]
    assert eval_cert(cert, [t ** 2, t ** 3], A) == b ** w.q


def test_witness_render():
    _, t = line(5)
    w = frobenius_exponent([t ** 2, t ** 3], [t])
    assert w.render().splitlines() == [
        "q = 5^1 = 5",
        "  t^5 = w1*w2 in the generators",
    ]


def test_containment_gives_exponent_zero():
    A, t = line(3)
    w = frobenius_exponent([t], [t ** 2])
    assert (w.r, w.q) == (0, 1)
    assert [(g.render(), c.ring.render(c)) for g, c in w.certificates] == [
        ("t^2", "w1^2")
    ]


def test_even_powers_in_characteristic_two_only():
    A2, t2 = line(2)
    w = frobenius_exponent([t2 ** 2], [t2])
    assert w.r == 1
    A3, t3 = line(3)
    assert frobenius_exponent([t3 ** 2], [t3], r_max=3) is None


def test_exponent_is_stable_under_a_larger_search_bound():
    _, t = line(2)
    small = frobenius_exponent([t ** 2, t ** 3], [t], r_max=1)
    large = frobenius_exponent([t ** 2, t ** 3], [t], r_max=8)
    assert small.r == large.r == 1


def test_nilpotents_collapse_on_the_fat_point():
    pr = PolyRing(GF(2), ("y",))
    F = AmbientRing.quotient(pr, [pr.parse("y^2")])
    y = F.embed(0, pr.var(0))
    w = frobenius_exponent([], [y], r_max=4)
    assert w.r == 1
    assert [c.ring.render(c) for _, c in w.certificates] == ["0"]


def test_exponent_validation():
    A, t = line(2)
    with pytest.raises(ValueError):
        frobenius_exponent([t], [])
    B, s = line(3)
    with pytest.raises(ValueError):
        frobenius_exponent([t], [s])
    pr = PolyRing(QQ, ("t",))
    C = AmbientRing.quotient(pr, [])
    with pytest.raises(ValueError, match="positive characteristic"):
        frobenius_exponent([C.embed(0, pr.var(0))], [C.embed(0, pr.var(0))])


def frobenius_cases():
    """name -> (sub_gens, alg_gens, r_max, expected r or None)."""
    # two lines over FF(3): the diagonal parameter T, products included
    lines = AmbientRing([(PolyRing(GF(3), ("t",)), []) for _ in range(2)])
    T = sum((lines.embed(c, lines.poly_ring(c).var(0)) for c in range(2)),
            lines.zero)
    # the dual numbers over a line in characteristic 3
    pr = PolyRing(GF(3), ("x", "eps"))
    dual = AmbientRing.quotient(pr, [pr.parse("eps^2")])
    x, eps = (dual.embed(0, pr.parse(v)) for v in ("x", "eps"))
    # the bench's not-found case: FF(5)[u, v] / (u^2 v - v^3)
    qr = PolyRing(GF(5), ("u", "v"))
    nodal = AmbientRing.quotient(qr, [qr.parse("u^2*v - v^3")])
    u, v = (nodal.embed(0, qr.parse(n)) for n in ("u", "v"))
    # a fat point in characteristic 2, no subalgebra generators at all
    fr = PolyRing(GF(2), ("y",))
    fat = AmbientRing.quotient(fr, [fr.parse("y^2")])
    y = fat.embed(0, fr.var(0))
    return {
        "product": ([T ** 2, T ** 3], [T, T ** 2 + T], 8, 1),
        "quotient": ([x ** 2, x ** 3], [x, eps], 8, 1),
        "not-found": ([u ** 2, u * v, v ** 2], [u], 2, None),
        "empty-sub": ([], [y], 4, 1),
    }


@pytest.mark.parametrize("case", ["product", "quotient", "not-found", "empty-sub"])
def test_one_sieve_per_frobenius_call(monkeypatch, case):
    """Every generator and every r is queried against one sieve, and the
    certificates are those of one-shot membership tests."""
    from quotrel.groebner import MembershipSieve

    sub, alg, r_max, expected = frobenius_cases()[case]
    builds = [0]
    init = MembershipSieve.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MembershipSieve, "__init__", counted)
    w = frobenius_exponent(sub, alg, r_max=r_max)
    assert builds[0] == 1
    if expected is None:
        assert w is None
        return
    assert w.r == expected
    assert [b for b, _ in w.certificates] == alg
    for b, cert in w.certificates:
        assert subalgebra_member_ring(b ** w.q, sub) == (True, cert)


def power_cases(p):
    """name -> an element with several terms and coefficients over FF(p)."""
    free = AmbientRing.free(GF(p), ("x", "y"))
    fr = free.poly_ring(0)
    qr = PolyRing(GF(p), ("x", "eps"))
    quotient = AmbientRing.quotient(qr, [qr.parse("eps^2"), qr.parse("x^3 - x*eps")])
    ur = PolyRing(GF(p), ("u", "v"))
    product = AmbientRing([(PolyRing(GF(p), ("t",)), []), (ur, [ur.parse("u*v - 1")])])
    return {
        "free": free.embed(0, fr.parse("2*x^2*y - x + 3*y^2 + 1")),
        "quotient": quotient.element([qr.parse("x^2 + 2*x*eps - eps + 1")]),
        "product": product.element([product.poly_ring(0).parse("t^2 + 2*t"),
                                    product.poly_ring(1).parse("u^2 + 3*v - 1")]),
    }


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("case", ["free", "quotient", "product"])
def test_frobenius_power_is_the_power(p, case):
    """Multiplying exponents by q = p^r is the q-th power over FF(p), also
    once the ring has normal-formed the parts."""
    b = power_cases(p)[case]
    for r in range(3):
        q = p ** r
        assert b.ring.element([frobenius_power(f, q) for f in b.parts]) == b ** q
        for f in b.parts:
            assert frobenius_power(f, q) == f ** q
