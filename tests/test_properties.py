"""Structural laws checked with hypothesis-generated inputs.

The counted randomized batteries (oracle agreement, axiom checks on
generated relations, kernel closure, coboundary defects) live in
``property_suites``; here we pin down the algebraic laws the rest of the
package silently relies on: ring axioms, order axioms, the packed monomial
encoding, normal-form idempotence and parser round-trips.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quotrel.fields import GF, QQ
from quotrel.groebner import groebner_basis, normal_form
from quotrel.poly import (
    GREVLEX,
    LEX,
    BlockOrder,
    PackingOverflow,
    PolyRing,
    monomial_divides,
    monomial_mul,
)

import oracles

RQ = PolyRing(QQ, ("x", "y"))
R5 = PolyRing(GF(5), ("x", "y"), LEX)


def polys(ring, max_degree=4, max_terms=4):
    expo = st.tuples(
        *(st.integers(min_value=0, max_value=max_degree),) * ring.nvars
    )
    term = st.tuples(expo, st.integers(min_value=-6, max_value=6))

    def build(terms):
        p = ring.zero
        for e, c in terms:
            p = p + ring.monomial(e, ring.field.of_int(c))
        return p

    return st.lists(term, max_size=max_terms).map(build)


monomials = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)


# ---------------------------------------------------------------------------
# ring axioms


@given(polys(RQ), polys(RQ), polys(RQ))
def test_rational_polynomials_form_a_commutative_ring(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * RQ.one == a


@given(polys(R5), polys(R5), polys(R5))
def test_mod_p_polynomials_form_a_commutative_ring(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(polys(RQ))
def test_powers_agree_with_repeated_products(a):
    assert a ** 3 == a * a * a
    assert a ** 0 == RQ.one


@given(polys(RQ), polys(RQ))
def test_degree_of_product_adds(a, b):
    # over a field there are no zero divisors, so degrees are additive
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


# ---------------------------------------------------------------------------
# field arithmetic


@given(st.integers(min_value=1, max_value=4))
def test_gf5_inverses(n):
    f = GF(5)
    assert f.mul(f.of_int(n), f.inv(f.of_int(n))) == f.one


@given(st.integers(min_value=-30, max_value=30))
def test_fermat_little_theorem(n):
    for p in (2, 3, 5, 7):
        f = GF(p)
        a = f.of_int(n)
        assert f.pow(a, p) == a


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
def test_rational_field_matches_fraction_arithmetic(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    if b != 0:
        assert QQ.mul(b, QQ.inv(b)) == Fraction(1)


# ---------------------------------------------------------------------------
# monomial orders


@given(monomials, monomials, monomials)
def test_orders_respect_multiplication(a, b, c):
    for order in (LEX, GREVLEX, BlockOrder(1)):
        ka, kb = order.key(a), order.key(b)
        shifted = tuple(x + y for x, y in zip(a, c)), tuple(
            x + y for x, y in zip(b, c)
        )
        if ka < kb:
            assert order.key(shifted[0]) < order.key(shifted[1])
        elif ka == kb:
            assert a == b


@given(monomials)
def test_the_unit_monomial_is_minimal(m):
    for order in (LEX, GREVLEX, BlockOrder(2)):
        assert order.key((0, 0, 0)) <= order.key(m)


@given(monomials, monomials)
def test_grevlex_refines_total_degree(a, b):
    if sum(a) < sum(b):
        assert GREVLEX.key(a) < GREVLEX.key(b)


@given(monomials, monomials)
def test_block_order_front_variables_dominate(a, b):
    order = BlockOrder(1)
    if a[0] > 0 and b[0] == 0:
        assert order.key(a) > order.key(b)


# ---------------------------------------------------------------------------
# packed monomials: the weight-matrix encoding of each order

ENCODED_ORDERS = (LEX, GREVLEX, BlockOrder(1), BlockOrder(2))

# exponents up to 5000 keep every field of three variables below 2^15
wide_monomials = st.tuples(*(st.integers(min_value=0, max_value=5000),) * 3)
packable = st.one_of(monomials, wide_monomials)


def packings(a, b):
    """Each order's encoding of three variables at 16-bit fields, with the
    packed ints of ``a`` and ``b``."""
    for order in ENCODED_ORDERS:
        pk = PolyRing(QQ, ("x", "y", "z"), order).packing(16)
        yield order, pk, pk.pack(a), pk.pack(b)


def _cmp(u, v):
    return (u > v) - (u < v)


@given(packable, packable)
def test_packed_monomials_compare_as_the_order_key(a, b):
    for order, pk, pa, pb in packings(a, b):
        expected = _cmp(order.key(a), order.key(b))
        assert _cmp(pa, pb) == expected
        assert _cmp(pa >> pk.shift, pb >> pk.shift) == expected  # order words


@given(packable, packable)
def test_packed_words_add_under_multiplication(a, b):
    for _, pk, pa, pb in packings(a, b):
        product = pk.pack(monomial_mul(a, b))
        assert pa + pb == product and not product & pk.guard
        low = (1 << pk.shift) - 1
        assert (pa & low) + (pb & low) == product & low  # exponent words
        assert (pa >> pk.shift) + (pb >> pk.shift) == product >> pk.shift


@given(packable, packable)
def test_pack_then_unpack_returns_the_monomial(a, b):
    for _, pk, pa, pb in packings(a, b):
        assert pk.unpack(pa) == a and pk.unpack(pb) == b


@given(packable, packable)
def test_guard_word_test_is_divisibility(a, b):
    for _, pk, pa, pb in packings(a, b):
        assert (not (pb - pa) & pk.eguard) == monomial_divides(a, b)
        if monomial_divides(a, b):
            assert pk.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))


def test_packing_refuses_a_monomial_that_overflows_its_fields():
    for order in (LEX, GREVLEX):
        pk = PolyRing(QQ, ("x", "y"), order).packing(16)
        assert pk.unpack(pk.pack((2**15 - 1, 0))) == (2**15 - 1, 0)
        with pytest.raises(PackingOverflow):
            pk.pack((2**15, 0))
    with pytest.raises(PackingOverflow):
        # each exponent fits, the degree row of grevlex does not
        PolyRing(QQ, ("x", "y"), GREVLEX).packing(16).pack((2**14, 2**14))


@pytest.mark.parametrize("exponent", [2**31, 2**40])
def test_huge_input_exponents_divide_like_the_oracle(exponent):
    R = PolyRing(GF(32003), ("x", "y", "z"))
    f = R.monomial((exponent, 3, 1), 5) + R.monomial((exponent + 1, 1, 0), 3)
    f = f + R.parse("x*y^2 - z")
    basis = [R.parse("y^2 - x*z"), R.monomial((exponent, 0, 1)) - R.parse("y")]
    for dividend in (f, f * R.monomial((exponent, 0, 0))):
        expected = oracles.naive_normal_form(dividend, basis)
        assert max(expected.terms)[0] > exponent
        assert list(normal_form(dividend, basis).terms.items()) == list(expected.terms.items())
    assert all(g._packed[0] == 64 for g in basis)


def test_lex_products_outgrowing_the_fields_divide_like_the_oracle():
    R = PolyRing(GF(32003), ("x", "y"), LEX)
    f = R.parse("x^3 + 2*x*y")
    g = R.parse("x") - R.monomial((0, 20000))
    # x^3 -> x^2*y^20000 -> x*y^40000: 40000 does not fit 16-bit fields
    expected = oracles.naive_normal_form(f, [g])
    assert expected.leading_monomial() == (0, 60000)
    assert list(normal_form(f, [g]).terms.items()) == list(expected.terms.items())
    assert g._packed[0] == 32


def test_a_tail_cover_outgrowing_the_fields_is_checked_term_by_term():
    R = PolyRing(GF(32003), ("x", "y"), LEX)
    g = R.parse("x") - R.monomial((0, 16384)) - R.monomial((0, 16383))
    f = R.parse("x*y + 1")
    # the bitwise or of the tail's y exponents is 2^15 - 1, and y times it
    # outgrows 16-bit fields; y times each tail term does not
    expected = oracles.naive_normal_form(f, [g])
    assert list(normal_form(f, [g]).terms.items()) == list(expected.terms.items())
    assert g._packed[0] == 16


# ---------------------------------------------------------------------------
# normal forms against a fixed basis

GB = groebner_basis([RQ.parse("x^2 - y"), RQ.parse("y^2 - 1")])


@settings(deadline=None)
@given(polys(RQ))
def test_normal_form_is_idempotent_and_a_projection(p):
    nf = normal_form(p, GB)
    assert normal_form(nf, GB) == nf
    assert normal_form(p - nf, GB).is_zero()


@settings(deadline=None)
@given(polys(RQ), polys(RQ))
def test_normal_form_is_linear(a, b):
    assert normal_form(a + b, GB) == normal_form(a, GB) + normal_form(b, GB)


# ---------------------------------------------------------------------------
# parser round-trips


@given(polys(RQ))
def test_rendered_polynomials_parse_back(p):
    assert RQ.parse(RQ.render(p)) == p


@given(polys(R5))
def test_rendered_mod_p_polynomials_parse_back(p):
    assert R5.parse(R5.render(p)) == p
