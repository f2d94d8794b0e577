import random
import time
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quotrel import groebner
from quotrel.fields import GF, QQ, PrimeField
from quotrel.poly import Polynomial, PolyRing


def test_rational_basics():
    assert QQ.characteristic == 0
    assert QQ.of_int(3) == Fraction(3)
    assert QQ.of_fraction(2, 4) == Fraction(1, 2)
    a, b = Fraction(2, 3), Fraction(-1, 6)
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.sub(a, b) == Fraction(5, 6)
    assert QQ.mul(a, b) == Fraction(-1, 9)
    assert QQ.neg(a) == Fraction(-2, 3)
    assert QQ.inv(a) == Fraction(3, 2)
    assert QQ.div(a, b) == Fraction(-4)
    assert QQ.is_zero(Fraction(0)) and not QQ.is_zero(a)
    assert QQ.zero == 0 and QQ.one == 1


def test_rational_exactness():
    # 1/3 has no finite binary expansion; repeated arithmetic must not drift
    x = Fraction(1, 3)
    acc = QQ.zero
    for _ in range(300):
        acc = QQ.add(acc, x)
    assert acc == 100


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_ops(p):
    F = GF(p)
    assert F.characteristic == p
    assert F.p == p
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.mul(a, b) == (a * b) % p
            assert F.sub(a, b) == (a - b) % p
    for a in range(1, p):
        assert F.mul(a, F.inv(a)) == F.one


def test_prime_field_fraction_embedding():
    F = GF(5)
    # 1/2 = 3 mod 5
    assert F.of_fraction(1, 2) == 3
    assert F.of_int(-1) == 4
    with pytest.raises(ZeroDivisionError):
        F.of_fraction(1, 5)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def _trial_division_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def test_prime_test_agrees_with_trial_division():
    for n in range(200_000):
        try:
            PrimeField(n)
            built = True
        except ValueError:
            built = False
        assert built == _trial_division_prime(n), n


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_prime_test_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="must be prime"):
        PrimeField(n)


def test_large_prime_field_builds_fast():
    start = time.perf_counter()
    F = GF(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert F.mul(F.inv(3), 3) == 1


def test_prime_test_refuses_beyond_its_bound():
    with pytest.raises(ValueError, match="cannot certify"):
        PrimeField(2**89 - 1)


def test_inversion_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    # zero to a negative power goes through inv, not the builtin ValueError
    with pytest.raises(ZeroDivisionError):
        QQ.pow(Fraction(0), -1)
    for p in (2, 3, 5, 7, 11):
        with pytest.raises(ZeroDivisionError):
            GF(p).pow(0, -1)


def test_field_identity_and_render():
    assert QQ == QQ and GF(3) == GF(3) and GF(3) != GF(5)
    assert repr(QQ) == "QQ"
    assert repr(GF(7)) == "FF(7)"
    assert QQ.render(Fraction(-3, 4)) == "-3/4"
    assert GF(7).render(5) == "5"


def test_rational_pow():
    a = Fraction(2, 3)
    assert QQ.pow(a, 3) == Fraction(8, 27)
    assert QQ.pow(a, -2) == Fraction(9, 4)
    assert QQ.pow(Fraction(-1, 2), -3) == Fraction(-8)
    assert QQ.pow(a, 0) == QQ.one
    assert QQ.pow(QQ.zero, 0) == QQ.one
    assert QQ.pow(QQ.zero, 5) == QQ.zero
    assert isinstance(QQ.pow(a, -2), Fraction)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_pow(p):
    F = GF(p)
    for a in range(p):
        for e in range(2 * p + 1):
            assert F.pow(a, e) == pow(a, e, p)
            assert F.pow(a, e) in range(p)
    for a in range(1, p):
        for e in range(1, 2 * p + 1):
            assert F.pow(a, -e) == pow(F.inv(a), e, p)
            assert F.mul(F.pow(a, -e), F.pow(a, e)) == F.one
    assert F.pow(F.zero, 0) == F.one


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
def test_add_scaled_is_the_naive_sum(field):
    """``add_scaled(out, w, c)`` adds ``c * w`` into ``out`` and returns it:
    an entry that cancels is dropped, and the result is the sum read label
    by label."""
    rng = random.Random(5)
    elements = [e for e in map(field.of_int, range(1, 6)) if e] + [field.of_fraction(1, 3)]
    for _ in range(100):
        out = {k: rng.choice(elements) for k in rng.sample(range(8), rng.randint(0, 6))}
        w = {k: rng.choice(elements) for k in rng.sample(range(8), rng.randint(0, 6))}
        c = rng.choice(elements)
        expected = {}
        for k in set(out) | set(w):
            v = field.add(out.get(k, field.zero), field.mul(c, w.get(k, field.zero)))
            if not field.is_zero(v):
                expected[k] = v
        before = dict(out)
        assert field.add_scaled(out, w, c) is out
        assert out == expected, (before, w, c)
    # an entry that cancels is dropped
    x = field.of_int(3)
    assert field.add_scaled({"a": x, "b": field.one}, {"a": field.one}, field.neg(x)) == {
        "b": field.one}


# -- the QQ representation: int when integral, else a reduced Fraction ------

def canonical(q: Fraction):
    return q.numerator if q.denominator == 1 else q


def assert_qq(result, expected: Fraction):
    """``result`` equals ``expected`` and is an int exactly when integral."""
    assert result == expected
    assert type(result) is (int if expected.denominator == 1 else Fraction)


big = 2**90
values = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-big, big).map(Fraction),
    st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
)
# field inputs in canonical form, or as a Fraction even when integral: the
# operations accept both and always answer in canonical form
qq = st.tuples(values, st.booleans()).map(
    lambda t: canonical(t[0]) if t[1] else t[0])


@settings(max_examples=300)
@given(qq, qq)
def test_qq_ops_agree_with_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_qq(QQ.add(a, b), fa + fb)
    assert_qq(QQ.sub(a, b), fa - fb)
    assert_qq(QQ.mul(a, b), fa * fb)
    assert_qq(QQ.neg(a), -fa)
    if fb:
        assert_qq(QQ.inv(b), 1 / fb)
        assert_qq(QQ.div(a, b), fa / fb)


@given(qq, st.integers(-5, 5))
def test_qq_pow_agrees_with_fraction_arithmetic(a, e):
    if a == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            QQ.pow(a, e)
    else:
        assert_qq(QQ.pow(a, e), Fraction(a) ** e)


@given(st.integers(-big, big), st.integers(-big, big).filter(bool))
def test_qq_embeddings_are_canonical(n, d):
    assert_qq(QQ.of_fraction(n, d), Fraction(n, d))
    assert_qq(QQ.of_int(n), Fraction(n))
    assert_qq(QQ.zero, Fraction(0))
    assert_qq(QQ.one, Fraction(1))


def test_qq_inv_of_an_int_is_exact():
    assert_qq(QQ.inv(3), Fraction(1, 3))
    assert_qq(QQ.inv(-1), Fraction(-1))
    assert_qq(QQ.inv(Fraction(-1, 7)), Fraction(-7))
    assert_qq(QQ.inv(big + 1), Fraction(1, big + 1))


def test_qq_inv_keeps_the_units_as_ints():
    """An int unit is returned as it is; a non-canonical ``Fraction(1, 1)``
    still comes back as the int 1."""
    assert_qq(QQ.inv(1), Fraction(1))
    assert_qq(QQ.inv(-1), Fraction(-1))
    assert_qq(QQ.inv(Fraction(1, 1)), Fraction(1))
    assert_qq(QQ.inv(2), Fraction(1, 2))
    assert_qq(QQ.inv(Fraction(-1, 3)), Fraction(-3))


int_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-big, big).filter(bool), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(int_terms, int_terms, st.booleans())
def test_int_and_fraction_coefficients_are_one_polynomial(f, g, int_first):
    # a fresh ring per example, so the memo starts empty
    R = PolyRing(QQ, ("x", "y"))
    as_int = [Polynomial(R, dict(t)) for t in (f, g)]
    as_frac = [Polynomial(R, {m: Fraction(c) for m, c in t.items()})
               for t in (f, g)]
    assert as_int == as_frac
    assert list(map(hash, as_int)) == list(map(hash, as_frac))
    product = as_frac[0] * as_frac[1]
    assert product == as_int[0] * as_int[1]
    assert all(type(c) is int for c in product.terms.values())
    first, second = (as_int, as_frac) if int_first else (as_frac, as_int)
    with mock.patch.object(groebner, "_buchberger",
                           wraps=groebner._buchberger) as runs:
        basis = groebner.groebner_basis(first)
        assert groebner.groebner_basis(second) == basis
    assert runs.call_count == 1
