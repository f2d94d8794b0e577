"""Sparse polynomial arithmetic, orders, parsing, rendering, re-embedding."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quotrel.fields import GF, QQ
from quotrel.groebner import groebner_basis, normal_form
from quotrel.poly import (
    GREVLEX,
    LEX,
    BlockOrder,
    DEFAULT_BUDGET,
    BudgetExceededError,
    GrevlexOrder,
    MonomialPacking,
    ParseError,
    PolyRing,
    Polynomial,
    budget,
    current_budget,
    embed,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    order_from_name,
    unembed,
)

from oracles import grevlex_key, naive_normal_form


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y", "z"))


def test_ring_identity(R):
    assert R == PolyRing(QQ, ("x", "y", "z"), GREVLEX)
    assert R != PolyRing(QQ, ("x", "y", "z"), LEX)
    assert R != PolyRing(GF(2), ("x", "y", "z"))
    assert R.nvars == 3 and R.names == ("x", "y", "z")


def test_parse_render_round_trip(R):
    cases = [
        "0",
        "1",
        "-1",
        "x",
        "2/3*x^2*y - z + 1/2",
        "x^10 - y^10",
        "-x^2 + x - 7",
    ]
    for s in cases:
        f = R.parse(s)
        assert R.parse(R.render(f)) == f
    assert R.render(R.parse("x + y - y")) == "x"
    assert R.render(R.zero) == "0"


def test_render_conventions(R):
    assert R.render(R.parse("y*x")) == "x*y"
    assert R.render(R.parse("-x^2 + y")) == "-x^2 + y"
    assert R.render(R.parse("x - 1")) == "x - 1"
    assert R.render(R.parse("(1/2)*x")) == "1/2*x"
    # grevlex puts higher total degree first
    assert R.render(R.parse("x + x^2*z + y^3")) == "y^3 + x^2*z + x"


def test_parse_errors(R):
    for bad in ["x +", "(x", "x^", "2*", "w", "x ** 2", "x^-1"]:
        with pytest.raises(ParseError):
            R.parse(bad)


def test_parse_skips_whitespace_and_names_a_bad_character(R):
    """Whitespace, newlines included, separates tokens anywhere; a character
    no token starts with is named, with the text it was found in."""
    with pytest.raises(ParseError) as err:
        R.parse("x $ y")
    assert str(err.value) == "unexpected character '$' in 'x $ y'"
    assert R.parse(" x +\n y ") == R.parse("x + y")
    assert R.parse("\t2 * x ^ 3\n") == R.parse("2*x^3")


def test_variable_names_are_what_the_reader_reads():
    """A ring takes exactly the names its polynomial reader can read back."""
    S = PolyRing(QQ, ("é", "_y1"))
    assert S.render(S.parse("é^2*_y1 - é")) == "é^2*_y1 - é"
    for bad in ["a-b", "1x", "x y", "", "x'"]:
        with pytest.raises(ValueError, match="invalid variable name"):
            PolyRing(QQ, ("z", bad))


def test_parse_rationals_and_powers(R):
    f = R.parse("3/4*x^2 - 2*x + 5")
    assert f.coeff((2, 0, 0)) == QQ.of_fraction(3, 4)
    assert f.coeff((1, 0, 0)) == QQ.of_int(-2)
    assert f.constant_coeff() == QQ.of_int(5)
    # implicit multiplication is not part of the grammar
    with pytest.raises(ParseError):
        R.parse("2x")


def test_arithmetic_identities(R):
    rng = random.Random(7)

    def rand_poly():
        f = R.zero
        for _ in range(rng.randint(1, 5)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + R.monomial(m, QQ.of_int(rng.randint(-4, 4)))
        return f

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == R.zero
        assert f * R.one == f
        assert f * R.zero == R.zero


def test_pow_matches_repeated_multiplication(R):
    f = R.parse("x + 2*y - 1")
    acc = R.one
    for e in range(6):
        assert f ** e == acc
        acc = acc * f
    with pytest.raises(ValueError):
        f ** -1


def test_grevlex_against_independent_key():
    rng = random.Random(11)
    order = GREVLEX
    for _ in range(200):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 5) for _ in range(n))
        b = tuple(rng.randint(0, 5) for _ in range(n))
        assert (order.key(a) < order.key(b)) == (grevlex_key(a) < grevlex_key(b))


def test_lex_and_grevlex_disagree():
    # x^3 vs x*y*z: lex prefers x^3, grevlex ranks by the tie-break
    R = PolyRing(QQ, ("x", "y", "z"), LEX)
    assert R.parse("x^3 + x*y*z").leading_monomial() == (3, 0, 0)
    S = PolyRing(QQ, ("x", "y", "z"), GREVLEX)
    assert S.parse("x^3 + x*y*z").leading_monomial() == (3, 0, 0)
    assert S.parse("x^2*z + x*y^2").leading_monomial() == (1, 2, 0)


def test_block_order_eliminates_front():
    R = PolyRing(QQ, ("a", "b", "x"), BlockOrder(2))
    # any monomial containing a or b beats any pure-x monomial
    f = R.parse("a + x^5")
    assert f.leading_monomial() == (1, 0, 0)


def test_order_from_name():
    assert order_from_name("lex") == LEX
    assert order_from_name("grevlex") == GREVLEX
    with pytest.raises(ValueError):
        order_from_name("weird")


def test_monomial_helpers():
    assert monomial_divides((1, 0, 2), (2, 0, 2))
    assert not monomial_divides((1, 1, 0), (2, 0, 2))
    assert monomial_div((2, 1, 3), (1, 0, 2)) == (1, 1, 1)
    assert monomial_lcm((2, 0, 1), (1, 3, 0)) == (2, 3, 1)


def test_degrees_and_homogeneity(R):
    assert R.zero.total_degree() == -1
    assert R.one.total_degree() == 0
    assert R.parse("x*y^2 + z").total_degree() == 3
    assert R.parse("x^2 + y*z").is_homogeneous()
    assert not R.parse("x^2 + y").is_homogeneous()


def test_monomials_of_degree_counts(R):
    # the number of degree-d monomials in 3 variables is C(d+2, 2)
    for d, expected in [(0, 1), (1, 3), (2, 6), (3, 10), (4, 15)]:
        mons = R.monomials_of_degree(d)
        assert len(mons) == expected
        assert len(set(mons)) == expected
        assert all(sum(m) == d for m in mons)
    upto = R.monomials_up_to_degree(3)
    assert len(upto) == 1 + 3 + 6 + 10


def test_monomial_enumeration_is_budgeted(R):
    # the count is checked before enumerating, so huge degrees fail at once
    with budget(15):
        assert len(R.monomials_of_degree(4)) == 15
    with budget(14), pytest.raises(BudgetExceededError, match="15 monomials of degree 4"):
        R.monomials_of_degree(4)
    with budget(20):
        assert len(R.monomials_up_to_degree(3)) == 20
    with budget(19), pytest.raises(BudgetExceededError, match="up to degree 3"):
        R.monomials_up_to_degree(3)
    with pytest.raises(BudgetExceededError):
        R.monomials_of_degree(10**6)
    with pytest.raises(BudgetExceededError):
        R.monomials_up_to_degree(10**6)


def test_budget_scope_restores_the_previous_budget(R):
    assert current_budget() == DEFAULT_BUDGET
    with budget(50):
        with budget(7) as limit:
            assert limit == current_budget() == 7
        assert current_budget() == 50
        with pytest.raises(BudgetExceededError), budget(3):
            R.monomials_of_degree(4)
        assert current_budget() == 50
        with pytest.raises(ZeroDivisionError), budget(2):
            1 / 0
        assert current_budget() == 50
    assert current_budget() == DEFAULT_BUDGET
    with pytest.raises(TypeError):
        with budget(None):
            pass
    assert current_budget() == DEFAULT_BUDGET


def test_substitute(R):
    S = PolyRing(QQ, ("u",))
    f = R.parse("x^2 - y*z + 1")
    g = f.substitute(S, [S.parse("u"), S.parse("u^2"), S.parse("-1")])
    assert g == S.parse("u^2 + u^2 + 1")


def test_derivative(R):
    f = R.parse("x^3*y + 2*x - y^2 + 4")
    assert f.derivative(0) == R.parse("3*x^2*y + 2")
    assert f.derivative(1) == R.parse("x^3 - 2*y")
    assert f.derivative(2) == R.zero


def test_derivative_char_p():
    R = PolyRing(GF(3), ("x",))
    assert R.parse("x^3").derivative(0) == R.zero
    assert R.parse("x^4").derivative(0) == R.parse("x^3")


def test_convert_between_rings():
    R = PolyRing(QQ, ("x", "y"))
    S = PolyRing(QQ, ("y", "x", "z"))
    f = R.parse("x^2 - y")
    g = S.convert(f)
    assert S.render(g) == "x^2 - y"
    with pytest.raises(ValueError):
        # z is used but missing in the target
        R.convert(S.parse("z"))


@st.composite
def embeddings(draw):
    """A source ring, a bigger target, injective positions (``None`` for
    some variables) and a polynomial avoiding the unplaced variables."""
    n = draw(st.integers(min_value=0, max_value=4))
    target = PolyRing(QQ, [f"t{j}" for j in range(draw(st.integers(n, 7)))])
    source = PolyRing(QQ, [f"s{i}" for i in range(n)])
    positions = draw(st.permutations(range(target.nvars)))[:n]
    positions = [None if draw(st.booleans()) and draw(st.booleans()) else j
                 for j in positions]
    f = source.zero
    for _ in range(draw(st.integers(0, 4))):
        m = tuple(0 if j is None else draw(st.integers(0, 3)) for j in positions)
        f = f + source.monomial(m, QQ.of_int(draw(st.integers(-5, 5))))
    return f, target, positions


@settings(max_examples=200, deadline=None)
@given(embeddings())
def test_unembed_inverts_embed(case):
    f, target, positions = case
    g = embed(f, target, positions)
    assert g.ring == target and len(g.terms) == len(f.terms)
    assert unembed(g, f.ring, positions) == f


def test_embed_moves_exponents():
    S = PolyRing(QQ, ("a", "b"))
    T = PolyRing(QQ, ("x", "y", "z", "w"))
    f = S.parse("a^2*b - 3*b + 1")
    assert embed(f, T, [3, 1]) == T.parse("w^2*y - 3*y + 1")
    assert embed(f, T, [1, 2]) == T.parse("y^2*z - 3*z + 1")  # one block
    assert embed(f, T, [0, 1]) == T.parse("x^2*y - 3*y + 1")  # prefix
    assert embed(f, S, [0, 1]) == f


def test_convert_is_embed_by_name(R):
    S = PolyRing(QQ, ("z", "w", "x", "y"))
    f = R.parse("x^2*y - 3*z + 1/2")
    assert S.convert(f) == embed(f, S, [2, 3, 0])
    g = S.parse("x*y - y^3")
    assert R.convert(g) == embed(g, R, [None, None, 0, 1])
    assert R.convert(g) == unembed(g, R, [2, 3, None])


def test_embed_rejects_unplaced_variables():
    S = PolyRing(QQ, ("a", "b"))
    T = PolyRing(QQ, ("x", "y", "z"))
    assert embed(S.parse("a^2"), T, [2, None]) == T.parse("z^2")
    with pytest.raises(ValueError, match="'b'"):
        embed(S.parse("a + b"), T, [2, None])
    with pytest.raises(ValueError):
        embed(S.parse("a + b"), T, [1, 1])  # not injective
    with pytest.raises(ValueError):
        embed(S.parse("a"), T, [0, 3])  # outside the target
    with pytest.raises(ValueError, match="y"):
        unembed(T.parse("x + y"), S, [0, 2])


def test_coefficients_stay_in_field():
    R = PolyRing(GF(2), ("x",))
    f = R.parse("x + x")
    assert f.is_zero()
    g = R.parse("x") * R.parse("x + 1")
    assert R.render(g) == "x^2 + x"


class CountingGrevlex(GrevlexOrder):
    """Grevlex that counts its key calls."""

    def __init__(self):
        self.calls = 0

    def key(self, m):
        self.calls += 1
        return super().key(m)


def test_leading_monomial_is_computed_once():
    order = CountingGrevlex()
    S = PolyRing(QQ, ("x", "y", "z"), order)
    f = S.parse("x*y*z + x^2*z + y^3 - 2")
    assert f.leading_monomial() == max(f.terms, key=GREVLEX.key) == (0, 3, 0)
    calls = order.calls
    assert f.leading_monomial() == (0, 3, 0)
    assert f.leading_coeff() == 1
    assert order.calls == calls
    with pytest.raises(ValueError):
        S.zero.leading_monomial()
    with pytest.raises(ValueError):
        S.zero.leading_monomial()


def test_basis_is_packed_once_across_normal_forms():
    order = CountingGrevlex()
    S = PolyRing(GF(32003), ("x", "y", "z"), order)
    gb = groebner_basis([S.parse("x^2 - 2*y*z"), S.parse("y^2 - x*z + 1")])
    dividends = [S.parse(t) for t in ("x^3*y + z^4", "x^5 + 3*y^5", "x*y*z^3 - 1")]
    expected = [naive_normal_form(f, gb) for f in dividends]
    normal_form(dividends[0], gb)
    slots = [g._packed for g in gb]
    calls = order.calls
    for f, nf in zip(dividends, expected):
        assert normal_form(f, gb) == nf
    assert all(g._packed is slot for g, slot in zip(gb, slots))
    # division reads the packed order words, never the order's key
    assert order.calls == calls


@pytest.mark.parametrize("width", [16, 32, 64, 128])
def test_unpack_equals_the_shift_loop(width):
    """``unpack`` reads 16-, 32- and 64-bit fields with one ``struct`` call
    and 128-bit ones with the shift loop: both give the shift loop's
    exponents, for 0 to 8 variables in grevlex, lex and block orders, up to
    the largest exponent a field holds."""
    rng = random.Random(width)
    top, mask = (1 << (width - 1)) - 1, (1 << width) - 1
    for nvars in range(9):
        for order in (GREVLEX, LEX, BlockOrder(max(1, nvars // 2))):
            pk = MonomialPacking(nvars, order.weights(nvars), width)
            monomials = [tuple(rng.choice((0, 1, top, rng.randint(0, top)))
                               for _ in range(nvars)) for _ in range(20)]
            monomials += [tuple(top * (j == i) for j in range(nvars)) for i in range(nvars)]
            for m in monomials:
                # packed without the degree check: a carry out of an order
                # field never reaches the exponent word, which alone is read
                k = sum(e * u for e, u in zip(m, pk.units))
                shifted = tuple((k >> (i * width)) & mask for i in range(nvars))
                assert pk.unpack(k) == shifted == m


def test_monic_and_scale(R):
    f = R.parse("2*x^2 - 4*y")
    assert R.render(f.monic()) == "x^2 - 2*y"
    assert f.scale(QQ.of_fraction(1, 2)) == R.parse("x^2 - 2*y")
    assert R.zero.monic() == R.zero
