"""Groebner engine: normal forms, reduced bases, ideal operations, budgets."""

import random
from contextlib import nullcontext

import pytest

from quotrel.fields import GF, QQ
from quotrel.groebner import (
    BudgetExceededError,
    MembershipSieve,
    NormalFormTable,
    eliminate,
    finite_over_block,
    groebner_basis,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    is_unit_ideal,
    normal_form,
    radical_member,
)
from quotrel.poly import GREVLEX, LEX, BlockOrder, PolyRing, Polynomial, budget
from quotrel.ring import AmbientRing

import oracles


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


def test_normal_form_is_zero_on_members(R):
    gb = groebner_basis([R.parse("x^2 - y"), R.parse("y^2 - 1")])
    f = R.parse("x^2 - y") * R.parse("x^3 + y") + R.parse("y^2 - 1") * R.parse("x - 2")
    assert normal_form(f, gb).is_zero()


def test_normal_form_fixes_reduced_elements(R):
    gb = groebner_basis([R.parse("x^2 - y")])
    g = R.parse("x*y + y")
    assert normal_form(g, gb) == g
    # idempotence
    f = R.parse("x^4 + x^2 + 1")
    once = normal_form(f, gb)
    assert normal_form(once, gb) == once


def test_normal_form_rejects_a_basis_element_from_another_ring(R):
    f = R.parse("x^2 + y")
    S = PolyRing(QQ, ("x", "y", "z"))
    # one foreign element divides a term of f, the other divides none
    for foreign in (S.parse("x"), S.parse("z^5")):
        for basis in ([foreign], [R.parse("y^3"), foreign]):
            with pytest.raises(ValueError, match="ring mismatch"):
                normal_form(f, basis)
        with pytest.raises(ValueError, match="ring mismatch"):
            normal_form(R.zero, [foreign])
    # an equal ring built separately is the same ring
    assert normal_form(f, [PolyRing(QQ, ("x", "y")).parse("x")]) == R.parse("y")


def test_s_polynomial_cancels_leads(R):
    f, g = R.parse("x^2 + y"), R.parse("x*y + 1")
    s = oracles.naive_s_polynomial(f, g)
    assert s == R.parse("y^2 - x")


def test_groebner_known_answers(R):
    # zero ideal
    assert groebner_basis([R.zero]) == []
    assert groebner_basis([]) == []
    # unit ideal
    gb = groebner_basis([R.parse("x"), R.parse("x + 1")])
    assert is_unit_ideal(gb)
    assert [R.render(g) for g in gb] == ["1"]
    # already a basis, returned reduced, monic, ascending leads
    gb = groebner_basis([R.parse("2*y"), R.parse("3*x^2")])
    assert [R.render(g) for g in gb] == ["y", "x^2"]


def test_groebner_cusp_elimination():
    # the relation ideal of the parametrization t -> (t^2, t^3)
    R = PolyRing(QQ, ("t", "x", "y"), BlockOrder(1))
    gb = groebner_basis([R.parse("x - t^2"), R.parse("y - t^3")])
    pure = [g for g in gb if all(m[0] == 0 for m in g.terms)]
    assert [R.render(g) for g in pure] == ["x^3 - y^2"]


def test_groebner_matches_sympy_spot_checks():
    cases = [
        (PolyRing(QQ, ("x", "y")), ["x^2 + y", "x*y - 1"], "grevlex"),
        (PolyRing(QQ, ("x", "y"), LEX), ["x^2 + y^2 - 1", "x - y"], "lex"),
        (PolyRing(GF(5), ("a", "b")), ["a^2*b - 1", "a + b^2"], "grevlex"),
        (PolyRing(QQ, ("x", "y", "z")), ["x*y - z", "y*z - x", "x*z - y"], "grevlex"),
    ]
    for ring, texts, order_name in cases:
        gens = [ring.parse(t) for t in texts]
        mine = {ring.render(g) for g in groebner_basis(gens)}
        assert mine == oracles.sympy_reduced_groebner(gens, order_name)


def test_groebner_output_is_input_order_independent(R):
    gens = [R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")]
    a = groebner_basis(gens)
    b = groebner_basis(list(reversed(gens)))
    assert a == b


def test_budget_is_a_distinct_outcome():
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [R.parse("x^5 + y^4 + z^3 - 1"), R.parse("x^3 + y^3 + z^2 - 1")]
    # the run holds three elements at its largest
    with budget(2), pytest.raises(BudgetExceededError):
        groebner_basis(gens)
    # same input with room succeeds
    with budget(100000):
        assert groebner_basis(gens)


KATSURA3 = (
    "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
    "u1^2 + 2*u0*u2 + 2*u1*u3 - u2",
)
BUDGET_IDEAL = ("x^5 + y^4 + z^3 - 1", "x^3 + y^3 + z^2 - 1")
# the membership sieve of bench/cases/frobenius-sieves/frobenius-ff2.qs,
# where the old pair loop reduced 51 of its 70 S-polynomials to zero
FF2_SIEVE = ("w1 - s^2", "w2 - s^3", "w3 - s*t^2", "w4 - t^2", "w5 - t^3")
# x + y + z, xy + yz + zx, xyz and the cyclic x^2 y + y^2 z + z^2 x, and
# their sieve, where selecting pairs by the block order alone reduced 1407
SYMMETRIC = ("x + y + z", "x*y + y*z + z*x", "x*y*z", "x^2*y + y^2*z + z^2*x")
SYMMETRIC_SIEVE = tuple(f"w{j + 1} - ({g})" for j, g in enumerate(SYMMETRIC))
# five binomial quadrics in four variables, not a complete intersection:
# some candidates reduce to zero, so the reductions outnumber the basis
BINOMIALS = ("u0*u1 - u2*u3", "u0*u2 - u1*u3", "u0*u3 - u1*u2", "u0^2 - u1^2", "u2^2 - u3^2")


@pytest.mark.parametrize("field, names, order, gens, limit, calls, outcome", [
    (GF(32003), ("u0", "u1", "u2", "u3"), GREVLEX, KATSURA3, None, 4, 7),
    (QQ, ("x", "y", "z"), GREVLEX, BUDGET_IDEAL, None, 1, 3),
    (QQ, ("x", "y", "z"), GREVLEX, BUDGET_IDEAL, 2, 1, "budget"),
    (QQ, ("x", "y", "z"), BlockOrder(1), BUDGET_IDEAL, None, 8, 10),
    (GF(2), ("s", "t", "w1", "w2", "w3", "w4", "w5"), BlockOrder(2), FF2_SIEVE,
     None, 27, 19),
    (QQ, ("x", "y", "z", "w1", "w2", "w3", "w4"), BlockOrder(3), SYMMETRIC_SIEVE,
     100, 10, 11),
])
def test_s_pair_sequence_is_pinned(monkeypatch, field, names, order, gens,
                                   limit, calls, outcome):
    """S-polynomials built per basis computation, and the basis size (or the
    budget error).  The signature-based loop fixes these numbers: one
    candidate per signature, in increasing order, none whose signature is a
    multiple of a syzygy's.  The old pair loop, degree-first selection with the
    product and chain criteria, built 10, 3, 2, 16, 70 and 36 of them here;
    selecting pairs by the block order alone had built 153 for the FF(2)
    sieve and 1407, past a budget of 100, for the QQ sieve of SYMMETRIC.
    Another signature order or rewrite rule is expected to change these
    numbers, deliberately, together with the budget a computation needs."""
    from quotrel import groebner

    count = [0]
    original = groebner.s_polynomial

    def counted(f, g, *rest):
        count[0] += 1
        return original(f, g, *rest)

    monkeypatch.setattr(groebner, "s_polynomial", counted)
    ring = PolyRing(field, names, order)
    polys = [ring.parse(g) for g in gens]
    # None: no scope, the default budget
    with budget(limit) if limit is not None else nullcontext():
        if outcome == "budget":
            with pytest.raises(BudgetExceededError):
                groebner_basis(polys)
        else:
            assert len(groebner_basis(polys)) == outcome
    assert count[0] == calls


@pytest.mark.parametrize("field, names, gens, small", [
    # the basis grows past 3; a budget of 4 suffices
    (QQ, ("x", "y", "z"), ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y"), 3),
    # 10 S-pair reductions; a budget of 10 suffices
    (GF(32003), ("u0", "u1", "u2", "u3"), BINOMIALS, 9),
])
def test_memoized_basis_keeps_budget_semantics(monkeypatch, field, names,
                                               gens, small):
    """A basis memoized under a large budget is not served to a call whose
    budget its computation exceeds: that call fails as on a fresh ring."""
    from quotrel import groebner

    def polys():
        ring = PolyRing(field, names)
        return [ring.parse(g) for g in gens]

    with budget(small), pytest.raises(BudgetExceededError) as fresh:
        groebner_basis(polys())
    P = polys()
    with budget(1000):
        full = groebner_basis(P)
    with budget(small), pytest.raises(BudgetExceededError) as reused:
        groebner_basis(P)
    assert str(reused.value) == str(fresh.value)

    def no_recompute(*args):
        raise AssertionError("memoized basis recomputed")

    # one more unit is the budget the computation needed: a memo hit
    monkeypatch.setattr(groebner, "_buchberger", no_recompute)
    with budget(small + 1):
        assert groebner_basis(P) == full


def _table_nf(table, f):
    """``f``'s normal form read off ``table``, unpacked."""
    out = table.combination(f.terms.items())
    return Polynomial(f.ring, {table.pk.unpack(k): c for k, c in out.items()})


@pytest.mark.parametrize("field", [QQ, GF(3)])
@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1)])
def test_normal_form_table_agrees_with_normal_form(field, order):
    """Linear combinations of monomials, each tabled from the normal form
    one variable down, give the remainders of the heap division, term for
    term, in grevlex.  Lex and block orders, where a remainder can outgrow
    its dividend's degree, are refused."""
    R = PolyRing(field, ("x", "y", "z"), order)
    gb = groebner_basis([R.parse(g) for g in ("x^2 - y*z", "y^3 - x*z + 1", "x*y*z - z^2")])
    if order != GREVLEX:
        with pytest.raises(ValueError, match="graded order"):
            NormalFormTable(R, gb, 12)
        return
    table = NormalFormTable(R, gb, 12)
    rng = random.Random(7)
    for _ in range(40):
        f = R.zero
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 4) for _ in range(3))
            f = f + R.monomial(m, field.of_int(rng.choice((-2, -1, 1, 3))))
        ours = _table_nf(table, f)
        assert ours == normal_form(f, gb), R.render(f)
        assert ours == oracles.naive_normal_form(f, gb), R.render(f)


def test_normal_form_table_of_the_unit_ideal_is_zero(R):
    table = NormalFormTable(R, groebner_basis([R.parse("x*y - 1"), R.parse("x")]), 4)
    assert table.combination([((0, 0), 1), ((3, 1), 2)]) == {}


def test_normal_form_table_restarts_wider_and_rejects_a_foreign_basis(R):
    """x^40000 does not fit 16-bit fields: a table over a basis that holds
    it, or built for that degree, packs at 32 bits.  A 16-bit table meets
    it in a call: it restarts at 32 bits before dividing anything, with
    the same remainders."""
    gb = groebner_basis([R.parse("x^40000 - y")])
    assert NormalFormTable(R, gb, 2).pk.width == 32
    square = groebner_basis([R.parse("x^2 - y")])
    assert NormalFormTable(R, square, 40000).pk.width == 32
    table = NormalFormTable(R, square, 3)
    assert table.pk.width == 16 and table.combination([((3, 0), 1)]) == {
        table.pk.pack((1, 1)): 1}
    assert _table_nf(table, R.parse("x^40001 + x")) == normal_form(
        R.parse("x^40001 + x"), [R.parse("x^2 - y")])
    assert table.pk.width == 32
    with pytest.raises(ValueError, match="ring mismatch"):
        NormalFormTable(R, [PolyRing(QQ, ("x", "y", "z")).parse("x")], 1)


def test_wide_exponents_restart_the_whole_run(monkeypatch):
    """x^40000 does not fit 16-bit fields: Buchberger packs its leading
    monomials, fails, and runs again from the start at 32 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return original(gens, pk, budget, *rest)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y"))
    gb = groebner_basis([R.parse("x^40000 - y"), R.parse("x*y")])
    assert [R.render(g) for g in gb] == ["y^2", "x*y", "x^40000 - y"]
    assert widths == [16, 32]


def test_spair_term_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """x^2*z^3000 - y^30000 leaves x - y^30000 on division by x*z^3000 - 1,
    and every term so far fits 16-bit fields.  The pair's lcm x*z^3000 fits
    too, but the remainder of its S-polynomial has the term y^30000*z^3000,
    of degree 33000, more than 16-bit fields admit for a basis element: the
    run starts again at 32 bits."""
    from quotrel import groebner

    widths, built = [], []
    original, s_poly = groebner._buchberger, groebner.s_polynomial

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return original(gens, pk, budget, *rest)

    def spair(f, g, pk, L):
        built.append(pk.width)
        return s_poly(f, g, pk, L)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    monkeypatch.setattr(groebner, "s_polynomial", spair)
    R = PolyRing(QQ, ("x", "y", "z"), LEX)
    R.packing(16).pack((1, 0, 3000))  # the lcm fits
    gb = groebner_basis([R.parse("x^2*z^3000 - y^30000"), R.parse("x*z^3000 - 1")])
    assert [R.render(g) for g in gb] == ["y^30000*z^3000 - 1", "x - y^30000"]
    assert widths == [16, 32] and built == [16, 32]


def test_coprime_pairs_form_no_product(monkeypatch):
    """In BlockOrder(1) on t, x, y the back-block degree of x^20000*y^20000
    is 40000, too much for a 16-bit field.  The leading monomials of t - x,
    x^20000 - 1 and y^20000 - 1 are pairwise coprime, so each pair's
    signature is that of its Koszul syzygy: no product is formed, no
    S-polynomial is built, and the run ends at 16 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return original(gens, pk, budget, *rest)

    def built(*args):
        raise AssertionError("an S-polynomial was built")

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    monkeypatch.setattr(groebner, "s_polynomial", built)
    R = PolyRing(QQ, ("t", "x", "y"), BlockOrder(1))
    gb = groebner_basis([R.parse(g) for g in ("t - x", "x^20000 - 1", "y^20000 - 1")])
    assert [R.render(g) for g in gb] == ["y^20000 - 1", "x^20000 - 1", "t - x"]
    assert widths == [16]


def test_signature_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """At 8-bit fields in grevlex, x*y^121 - ... leaves x - z on division by
    the two earlier generators, and its pair with x*y^120 - y^120*z + z has
    the S-polynomial -z of signature y^120.  The pair of z with z^9 - y has
    the lcm z^9, which fits, but the signature z^8*y^120, of degree 128,
    does not: the run starts again at 16 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return original(gens, pk, budget, *rest)

    monkeypatch.setattr(groebner, "_WIDTH", 8)
    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [R.parse(g) for g in (
        "z^9 - y", "x*y^120 - y^120*z + z", "x*y^121 - y^121*z + y*z + x - z")]
    gb = groebner_basis(gens)
    assert widths == [8, 16]
    assert [R.render(g) for g in gb] == ["z", "y", "x"]


def test_inter_reduction_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """At 8-bit fields in lex x > t > y > z, t - y^64 comes first, and
    x*y - x*z^2 leaves y - z^2 on division by x - 1.  Their leading
    monomials are pairwise coprime, so no S-polynomial is built, and every
    term fits; but reducing the tail y^64 of the first generator by y - z^2
    reaches z^128, past the fields: the inter-reduction, not Buchberger,
    restarts the run at 16."""
    from quotrel import groebner

    widths, overflows = [], []
    run, reduce_basis = groebner._buchberger, groebner._reduce_basis

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return run(gens, pk, budget, *rest)

    def reduced(*args):
        try:
            return reduce_basis(*args)
        except groebner.PackingOverflow:
            overflows.append(args[2].width)
            raise

    monkeypatch.setattr(groebner, "_WIDTH", 8)
    monkeypatch.setattr(groebner, "_buchberger", recorded)
    monkeypatch.setattr(groebner, "_reduce_basis", reduced)
    R = PolyRing(QQ, ("x", "t", "y", "z"), LEX)
    gens = [R.parse("t - y^64"), R.parse("x - 1"), R.parse("x*y - x*z^2")]
    gb = groebner_basis(gens)
    assert widths == [8, 16] and overflows == [8]
    assert [R.render(g) for g in gb] == ["y - z^2", "t - z^128", "x - 1"]
    assert set(map(R.render, gb)) == oracles.sympy_reduced_groebner(gens, "lex")


def test_block_remainder_of_too_high_degree_restarts_the_run(monkeypatch):
    """In BlockOrder(1) on x, y, z, x^24000*z leaves x^23999*y^9000 on
    division by x*z - y^9000.  Each block's degree, 23999 and 9000, fits
    16-bit fields, so no guard bit is set, but the total degree 32999 is
    past what 16-bit fields admit for a basis element: the remainder's
    degree check, not a guard, restarts the run at 32 bits.  The rest of
    the run would fit: the S-polynomial of the two, x^23998*y^18000, lies
    in (y^9001)."""
    from quotrel import groebner

    widths, overflows = [], []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        try:
            return original(gens, pk, budget, *rest)
        except groebner.PackingOverflow as exc:
            overflows.append(str(exc))
            raise

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y", "z"), BlockOrder(1))
    gens = [R.parse(g) for g in ("y^9001", "x*z - y^9000", "x^24000*z")]
    gb = groebner_basis(gens)
    assert widths == [16, 32] and overflows == ["remainder outgrew 16-bit fields"]
    assert [R.render(g) for g in gb] == ["y^9001", "x*z - y^9000", "x^23999*y^9000"]
    assert gb == oracles.naive_buchberger(gens, 300)[0]
    assert set(map(R.render, gb)) == oracles.sympy_reduced_groebner(
        gens, oracles.sympy_block_order(1))


def test_block_remainder_past_its_or_bound_checks_each_term(monkeypatch):
    """In BlockOrder(1) on x, y, z the bitwise or of the keys of
    x^20000*z - y^20000 has degree 40001, past what 16-bit fields admit for
    a basis element, but each term's degree is below 2^15: the remainder's
    degree check falls back to its terms, and the run ends at 16 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        widths.append(pk.width)
        return original(gens, pk, budget, *rest)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y", "z"), BlockOrder(1))
    pk = R.packing(16)
    assert sum(pk.unpack(pk.pack((20000, 0, 1)) | pk.pack((0, 20000, 0)))) == 40001
    gens = [R.parse("x^20000*z - y^20000")]
    gb = groebner_basis(gens)
    assert widths == [16]
    assert [R.render(g) for g in gb] == ["x^20000*z - y^20000"]
    assert gb == oracles.naive_buchberger(gens, 300)[0]


@pytest.mark.parametrize("gens, size", [(KATSURA3, 7), (BINOMIALS, 7)])
def test_grevlex_run_unpacks_only_added_leading_monomials_and_the_basis(
        monkeypatch, gens, size):
    """A grevlex run unpacks one leading monomial per element it adds and
    every term of the reduced basis, and nothing else: no remainder, kept
    or dropped later, is unpacked term by term, and the degree check reads
    the guard of the first weight row."""
    from quotrel import groebner
    from quotrel.poly import MonomialPacking

    unpacked, added, reducing = [0], [0], [False]
    unpack, divide, reduce_basis = (
        MonomialPacking.unpack, groebner._divide, groebner._reduce_basis)

    def counted_unpack(self, k):
        unpacked[0] += 1
        return unpack(self, k)

    def divided(*args):
        r = divide(*args)
        added[0] += bool(r) and not reducing[0]
        return r

    def reduced(*args):
        reducing[0] = True
        return reduce_basis(*args)

    monkeypatch.setattr(MonomialPacking, "unpack", counted_unpack)
    monkeypatch.setattr(groebner, "_divide", divided)
    monkeypatch.setattr(groebner, "_reduce_basis", reduced)
    ring = PolyRing(GF(32003), ("u0", "u1", "u2", "u3"))
    polys = [ring.parse(g) for g in gens]
    gb = groebner_basis(polys)
    assert len(gb) == size and added[0] > size
    assert unpacked[0] == added[0] + sum(len(g.terms) for g in gb)


def test_symmetric_sieve_agrees_with_sympy():
    """The sieve of SYMMETRIC, which Buchberger builds within a budget of
    100 (a row of ``test_s_pair_sequence_is_pinned``), is sympy's
    basis and gives the certificate of x^3 y^2 + y^3 z^2 + z^3 x^2."""
    R = PolyRing(QQ, ("x", "y", "z"))
    with budget(100):
        sieve = MembershipSieve(R, [R.parse(g) for g in SYMMETRIC])
    assert {sieve.work.render(g) for g in sieve.gb} == oracles.sympy_reduced_groebner(
        [sieve.work.parse(g) for g in SYMMETRIC_SIEVE], oracles.sympy_block_order(3),
        method="f5b")
    ok, cert = sieve.query(R.parse("x^3*y^2 + y^3*z^2 + z^3*x^2"))
    assert ok
    assert cert.ring.render(cert) == "-w1^2*w3 + w2*w3 + w2*w4"


def test_first_divisor_memo_survives_a_growing_divisor_list():
    """A memo filled while ``_divide`` divides by the packed D[:n] still
    gives the first-divisor remainder once D has grown by appending,
    including for monomials it recorded as having no divisor."""
    from quotrel.groebner import _divide, _divisor

    R = PolyRing(GF(32003), ("x", "y", "z"))
    basis = [R.parse(g) for g in (
        "x*y - 2*z", "y^2 + x", "x^2 - 3*y*z", "z^2 - y", "x - 5*z", "y",
    )]
    rng = random.Random(20261024)
    dividends = []
    for _ in range(12):
        f = R.zero
        for _ in range(rng.randint(1, 5)):
            expo = tuple(rng.randint(0, 3) for _ in range(3))
            f = f + R.monomial(expo, rng.randint(1, 9))
        dividends.append(f)
    pk = R.packing(16)
    D, memo = [], {}
    for n in range(len(basis) + 1):
        if n:
            D.append(_divisor(basis[n - 1], pk))
        for f in dividends:
            ours = _divide(R, {pk.pack(m): c for m, c in f.terms.items()}, D, pk, memo)
            theirs = oracles.naive_normal_form(f, basis[:n])
            # keys decreasing: the remainder's first term leads
            assert [(pk.unpack(k), c) for k, c in ours.items()] == list(theirs.terms.items())
            assert not ours or pk.unpack(next(iter(ours))) == max(
                theirs.terms, key=R.order.key)
    # both kinds of entry were made: a first divisor, and none so far
    assert any(i < len(D) for i in memo.values())
    assert len(D) in memo.values()


def test_each_spair_reduction_divides_the_s_polynomial_it_built(monkeypatch):
    """Buchberger calls ``s_polynomial`` once per S-pair reduction and hands
    its terms dict, as the same object, to the next ``_divide`` call, which
    is how a reduction to zero is told apart from the division of an input
    generator or of a reduced basis element's tail."""
    from quotrel import groebner

    events = []
    s_poly, divide = groebner.s_polynomial, groebner._divide

    def built(*args):
        out = s_poly(*args)
        events.append(("s", out))
        return out

    def divided(ring, terms, *args):
        events.append(("divide", terms))
        return divide(ring, terms, *args)

    monkeypatch.setattr(groebner, "s_polynomial", built)
    monkeypatch.setattr(groebner, "_divide", divided)
    ring = PolyRing(GF(32003), ("u0", "u1", "u2", "u3"))
    groebner_basis([ring.parse(g) for g in KATSURA3])
    built_at = [k for k, (kind, _) in enumerate(events) if kind == "s"]
    assert len(built_at) == 4
    for k in built_at:
        assert events[k + 1][0] == "divide" and events[k + 1][1] is events[k][1]


def katsura(n, field=GF(32003)):
    """The katsura-n system in u0..un: u0 + 2 (u1 + ... + un) = 1 and, for
    each m < n, the sum of u|i| u|m - i| over i in -n..n equals um."""
    ring = PolyRing(field, tuple(f"u{i}" for i in range(n + 1)))
    u = ring.var
    gens = [u(0) + sum((u(i) * 2 for i in range(1, n + 1)), ring.zero) - ring.one]
    for m in range(n):
        gens.append(sum((u(abs(i)) * u(abs(m - i)) for i in range(-n, n + 1)
                         if abs(m - i) <= n), ring.zero) - u(m))
    return ring, gens


def _zero_reductions(monkeypatch):
    """``[built, zero]``, kept up to date: S-polynomials built by
    Buchberger, and those whose division left zero (the ``_divide`` call
    handed the S-polynomial's own terms dict)."""
    from quotrel import groebner

    counts, last = [0, 0], [None]
    s_poly, divide = groebner.s_polynomial, groebner._divide

    def built(*args):
        last[0] = s_poly(*args)
        counts[0] += 1
        return last[0]

    def divided(ring, terms, *args):
        spair = terms is last[0]
        r = divide(ring, terms, *args)
        if spair:
            counts[1] += not r
        return r

    monkeypatch.setattr(groebner, "s_polynomial", built)
    monkeypatch.setattr(groebner, "_divide", divided)
    return counts


def test_regular_sequences_reduce_no_s_polynomial_to_zero(monkeypatch):
    """A syzygy of a regular sequence is a combination of the Koszul ones,
    whose signatures the criteria drop, so no candidate reduces to zero
    (Faugere, ISSAC 2002): katsura-3 and katsura-4 over FF(32003), and four
    generic forms of degrees 2, 2, 3 and 3 in four variables."""
    counts = _zero_reductions(monkeypatch)
    for n, size in ((3, 7), (4, 13)):
        ring, gens = katsura(n)
        assert len(groebner_basis(gens)) == size
    R = PolyRing(GF(32003), ("x", "y", "z", "w"))
    rng = random.Random(20261105)
    forms = [
        sum((R.monomial(m, rng.randrange(1, 32003))
             for m in R.monomials_up_to_degree(d) if sum(m) == d), R.zero)
        for d in (2, 2, 3, 3)
    ]
    assert len(groebner_basis(forms)) == 17
    assert counts[0] > 0 and counts[1] == 0


def test_large_system_stops_at_a_small_budget():
    """katsura-6 over FF(32003) needs a basis of 41 elements: under a budget
    of 20 it stops when the basis grows past it, with the message every
    budget failure has, and the same again on the same ring."""
    ring, gens = katsura(6)
    for _ in range(2):
        with budget(20), pytest.raises(BudgetExceededError) as exc:
            groebner_basis(gens)
        assert str(exc.value) == "Groebner computation exceeded budget: basis grew past 20"
    assert len(groebner_basis(gens)) == 41


def test_memoized_basis_is_returned_as_a_new_list(R):
    gens = [R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")]
    first = groebner_basis(gens)
    expected = list(first)
    first.append(R.parse("x"))
    first[0] = R.zero
    assert groebner_basis(gens) == expected


def test_truncation_needs_homogeneous_generators_and_a_graded_order():
    for order in (GREVLEX, LEX, BlockOrder(1)):
        R = PolyRing(QQ, ("x", "y"), order)
        gens = [R.parse("x^2 - y")] if order == GREVLEX else [R.parse("x^2 - y^2")]
        with pytest.raises(ValueError, match="homogeneous generators and a graded order"):
            groebner_basis(gens, 2)
    R = PolyRing(QQ, ("x", "y"))
    assert groebner_basis([R.parse("x^3 - y^3"), R.zero], 2) == []


def test_involution_sum_truncated_at_its_degree_builds_no_s_polynomial(monkeypatch):
    """The involution's I12 + I23 (``verify-relation R`` in the bench's
    involution case) is 8 quadrics in 6 variables: the full basis builds 27
    S-polynomials, 14 of them reduced to zero, but transitivity reads only
    degree 2, where the basis is the generators' reduced echelon form and
    every pair's lcm has degree 3 or more."""
    from quotrel.eqrel import RelationPresentation

    doubled = PolyRing(QQ, ("x1", "y1", "x2", "y2"))
    rel = RelationPresentation(AmbientRing.free(QQ, ("x", "y")), [doubled.parse(g) for g in (
        "x1^2 - x2^2", "y1^2 - y2^2", "x1*y1 - x2*y2", "x1*y2 - x2*y1")])
    gens = ([rel.to_tripled(g, 0, 1) for g in rel.full_gens]
            + [rel.to_tripled(g, 1, 2) for g in rel.full_gens])
    counts = _zero_reductions(monkeypatch)
    truncated = groebner_basis(gens, 2)
    assert counts == [0, 0] and len(truncated) == 8
    assert truncated == [g for g in groebner_basis(gens) if g.total_degree() <= 2]
    assert counts == [27, 14]


def test_ideal_member_and_linear_oracle(R):
    gens = [R.parse("x^2 - y"), R.parse("y^3")]
    gb = groebner_basis(gens)
    rng = random.Random(3)
    mons = R.monomials_up_to_degree(2)
    for _ in range(25):
        f = R.zero
        for g in gens:
            m = mons[rng.randrange(len(mons))]
            f = f + g.mul_monomial(m, QQ.of_int(rng.randint(-3, 3)))
        assert ideal_member(f, gb)
        assert oracles.linear_member(f, gens, 8)
    assert not ideal_member(R.parse("y"), gb)
    assert not ideal_member(R.one, gb)


def test_ideal_equal(R):
    a = [R.parse("x - y")]
    b = [R.parse("2*y - 2*x")]
    assert ideal_equal(a, b)
    assert not ideal_equal(a, [R.parse("x + y")])


def test_eliminate(R):
    # project the circle x^2 + y^2 = 1 along x: no constraint on y alone
    gens = [R.parse("x^2 + y^2 - 1")]
    assert eliminate(gens, [0]) == []
    # the twisted pair x = t^2, y = t^3 with t eliminated
    # elimination lands in a fresh ring on the surviving variables
    S = PolyRing(QQ, ("t", "x", "y"))
    out = eliminate([S.parse("x - t^2"), S.parse("y - t^3")], [0])
    assert out[0].ring.names == ("x", "y")
    assert [g.ring.render(g) for g in out] == ["x^3 - y^2"]


def test_ideal_intersect_diagonal_antidiagonal():
    D = PolyRing(QQ, ("x1", "y1", "x2", "y2"))
    diag = [D.parse("x1 - x2"), D.parse("y1 - y2")]
    anti = [D.parse("x1 + x2"), D.parse("y1 + y2")]
    inter = ideal_intersect(diag, anti)
    expected = [
        "y1*x2 - x1*y2",
        "y1^2 - y2^2",
        "x1*y1 - x2*y2",
        "x1^2 - x2^2",
    ]
    assert [D.render(g) for g in inter] == expected
    # intersection is contained in both
    for side in (diag, anti):
        gb = groebner_basis(side)
        assert all(ideal_member(g, gb) for g in inter)


def _recorded_orders(monkeypatch):
    """The monomial order of every Buchberger run from here on."""
    from quotrel import groebner

    orders = []
    original = groebner._buchberger

    def recorded(gens, pk, budget, *rest):
        orders.append(gens[0].ring.order)
        return original(gens, pk, budget, *rest)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    return orders


def test_grevlex_intersection_is_one_elimination(monkeypatch):
    """In a grevlex ring the t-free part of the block-order basis is already
    the reduced basis of the intersection: one Buchberger run."""
    orders = _recorded_orders(monkeypatch)
    R = PolyRing(QQ, ("x", "y"))
    inter = ideal_intersect([R.parse("x - y^2")], [R.parse("x"), R.parse("y^3")])
    assert [R.render(g) for g in inter] == ["y^3 - x*y", "x*y^2 - x^2"]
    assert orders == [BlockOrder(1)]


def test_lex_intersection_gets_its_own_reduced_basis(monkeypatch):
    """In a lex ring the eliminated grevlex basis is rebased: a second run,
    in lex, gives the reduced lex basis."""
    orders = _recorded_orders(monkeypatch)
    R = PolyRing(QQ, ("x", "y"), LEX)
    gens_i, gens_j = [R.parse("x - y^2")], [R.parse("x"), R.parse("y^3")]
    inter = ideal_intersect(gens_i, gens_j)
    assert [R.render(g) for g in inter] == ["x*y - y^3", "x^2 - y^4"]
    assert {R.render(g) for g in inter} == oracles.sympy_ideal_intersection(gens_i, gens_j)
    assert orders == [BlockOrder(1), LEX]


def test_radical_member(R):
    gens = [R.parse("x^2")]
    assert radical_member(R.parse("x"), gens)
    assert not ideal_member(R.parse("x"), groebner_basis(gens))
    assert not radical_member(R.parse("y"), gens)
    assert radical_member(R.parse("x*y + x"), gens)


def test_subalgebra_member_with_certificate(R):
    x = R.parse("x")
    gens = [R.parse("x + y"), R.parse("x*y"), R.parse("x*y^2")]
    sieve = MembershipSieve(R, gens)
    ok, cert = sieve.query(R.parse("x^3 + y^3"))
    assert ok
    # replay the certificate: substitute the generators for w1, w2, w3
    replay = cert.substitute(R, gens)
    assert replay == R.parse("x^3 + y^3")
    ok, cert = sieve.query(x)
    assert not ok and cert is None


def test_subalgebra_member_cusp():
    R = PolyRing(QQ, ("t",))
    t = R.parse("t")
    gens = [R.parse("t^2"), R.parse("t^3")]
    sieve = MembershipSieve(R, gens)
    ok, cert = sieve.query(R.parse("t^7 + t^2"))
    assert ok and cert.ring.render(cert) == "w1^2*w2 + w1"
    assert not sieve.query(t)[0]


def test_membership_sieve_reuse(R):
    sieve = MembershipSieve(R, [R.parse("x^2"), R.parse("y")])
    hits, misses = 0, 0
    for s in ("x^2", "y^3", "x^2*y + y", "x", "x^3", "x^2 + x"):
        ok, _ = sieve.query(R.parse(s))
        hits += ok
        misses += not ok
    assert (hits, misses) == (3, 3)


def test_subalgebra_member_modulo_relations():
    # in k[t]/(t^2), t^3 = 0 lands in any subalgebra
    R = PolyRing(QQ, ("t",))
    sieve = MembershipSieve(R, [R.parse("t^2")], extra_relations=[R.parse("t^2")])
    ok, cert = sieve.query(R.parse("t^3"))
    assert ok
    assert cert.is_zero()


def test_finite_over_block():
    # second block {x}, first block {t}: t integral over k[x] via t^2 - x
    W = PolyRing(QQ, ("t", "x"), BlockOrder(1))
    gb = groebner_basis([W.parse("t^2 - x")])
    finite, missing = finite_over_block(1, gb)
    assert finite and not missing
    gb = groebner_basis([W.parse("t*x")])
    finite, missing = finite_over_block(1, gb)
    assert not finite and missing == [0]
