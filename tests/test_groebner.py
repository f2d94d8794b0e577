"""Groebner engine: normal forms, reduced bases, ideal operations, budgets."""

import random
from contextlib import nullcontext

import pytest

from quotrel.fields import GF, QQ
from quotrel.groebner import (
    BudgetExceededError,
    MembershipSieve,
    eliminate,
    finite_over_block,
    groebner_basis,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    is_unit_ideal,
    normal_form,
    radical_member,
    s_polynomial,
)
from quotrel.poly import GREVLEX, LEX, BlockOrder, PolyRing, budget

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
    s = s_polynomial(f, g)
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
    with budget(3), pytest.raises(BudgetExceededError):
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
# where the chain criterion skips the most pairs
FF2_SIEVE = ("w1 - s^2", "w2 - s^3", "w3 - s*t^2", "w4 - t^2", "w5 - t^3")
# x + y + z, xy + yz + zx, xyz and the cyclic x^2 y + y^2 z + z^2 x, and
# their sieve, where selecting by the block order alone reduced 1407 pairs
SYMMETRIC = ("x + y + z", "x*y + y*z + z*x", "x*y*z", "x^2*y + y^2*z + z^2*x")
SYMMETRIC_SIEVE = tuple(f"w{j + 1} - ({g})" for j, g in enumerate(SYMMETRIC))


@pytest.mark.parametrize("field, names, order, gens, limit, calls, outcome", [
    (GF(32003), ("u0", "u1", "u2", "u3"), GREVLEX, KATSURA3, None, 10, 7),
    (QQ, ("x", "y", "z"), GREVLEX, BUDGET_IDEAL, None, 3, 3),
    (QQ, ("x", "y", "z"), GREVLEX, BUDGET_IDEAL, 3, 2, "budget"),
    (QQ, ("x", "y", "z"), BlockOrder(1), BUDGET_IDEAL, None, 16, 10),
    (GF(2), ("s", "t", "w1", "w2", "w3", "w4", "w5"), BlockOrder(2), FF2_SIEVE,
     None, 70, 19),
    (QQ, ("x", "y", "z", "w1", "w2", "w3", "w4"), BlockOrder(3), SYMMETRIC_SIEVE,
     100, 36, 11),
])
def test_s_pair_sequence_is_pinned(monkeypatch, field, names, order, gens,
                                   limit, calls, outcome):
    """S-polynomials built per basis computation, and the basis size (or the
    budget error).  Degree-first normal selection with the product and chain
    criteria fixes these numbers.  On grevlex it pops pairs in the order of
    their lcms, as plain normal selection does; in block orders it pops
    lower-degree lcms first, which took the FF(2) sieve from 153 to 70
    S-polynomials for the same 19-element basis and the QQ sieve of
    SYMMETRIC from 1407, past a budget of 100, to 36.  A Gebauer-Moeller
    update or the sugar strategy is expected to change these numbers,
    deliberately, together with the budget a computation needs."""
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
    (QQ, ("x", "y", "z"), BUDGET_IDEAL, 3),
    # 10 S-pair reductions; a budget of 10 suffices
    (GF(32003), ("u0", "u1", "u2", "u3"), KATSURA3, 9),
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


def test_wide_exponents_restart_the_whole_run(monkeypatch):
    """x^40000 does not fit 16-bit fields: Buchberger packs its leading
    monomials, fails, and runs again from the start at 32 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget):
        widths.append(pk.width)
        return original(gens, pk, budget)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y"))
    gb = groebner_basis([R.parse("x^40000 - y"), R.parse("x*y")])
    assert [R.render(g) for g in gb] == ["y^2", "x*y", "x^40000 - y"]
    assert widths == [16, 32]


def test_spair_term_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """The lcm x*z^3000 fits 16-bit fields, but the S-pair's term
    y^30000*z^3000 has degree 33000, more than 16-bit fields admit for a
    basis element: the run starts again at 32 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget):
        widths.append(pk.width)
        return original(gens, pk, budget)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("x", "y", "z"), LEX)
    R.packing(16).pack((1, 0, 3000))  # the lcm fits
    gb = groebner_basis([R.parse("x - y^30000"), R.parse("x*z^3000 - 1")])
    assert [R.render(g) for g in gb] == ["y^30000*z^3000 - 1", "x - y^30000"]
    assert widths == [16, 32]


def test_coprime_product_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """In BlockOrder(1) on t, x, y the back-block degree of x^20000*y^20000
    is 40000, too much for a 16-bit field, though each leading monomial
    fits and every other lcm does.  Only the coprime pair's packed product,
    formed without an lcm tuple, outgrows its fields: its guard bits
    restart the run at 32 bits."""
    from quotrel import groebner

    widths = []
    original = groebner._buchberger

    def recorded(gens, pk, budget):
        widths.append(pk.width)
        return original(gens, pk, budget)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(QQ, ("t", "x", "y"), BlockOrder(1))
    gb = groebner_basis([R.parse(g) for g in ("t - x", "x^20000 - 1", "y^20000 - 1")])
    assert [R.render(g) for g in gb] == ["y^20000 - 1", "x^20000 - 1", "t - x"]
    assert widths == [16, 32]


def test_inter_reduction_outgrowing_the_fields_restarts_the_run(monkeypatch):
    """At 8-bit fields in lex x > t > y > z, {x*t - y^64, y - z^2} needs no
    S-pair reduction (its leading monomials are coprime) and every term
    fits, but reducing the tail y^64 by y - z^2 reaches z^128, past the
    fields: the inter-reduction, not Buchberger, restarts the run at 16."""
    from quotrel import groebner

    widths, overflows = [], []
    run, reduce_basis = groebner._buchberger, groebner._reduce_basis

    def recorded(gens, pk, budget):
        widths.append(pk.width)
        return run(gens, pk, budget)

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
    gens = [R.parse("x*t - y^64"), R.parse("y - z^2")]
    gb = groebner_basis(gens)
    assert widths == [8, 16] and overflows == [8]
    assert [R.render(g) for g in gb] == ["y - z^2", "x*t - z^128"]
    assert set(map(R.render, gb)) == oracles.sympy_reduced_groebner(gens, "lex")


def test_symmetric_sieve_agrees_with_sympy():
    """The sieve of SYMMETRIC, which degree-first selection builds within a
    budget of 100 (a row of ``test_s_pair_sequence_is_pinned``), is sympy's
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
    """A memo filled while dividing by the packed D[:n] still gives the
    first-divisor remainder once D has grown by appending, including for
    monomials it recorded as having no divisor."""
    from quotrel.groebner import _divisor

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
            dividend = (R, {pk.pack(m): c for m, c in f.terms.items()})
            ours = normal_form(dividend, basis[:n], (D, pk, memo))
            theirs = oracles.naive_normal_form(f, basis[:n])
            assert list(ours.terms.items()) == list(theirs.terms.items())
            assert ours.is_zero() or ours.leading_monomial() == max(
                theirs.terms, key=R.order.key)
    # both kinds of entry were made: a first divisor, and none so far
    assert any(i < len(D) for i in memo.values())
    assert len(D) in memo.values()


def test_each_spair_reduction_divides_the_s_polynomial_it_built(monkeypatch):
    """Buchberger calls ``s_polynomial`` once per S-pair reduction and hands
    its result, as the same object, to the next ``normal_form`` call: the
    bench tracer counts reductions to zero by that identity."""
    from quotrel import groebner

    events = []
    s_poly, nf = groebner.s_polynomial, groebner.normal_form

    def built(*args):
        out = s_poly(*args)
        events.append(("s", out))
        return out

    def divided(f, *args):
        events.append(("nf", f))
        return nf(f, *args)

    monkeypatch.setattr(groebner, "s_polynomial", built)
    monkeypatch.setattr(groebner, "normal_form", divided)
    ring = PolyRing(GF(32003), ("u0", "u1", "u2", "u3"))
    groebner_basis([ring.parse(g) for g in KATSURA3])
    built_at = [k for k, (kind, _) in enumerate(events) if kind == "s"]
    assert len(built_at) == 10
    for k in built_at:
        assert events[k + 1][0] == "nf" and events[k + 1][1] is events[k][1]


def test_memoized_basis_is_returned_as_a_new_list(R):
    gens = [R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")]
    first = groebner_basis(gens)
    expected = list(first)
    first.append(R.parse("x"))
    first[0] = R.zero
    assert groebner_basis(gens) == expected


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

    def recorded(gens, pk, budget):
        orders.append(gens[0].ring.order)
        return original(gens, pk, budget)

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
