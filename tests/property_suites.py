"""Seeded randomized batteries behind the final acceptance check.

Each suite runs a fixed number of pseudo-random cases from a hard-coded
seed, raises ``AssertionError`` on the first divergence, and returns the
number of cases it ran.  Keeping them as plain functions (rather than
pytest parametrizations) lets the acceptance battery time them as one block
and report a single case count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from quotrel.effectivity import CocycleData, check_cocycle, effectivity_test
from quotrel.eqrel import (
    RelationPresentation,
    copy_difference,
    copy_names,
    relation_from_group_action,
    relation_from_map,
    verify_relation,
)
from quotrel import groebner
from quotrel.fields import GF, QQ
from quotrel.frobenius import frobenius_exponent
from quotrel.groebner import groebner_basis, ideal_intersect, ideal_member, normal_form
from quotrel.invariants import GroupAction, invariant_basis
from quotrel.linalg import RowSpace
from quotrel.pinch import PinchInput, PinchResult, _product_span, verify_pushout
from quotrel.poly import (
    GREVLEX, LEX, BlockOrder, BudgetExceededError, PolyRing, Polynomial, budget, embed,
)
from quotrel.quotient import coequalizer_kernel_basis, ordered_columns, present_subalgebra
from quotrel.ring import AmbientRing, RingMap

import oracles

FIELDS = (QQ, GF(2), GF(3), GF(5))
NAMES = ("x", "y", "z")


def _random_poly(rng, ring, max_terms=3, max_degree=3, homogeneous=None):
    """A random nonzero polynomial with small integer coefficients."""
    while True:
        terms = ring.zero
        for _ in range(rng.randint(1, max_terms)):
            if homogeneous is None:
                degree = rng.randint(0, max_degree)
            else:
                degree = homogeneous
            expo = [0] * ring.nvars
            for _ in range(degree):
                expo[rng.randrange(ring.nvars)] += 1
            coeff = ring.field.of_int(rng.choice((-3, -2, -1, 1, 2, 3)))
            terms = terms + ring.monomial(tuple(expo), coeff)
        if not terms.is_zero():
            return terms


def gb_oracle_suite(cases=200, seed=20260815):
    """Reduced Groebner bases agree with sympy's on random tiny ideals."""
    rng = random.Random(seed)
    orders = (("lex", LEX), ("grevlex", GREVLEX))
    for _ in range(cases):
        field = rng.choice(FIELDS)
        nvars = rng.randint(1, 3)
        order_name, order = rng.choice(orders)
        ring = PolyRing(field, NAMES[:nvars], order)
        polys = [
            _random_poly(rng, ring, max_terms=rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        ours = {g.ring.render(g) for g in groebner_basis(polys)}
        theirs = oracles.sympy_reduced_groebner(polys, order_name)
        assert ours == theirs, (
            f"groebner disagreement over {field!r} ({order_name}) on "
            f"{[ring.render(p) for p in polys]}: {sorted(ours)} != {sorted(theirs)}"
        )
    return cases


def gb_block_oracle_suite(cases=200, seed=20260816):
    """Reduced Groebner bases in ``BlockOrder(k)``, the elimination order of
    ``MembershipSieve`` and ``eliminate``, agree with sympy's product of two
    grevlex orders.  Half the cases have the sieve's shape: each back
    variable minus a polynomial in the front ones, plus a front relation.
    sympy runs F5B here, not Buchberger: with its product order, its
    Buchberger takes minutes on some of these ideals."""
    rng = random.Random(seed)
    names = ("x", "y", "z", "w")
    for _ in range(cases):
        field = rng.choice(FIELDS)
        nvars = rng.randint(2, 4)
        front = rng.randint(1, nvars - 1)
        ring = PolyRing(field, names[:nvars], BlockOrder(front))
        if rng.random() < 0.5:
            front_ring = PolyRing(field, names[:front], GREVLEX)
            lift = list(range(front))
            polys = [
                ring.var(j) - embed(_random_poly(rng, front_ring), ring, lift)
                for j in range(front, nvars)
            ]
            if rng.random() < 0.5:
                polys.append(embed(_random_poly(rng, front_ring), ring, lift))
        else:
            polys = [
                _random_poly(rng, ring, max_terms=rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
        ours = {g.ring.render(g) for g in groebner_basis(polys)}
        theirs = oracles.sympy_reduced_groebner(
            polys, oracles.sympy_block_order(front), method="f5b")
        assert ours == theirs, (
            f"block({front}) groebner disagreement over {field!r} on "
            f"{[ring.render(p) for p in polys]}: {sorted(ours)} != {sorted(theirs)}"
        )
    return cases


def _random_finite_map(rng, nvars):
    """Coordinates of a map that is automatically module-finite: one pure
    power per variable plus a few extra random polynomials."""
    field = rng.choice(FIELDS)
    ambient = AmbientRing.free(field, NAMES[:nvars])
    pr = ambient.poly_ring(0)
    fs = []
    for i in range(nvars):
        expo = [0] * nvars
        expo[i] = rng.randint(1, 3)
        fs.append(pr.monomial(tuple(expo)))
    for _ in range(rng.randint(0, 2)):
        fs.append(_random_poly(rng, pr, max_degree=3))
    rng.shuffle(fs)
    return ambient, fs


def _block_unbounded(rel):
    """The unbounded variables of ``rel`` read off the block-order basis on
    ``rel.swapped``, the path ``unbounded`` takes for inhomogeneous ideals."""
    W = rel.swapped
    gb = groebner_basis([W.convert(g) for g in rel.full_gens])
    return [W.var(i) for i in groebner.finite_over_block(rel.nvars, gb)[1]]


def truncated_basis_suite(cases=150, seed=20261107):
    """A basis truncated at D is the full reduced basis's elements of degree
    at most D: homogeneous ideals in 2-4 variables over QQ and FF(7), D from
    1 to 5, and generators of degree 1 to 6, so some lie above D.  Either
    basis may be computed first."""
    rng = random.Random(seed)
    names = ("x", "y", "z", "u")
    for _ in range(cases):
        field = rng.choice((QQ, GF(7)))
        ring = PolyRing(field, names[:rng.randint(2, 4)], GREVLEX)
        gens = [_random_poly(rng, ring, homogeneous=rng.randint(1, 6))
                for _ in range(rng.randint(1, 4))]
        D = rng.randint(1, 5)
        first = groebner_basis(gens, D) if rng.random() < 0.5 else None
        full = groebner_basis(gens)
        ours = groebner_basis(gens, D)
        assert first in (None, ours)
        assert ours == [g for g in full if g.total_degree() <= D], (
            f"basis of {[ring.render(g) for g in gens]} truncated at {D} over {field!r}")
    return cases


def fibre_finiteness_suite(cases=60, seed=20261108):
    """Relations of random homogeneous maps on 1-3 variables, some not
    finite (``(x*y)`` on the plane, or a map missing a power of a
    variable): the fibre over the origin names the block-order basis's
    unbounded variables."""
    rng = random.Random(seed)
    unbounded = 0
    for _ in range(cases):
        ambient = AmbientRing.free(rng.choice(FIELDS), NAMES[:rng.randint(1, 3)])
        pr = ambient.poly_ring(0)
        fs = [_random_poly(rng, pr, max_terms=2, homogeneous=rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            fs += [pr.var(i) ** rng.randint(1, 3) for i in range(pr.nvars)]
        rel = relation_from_map(ambient, fs)
        ours = rel.unbounded()
        assert ours == _block_unbounded(rel), (
            f"fibre and block order disagree for {[pr.render(f) for f in fs]}")
        unbounded += bool(ours)
    assert 0 < unbounded < cases
    return cases


def relation_from_map_suite(cases=50, seed=20260815):
    """Relations built from a finite map satisfy all four axioms in scheme
    mode: they really are scheme-theoretic equivalence relations."""
    rng = random.Random(seed)
    for _ in range(cases):
        ambient, fs = _random_finite_map(rng, rng.randint(1, 2))
        rel = relation_from_map(ambient, fs)
        report = verify_relation(rel, "scheme")
        assert report.all_pass, (
            f"axiom failure for map {[f.ring.render(f) for f in fs]}: "
            + report.render()
        )
    return cases


def kernel_closure_suite(cases=50, seed=20260815):
    """Truncated kernels behave like algebras: the unit is present,
    filtration dimensions only grow, products of basis elements stay in the
    span, and every basis element passes the defining-condition recheck."""
    rng = random.Random(seed)
    bound = 4
    for _ in range(cases):
        ambient, fs = _random_finite_map(rng, rng.randint(1, 2))
        rel = relation_from_map(ambient, fs)
        trunc = coequalizer_kernel_basis(rel, bound)
        basis = trunc.basis()

        assert trunc.contains(ambient.one), "unit missing from the kernel"
        dims = trunc.dims()
        assert dims == sorted(dims), f"filtration dims not monotone: {dims}"
        assert dims[0] == 1

        for el in basis:
            assert trunc.defining_membership(el), (
                f"basis element {el.render()} fails the defining recheck "
                f"for map {[f.ring.render(f) for f in fs]}"
            )

        pairs = [
            (f, g)
            for f in basis
            for g in basis
            if f.degree() + g.degree() <= bound
        ]
        rng.shuffle(pairs)
        for f, g in pairs[:10]:
            prod = f * g
            assert trunc.contains(prod), (
                f"product {prod.render()} of kernel elements left the span"
            )
    return cases


def effectivity_v_in_w_suite(cases=20, seed=20260815):
    """Coboundaries are cocycles: every generator of V has vanishing defect
    (so V sits inside W), and the effectivity test declares them effective."""
    rng = random.Random(seed)
    for _ in range(cases):
        field = rng.choice(FIELDS)
        ambient = AmbientRing.free(field, ("x1", "x2"))
        pr = ambient.poly_ring(0)
        map_polys = [
            pr.monomial((rng.randint(1, 3), 0)),
            pr.monomial((0, rng.randint(1, 3))),
        ]
        if rng.random() < 0.5:
            map_polys.append(_random_poly(rng, pr, homogeneous=2))
        d = rng.randint(2, 3)
        g = _random_poly(rng, pr, homogeneous=d)
        # g(x) - g(y): the two variables go to positions 0, 1, then 2, 3
        D = PolyRing(field, ("x1", "x2", "y1", "y2"))
        coboundary = embed(g, D, [0, 1]) - embed(g, D, [2, 3])
        data = CocycleData(ambient, map_polys, coboundary)

        assert check_cocycle(data), (
            f"coboundary of {pr.render(g)} failed the cocycle condition"
        )
        # V inside W, generator by generator: each monomial difference
        # spanning V must have defect in J(x,y) + J(y,z)
        sum_gb = data.sum_basis()
        for m in pr.monomials_of_degree(d):
            mono = pr.monomial(m)
            dif = embed(mono, D, [0, 1]) - embed(mono, D, [2, 3])
            assert ideal_member(data.relation.defect(dif), sum_gb), (
                f"coboundary generator for {pr.render(mono)} escaped W"
            )
        report = effectivity_test(data)
        assert report.verdict == "effective"
        assert report.dim_v <= report.dim_w
        assert all(field.is_zero(c) for c in report.class_coords)
    return cases


def effectivity_class_suite(cases=20, seed=20261023):
    """W/V coordinates are the class: on the descent data of ``cocycle.qs``
    over QQ and FF(2, 3, 5), where W/V has dimension 1, a candidate
    a*w + (g(x) - g(y)) built from a report's own W/V basis vector w has
    class [a], and is effective exactly when a is 0."""
    rng = random.Random(seed)
    for _ in range(cases):
        field = rng.choice(FIELDS)
        ambient = AmbientRing.free(field, ("x1", "x2"))
        pr = ambient.poly_ring(0)
        map_polys = [pr.parse(p) for p in ("x1^2", "x1*x2 - x2^2", "x2^3")]
        base = CocycleData(ambient, map_polys, "(x1*y2 - x2*y1)*y2^3")
        (w,) = effectivity_test(base).complement_basis
        a = field.of_int(rng.randint(-2, 2))
        g = _random_poly(rng, pr, homogeneous=5)
        f = (w.scale(a) + embed(g, w.ring, [0, 1])
             - embed(g, w.ring, [2, 3]))
        report = effectivity_test(CocycleData(ambient, map_polys, f))
        where = f"{w.ring.render(f)} over {field!r}"
        assert report.class_coords == [a], (
            f"class {report.class_coords} != [{a}] for {where}")
        assert (report.verdict == "effective") == field.is_zero(a), (
            f"verdict {report.verdict} for {where}")
    return cases


def effectivity_oracle_suite(cases=40, seed=20261103):
    """``effectivity_test`` renders exactly as
    ``oracles.naive_effectivity_test`` on random descent data over QQ and
    FF(2, 3, 5) in two or three variables.  The map is a pure power of each
    variable plus one random homogeneous polynomial; the candidate is
    a*w + (g(x) - g(y)) in degree 2 to 5, with w running over the oracle's
    own W/V basis.  Every other case takes the shape of ``cocycle.qs``, where
    W/V is not zero: some variable u squared, another v cubed, an extra
    polynomial with u*v and v^2 terms, degree 5.  Noneffective verdicts must
    occur.  Draws that outrun a budget of 200 are drawn again."""
    rng = random.Random(seed)
    noneffective = 0
    case = 0
    while case < cases:
        field = rng.choice(FIELDS)
        nvars = rng.randint(2, 3)
        ambient = AmbientRing.free(field, NAMES[:nvars])
        pr = ambient.poly_ring(0)
        powers = [rng.randint(1, 3) for _ in range(nvars)]
        if case % 2:
            u, v = rng.sample(range(nvars), 2)
            powers[u], powers[v] = 2, 3
            xu, xv = pr.var(u), pr.var(v)
            extra = ((xu * xu).scale(field.of_int(rng.randint(-2, 2)))
                     + (xu * xv).scale(field.of_int(rng.choice((-1, 1))))
                     + (xv * xv).scale(field.of_int(rng.choice((-1, 1)))))
            d = 5
        else:
            extra = _random_poly(rng, pr, homogeneous=rng.randint(2, 3))
            d = rng.randint(2, 5)
        maps = [pr.monomial(tuple(p if j == i else 0 for j in range(nvars)))
                for i, p in enumerate(powers)] + [extra]
        g = _random_poly(rng, pr, homogeneous=d)
        try:
            with budget(200):
                f = copy_difference(g, PolyRing(field, sum(copy_names(pr.names, 2), [])))
                probe = CocycleData(ambient, maps, f)
                for w in oracles.naive_effectivity_test(probe).complement_basis:
                    f = f + w.scale(field.of_int(rng.randint(-2, 2)))
                data = CocycleData(ambient, maps, f)
                ours = effectivity_test(data).render()
                theirs = oracles.naive_effectivity_test(data).render()
        except BudgetExceededError:
            continue
        assert ours == theirs, (
            f"{ours}\nagainst the oracle's\n{theirs}\nfor maps "
            f"{[pr.render(p) for p in maps]} and {probe.relation.doubled.render(f)}")
        noneffective += ours.endswith("noneffective")
        case += 1
    assert noneffective, "no noneffective case was drawn"
    return cases


def ideal_intersect_oracle_suite(cases=40, seed=20261018):
    """``ideal_intersect`` agrees with sympy's elimination of t from
    t*I + (1 - t)*J on random ideals of two or three variables."""
    rng = random.Random(seed)
    for _ in range(cases):
        field = rng.choice(FIELDS)
        ring = PolyRing(field, NAMES[:rng.randint(2, 3)], GREVLEX)
        gens_i, gens_j = (
            [_random_poly(rng, ring, max_terms=2, max_degree=2)
             for _ in range(rng.randint(1, 2))]
            for _ in range(2)
        )
        ours = {ring.render(g) for g in ideal_intersect(gens_i, gens_j)}
        theirs = oracles.sympy_ideal_intersection(gens_i, gens_j)
        assert ours == theirs, (
            f"intersection disagreement over {field!r} on "
            f"{[ring.render(p) for p in gens_i]} and "
            f"{[ring.render(p) for p in gens_j]}: {sorted(ours)} != {sorted(theirs)}"
        )
    return cases


def normal_form_oracle_suite(cases=200, seed=20261019):
    """``normal_form`` by arbitrary divisor lists, not Groebner bases, returns
    ``oracles.naive_normal_form``'s remainder term for term and in the same
    term order, which pins "first divisor wins".  The lists mix in zero
    polynomials, constants, duplicates and rescaled copies, most leading
    coefficients are not 1, and each list divides two dividends, the second
    through the packed forms cached by the first."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    for _ in range(cases):
        field = rng.choice(fields)
        nvars = rng.randint(1, 3)
        order = rng.choice((LEX, GREVLEX, BlockOrder(rng.randint(1, nvars))))
        ring = PolyRing(field, NAMES[:nvars], order)
        divisors, count = [], rng.randint(1, 4)
        while len(divisors) < count:
            g = _random_poly(rng, ring, max_terms=3)
            if g.total_degree() > 0:  # constants are mixed in below, rarely
                divisors.append(g)
        if rng.random() < 0.3:
            divisors.insert(rng.randint(0, len(divisors)), ring.zero)
        if rng.random() < 0.3:
            g = rng.choice(divisors)
            copy = g if rng.random() < 0.5 else g.scale(field.of_int(rng.choice((2, 3))))
            divisors.insert(rng.randint(0, len(divisors)), copy)
        if rng.random() < 0.1:
            divisors.insert(rng.randint(0, len(divisors)), ring.from_int(rng.choice((2, 3))))
        for _ in range(2):
            f = _random_poly(rng, ring, max_terms=5, max_degree=5)
            ours = normal_form(f, divisors)
            theirs = oracles.naive_normal_form(f, divisors)
            assert list(ours.terms.items()) == list(theirs.terms.items()), (
                f"remainder disagreement over {field!r} ({order!r}) for "
                f"{ring.render(f)} by {[ring.render(g) for g in divisors]}: "
                f"{ring.render(ours)} != {ring.render(theirs)}"
            )
    return cases


def spair_oracle_suite(cases=200, seed=20261024):
    """``s_polynomial`` of the ``_divisor`` forms of ``f`` and ``g`` at
    ``pk`` and their packed lcm, unpacked with zero terms dropped and each
    coefficient in canonical form, equals ``oracles.naive_s_polynomial(f,
    g)`` term for term, over QQ and FF(2, 3, 5, 32003) in lex, grevlex and
    block orders.
    Most leading coefficients are not 1, and half the packings are 32 bits
    wide, so the cached packed forms are repacked in between."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    for _ in range(cases):
        field = rng.choice(fields)
        nvars = rng.randint(1, 3)
        order = rng.choice((LEX, GREVLEX, BlockOrder(rng.randint(1, nvars))))
        ring = PolyRing(field, NAMES[:nvars], order)
        f = _random_poly(rng, ring, max_terms=4, max_degree=4)
        g = _random_poly(rng, ring, max_terms=4, max_degree=4)
        pk = ring.packing(rng.choice((16, 32)))
        theirs = oracles.naive_s_polynomial(f, g)
        lcm = pk.pack(oracles.monomial_lcm(f.leading_monomial(), g.leading_monomial()))
        packed = groebner.s_polynomial(
            groebner._divisor(f, pk), groebner._divisor(g, pk), pk, lcm)
        ours = {}
        for k, c in packed.items():
            c = field.add(field.zero, c)
            if not field.is_zero(c):
                ours[pk.unpack(k)] = c
        assert ours == theirs.terms, (
            f"S-polynomial disagreement over {field!r} ({order!r}) for "
            f"{ring.render(f)}, {ring.render(g)} at {pk.width} bits: "
            f"{ours} != {ring.render(theirs)}"
        )
    return cases


def _outcome(run):
    """``run()``'s result, or its ``BudgetExceededError`` message."""
    try:
        return run()
    except BudgetExceededError as exc:
        return str(exc)


def _buchberger_input(rng, ring):
    """Two to four random generators whose terms mostly have positive
    degree; in a block order, half the time the sieve's shape instead:
    each back variable minus a form of degree 2 or 3 in the front ones."""
    if isinstance(ring.order, BlockOrder) and rng.random() < 0.5:
        front = ring.order.front
        front_ring = PolyRing(ring.field, ring.names[:front], GREVLEX)
        lift = list(range(front))
        return tuple(
            ring.var(j) - embed(
                _random_poly(rng, front_ring, max_terms=2,
                             homogeneous=rng.randint(2, 3)),
                ring, lift)
            for j in range(front, ring.nvars)
        )
    gens = []
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(1, 3)
        gens.append(_random_poly(rng, ring, max_terms=2, homogeneous=degree)
                    + _random_poly(rng, ring, max_terms=2, max_degree=degree - 1))
    return tuple(gens)


def _random_order(rng):
    """A monomial order and a number of variables for it: lex bases grow
    fastest, so lex gets the fewest variables."""
    # None stands for a block order
    order, most = rng.choice(((LEX, 3), (GREVLEX, 4), (None, 5)))
    nvars = rng.randint(2, most)
    return order or BlockOrder(rng.randint(1, nvars - 1)), nvars


def buchberger_oracle_suite(cases=1000, seed=20261020):
    """``groebner_basis`` returns the reduced basis of
    ``oracles.naive_buchberger`` term for term, and its budget outcome
    follows the need it memoizes: under a budget below that need it fails
    with the message of the limit it crossed, on a fresh ring and again
    once the basis is memoized; at or above it, it returns the basis.  The
    oracle's S-pair sequence and need are those of the old pair loop and
    are not compared."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    names = ("x", "y", "z", "u", "v")
    for _ in range(cases):
        field = rng.choice(fields)
        order, nvars = _random_order(rng)
        ring = PolyRing(field, names[:nvars], order)
        gens = _buchberger_input(rng, ring)
        limit = rng.choice((300, 300, 300, rng.randint(1, 8)))
        where = f"over {field!r} ({order!r}) on {[ring.render(g) for g in gens]}"
        with budget(limit):
            ours = _outcome(lambda: groebner_basis(list(gens)))
        with budget(300):
            full = _outcome(lambda: groebner_basis(list(gens)))
        if isinstance(full, str):
            assert limit < 300 or ours == full, f"budget outcome differs {where}"
            continue
        needed = ring._bases[tuple(g for g in gens if g), None][0]
        with budget(limit):
            again = _outcome(lambda: groebner_basis(list(gens)))
        assert again == ours, f"memoized outcome differs {where}: {again} != {ours}"
        if limit < needed:
            assert ours in (
                f"Groebner computation exceeded budget: {limit + 1} S-pair reductions",
                f"Groebner computation exceeded budget: basis grew past {limit}",
            ), f"budget outcome differs {where}: {ours} under {limit}, need {needed}"
        else:
            assert ours == full, f"basis differs under {limit} {where}"
        theirs = _outcome(lambda: oracles.naive_buchberger(gens, 300))
        if isinstance(theirs, str):
            continue
        assert [list(g.terms.items()) for g in full] == [
            list(g.terms.items()) for g in theirs[0]
        ], f"basis differs {where}"
    return cases


def reduce_basis_oracle_suite(cases=500, seed=20261027):
    """``groebner_basis`` inter-reduces on Buchberger's packed divisor list
    and returns ``oracles.naive_reduce_basis`` of the same monic Groebner
    basis term for term, over QQ and FF(2, 3, 5, 32003) in lex, grevlex and
    block orders.  That list is minimal: no leading monomial in it divides
    another.  Every element of that divisor list is the ``_divisor``
    form, recomputed from its unpacked terms, of a monic nonzero remainder
    of one of Buchberger's packed divisions, and the basis is read off
    those remainders in the list's order.  A case over the budget of 300 is
    drawn again."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    names = ("x", "y", "z", "u", "v")
    originals = groebner._buchberger, groebner._reduce_basis, groebner._divide
    buchberger, reduce_basis, divide = originals
    run = {}

    def recorded_run(gens, pk, limit, *rest):
        run.update(pk=pk, remainders=[], inside=True)
        return buchberger(gens, pk, limit, *rest)

    def recorded_division(ring, terms, *args):
        r = divide(ring, terms, *args)
        if run.get("inside") and r:
            run["remainders"].append((ring, dict(r)))
        return r

    def recorded_reduction(ring, D, pk, memo):
        run.update(D=list(D), inside=False)
        return reduce_basis(ring, D, pk, memo)

    def monic(ring, remainder):
        pk = run["pk"]
        return Polynomial(ring, {pk.unpack(k): c for k, c in remainder.items()}).monic()

    groebner._buchberger, groebner._reduce_basis, groebner._divide = (
        recorded_run, recorded_reduction, recorded_division)
    try:
        done = 0
        while done < cases:
            field = rng.choice(fields)
            order, nvars = _random_order(rng)
            ring = PolyRing(field, names[:nvars], order)
            gens = [g for g in _buchberger_input(rng, ring) if g]
            try:
                with budget(300):
                    ours = groebner_basis(gens)
            except BudgetExceededError:
                continue
            where = f"over {field!r} ({order!r}) on {[ring.render(g) for g in gens]}"
            kept = [monic(*r) for r in run["remainders"]]
            recomputed = [groebner._divisor(g, run["pk"]) for g in kept]
            assert all(d in recomputed for d in run["D"]), (
                f"a divisor is no remainder's packed form {where}")
            eguard = run["pk"].eguard
            assert not any(not (a[1] - b[1]) & eguard for i, a in enumerate(run["D"])
                           for j, b in enumerate(run["D"]) if i != j), (
                f"a leading monomial divides another {where}")
            G = [kept[recomputed.index(d)] for d in run["D"]]
            theirs = oracles.naive_reduce_basis(G)
            assert [list(g.terms.items()) for g in ours] == [
                list(g.terms.items()) for g in theirs
            ], f"reduced basis differs {where}"
            done += 1
    finally:
        groebner._buchberger, groebner._reduce_basis, groebner._divide = originals
    return cases


def _edge_case(rng, ring, kind, gens):
    """``gens`` turned into one of the inputs a signature run treats
    specially: a repeated generator (rescaled), a zero or a constant
    generator, a generator in the ideal of the others, the unit ideal, or
    the generators in reverse order."""
    field, gens = ring.field, list(gens)
    c = field.of_int(rng.randint(1, 4))
    if field.is_zero(c):
        c = field.one
    if kind == "repeated":
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens).scale(c))
    elif kind == "zero or constant":
        gens.insert(rng.randrange(len(gens) + 1), rng.choice((ring.zero, ring.constant(c))))
    elif kind == "member":
        member = ring.zero
        for g in gens:
            member = member + g * _random_poly(rng, ring, max_terms=2, max_degree=1)
        gens.insert(rng.randrange(len(gens) + 1), member)
    elif kind == "unit":
        gens.append(rng.choice(gens) + ring.one)
    else:
        gens.reverse()
    return gens


def signature_oracle_suite(cases=500, seed=20261105):
    """The signature-based run on the inputs it treats specially, in turn:
    repeated generators, a zero or constant generator, a generator in the
    ideal of the others, the unit ideal and generators in reverse order,
    over QQ and FF(2, 3, 5, 32003) in lex, grevlex and block orders.  Each
    basis is ``oracles.naive_reduce_basis`` of ``oracles.naive_buchberger``
    term for term; a case the oracle cannot finish within a budget of 300
    is drawn again."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    names = ("x", "y", "z", "u", "v")
    kinds = ("repeated", "zero or constant", "member", "unit", "reverse")
    done = 0
    while done < cases:
        kind = kinds[done % len(kinds)]
        field = rng.choice(fields)
        order, nvars = _random_order(rng)
        ring = PolyRing(field, names[:nvars], order)
        gens = _edge_case(rng, ring, kind, _buchberger_input(rng, ring))
        theirs = _outcome(lambda: oracles.naive_buchberger(gens, 300))
        if isinstance(theirs, str):
            continue
        theirs = oracles.naive_reduce_basis(theirs[0]) if theirs[0] else []
        with budget(300):
            ours = groebner_basis(gens)
        where = f"{kind} over {field!r} ({order!r}) on {[ring.render(g) for g in gens]}"
        assert [list(g.terms.items()) for g in ours] == [
            list(g.terms.items()) for g in theirs
        ], f"basis differs {where}"
        if kind == "unit":
            assert [ring.render(g) for g in ours] == ["1"], f"not the unit ideal {where}"
        done += 1
    return cases


def _signed_permutation_group(rng, n, signed, max_order):
    """The group generated by one or two random signed permutations of ``n``
    variables, or ``None`` when it has more than ``max_order`` elements.
    Element ``g`` sends variable ``i`` to ``g[i][1]`` times variable
    ``g[i][0]``."""
    def random_element():
        perm = rng.sample(range(n), n)
        return tuple((j, rng.choice((1, -1)) if signed else 1) for j in perm)

    def compose(g, h):
        return tuple((h[j][0], s * h[j][1]) for j, s in g)

    gens = [random_element() for _ in range(rng.randint(1, 2))]
    group = {tuple((i, 1) for i in range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        if len(group) > max_order:
            return None
        frontier = nxt
    return sorted(group)


def _molien_series(group, degree):
    """Coefficients through ``degree`` of (1/|G|) sum_g 1/det(1 - t g), in
    exact fractions.  A signed permutation's determinant factors over its
    cycles: a k-cycle whose signs multiply to s gives 1 - s t^k."""
    total = [Fraction(0)] * (degree + 1)
    for g in group:
        series = [Fraction(1)] + [Fraction(0)] * degree
        seen = set()
        for start in range(len(g)):
            if start in seen:
                continue
            length, sign, i = 0, 1, start
            while i not in seen:
                seen.add(i)
                length += 1
                sign *= g[i][1]
                i = g[i][0]
            # multiply by 1/(1 - sign t^length) = sum_m (sign t^length)^m
            for e in range(length, degree + 1):
                series[e] += sign * series[e - length]
        total = [a + b for a, b in zip(total, series)]
    return [c / len(group) for c in total]


def molien_suite(cases=24, seed=20261018):
    """For random permutation and signed-permutation groups G on n <= 3
    variables, |G| <= 6: the truncated coordinate ring of the orbit relation
    has the invariants' dimensions degree by degree, and, when the
    characteristic does not divide |G|, the Molien series'.  Each orbit
    relation passes all four axioms, and ``invariant_basis``, solved on a
    generating set, equals ``oracles.naive_invariant_basis``, solved on
    every element."""
    rng = random.Random(seed)
    degree = 4
    done = 0
    while done < cases:
        field = rng.choice(FIELDS)
        n = rng.randint(1, 3)
        # -x = x in characteristic 2, so signs are dropped there
        group = _signed_permutation_group(
            rng, n, signed=field.characteristic != 2 and rng.random() < 0.5,
            max_order=6)
        if group is None or len(group) == 1:
            continue
        done += 1
        ambient = AmbientRing.free(field, NAMES[:n])
        pr = ambient.poly_ring(0)
        maps = [
            RingMap.on_polys(ambient, ambient,
                             [pr.var(j).scale(field.of_int(s)) for j, s in g])
            for g in group
        ]
        action = GroupAction(ambient, maps)
        what = f"group {group} over {field!r}"
        rel = relation_from_group_action(action)
        assert rel.unbounded() == _block_unbounded(rel) == [], what
        report = verify_relation(rel, "scheme")
        if not report.verdicts["transitivity"]:
            # the composed correspondence may pick up embedded points where
            # orbits meet, so transitivity can hold for the points only
            report = verify_relation(rel, "set")
        assert report.all_pass, f"axiom failure for {what}: " + report.render()
        kernel_dims = coequalizer_kernel_basis(rel, degree).dims()
        layers = invariant_basis(action, degree)
        assert layers == oracles.naive_invariant_basis(action, degree), (
            f"{what}: invariants on generators differ from all elements'")
        invariant_dims = list(accumulate(len(layer) for layer in layers))
        assert kernel_dims == invariant_dims, (
            f"{what}: kernel dims {kernel_dims} != invariant dims {invariant_dims}"
        )
        if not field.characteristic or len(group) % field.characteristic:
            molien = list(accumulate(_molien_series(group, degree)))
            assert invariant_dims == molien, (
                f"{what}: invariant dims {invariant_dims} != Molien {molien}"
            )
    return cases


def group_action_oracle_suite(cases=80, seed=20261109):
    """``GroupAction`` agrees with ``oracles.naive_group_check``, which
    fills the full multiplication table, on lists drawn from small
    signed-permutation groups and, over prime fields, from the translations
    ``x -> x + a``, on one to three variables: a random subset of the group
    or all of it, in random order, with or without the identity, sometimes
    with a repeated element or a non-invertible map such as ``x -> 0``.
    The constructor accepts exactly the oracle's groups, with the oracle's
    generators, and otherwise raises the message of an axiom that the
    oracle's table shows failing.  Both outcomes must occur."""
    rng = random.Random(seed)
    groups = 0
    for _ in range(cases):
        field = rng.choice(FIELDS)
        n = rng.randint(1, 3)
        ambient = AmbientRing.free(field, NAMES[:n])
        pr = ambient.poly_ring(0)
        if field.characteristic and rng.random() < 0.3:
            images = [[pr.var(0) + pr.from_int(a)] + pr.gens()[1:]
                      for a in range(field.characteristic)]
        else:
            group = None
            while group is None:
                group = _signed_permutation_group(
                    rng, n, signed=field.characteristic != 2 and rng.random() < 0.5,
                    max_order=8)
            images = [[pr.var(j).scale(field.of_int(s)) for j, s in g] for g in group]
        rng.shuffle(images)
        if rng.random() < 0.5:
            images = images[:rng.randint(1, len(images))]
        if rng.random() < 0.2:
            images.insert(rng.randint(0, len(images)), rng.choice(images))
        if rng.random() < 0.2:
            crushed = rng.sample(range(n), rng.randint(1, n))
            images.insert(rng.randint(0, len(images)),
                          [pr.zero if j in crushed else pr.var(j) for j in range(n)])
        maps = [RingMap.on_polys(ambient, ambient, im) for im in images]
        failing, generators = oracles.naive_group_check(ambient, maps)
        what = f"{[[pr.render(p) for p in im] for im in images]} over {field!r}"
        try:
            action = GroupAction(ambient, maps)
        except ValueError as e:
            assert str(e) in failing, f"{what}: raised {e!r}, the table fails {failing}"
            continue
        assert not failing, f"{what}: accepted, but the table fails {failing}"
        assert action.generators == generators, (
            f"{what}: generators {action.generators} != {generators}")
        groups += 1
    assert 0 < groups < cases, f"{groups} of {cases} lists were groups"
    return cases


def _relation_case(rng, kind, field):
    """A relation of the given kind over ``field``: the orbit relation of a
    small signed-permutation group or, over a prime field, of the affine
    translations ``x -> x + a``, the cusp or the node as the relation of a
    map from the line, or explicit generators on a quotient ambient."""
    if kind == "action" and field.characteristic and rng.random() < 0.5:
        # the p translations of the first variable; the others stay fixed
        n = rng.randint(1, 2)
        ambient = AmbientRing.free(field, NAMES[:n])
        pr = ambient.poly_ring(0)
        maps = [RingMap.on_polys(ambient, ambient,
                                 [pr.var(0) + pr.from_int(a)] + pr.gens()[1:])
                for a in range(field.characteristic)]
        return (f"translations of {NAMES[0]} on {', '.join(NAMES[:n])}",
                relation_from_group_action(GroupAction(ambient, maps)))
    if kind == "action":
        while True:
            n = rng.randint(1, 3)
            group = _signed_permutation_group(
                rng, n, signed=field.characteristic != 2 and rng.random() < 0.5,
                max_order=6)
            if group is not None and len(group) > 1:
                break
        ambient = AmbientRing.free(field, NAMES[:n])
        pr = ambient.poly_ring(0)
        maps = [RingMap.on_polys(ambient, ambient,
                                 [pr.var(j).scale(field.of_int(s)) for j, s in g])
                for g in group]
        return f"orbits of {group}", relation_from_group_action(GroupAction(ambient, maps))
    if kind == "map":
        ambient = AmbientRing.free(field, ("t",))
        pr = ambient.poly_ring(0)
        # the cusp t -> (t^2, t^3); the node t -> (t^2 - 1, t^3 - t) glues
        # t = 1 to t = -1
        name, fs = rng.choice((("cusp", ("t^2", "t^3")), ("node", ("t^2 - 1", "t^3 - t"))))
        return name, relation_from_map(ambient, [pr.parse(f) for f in fs])
    pr = PolyRing(field, ("x", "y"))
    ambient = AmbientRing.quotient(pr, [_random_poly(rng, pr, max_degree=2)])
    D = PolyRing(field, ("x1", "y1", "x2", "y2"))
    gens = [copy_difference(_random_poly(rng, pr, max_degree=3), D)
            for _ in range(rng.randint(1, 2))]
    gens += [_random_poly(rng, D, max_degree=3) for _ in range(rng.randint(0, 1))]
    return f"explicit on {ambient!r}", RelationPresentation(ambient, gens)


def relation_kernel_oracle_suite(cases=45, seed=20261106):
    """The truncated kernel of a relation equals
    ``oracles.naive_relation_kernel_basis``, which divides each condition
    ``f(x) - f(y)`` from scratch by the relation ideal's basis, layer by
    layer, term for term: an orbit relation's kernel is solved on its
    group's fixed-point condition, any other on one normal-form table.  Its
    minimal generators, from one grown span of products, equal
    ``oracles.naive_minimal_generators`` of the oracle's kernel, which
    rebuilds that span at every step.  Orbit relations of small
    signed-permutation groups and of affine translations over prime fields,
    the cusp and the node, and explicit relations on a quotient ambient,
    over QQ and FF(2, 3, 5, 7), through degree 8 at most.  One more case
    glues ``x1^40000`` to ``x2^40000``: 16-bit fields cannot hold that
    leading monomial, so the table packs at 32 bits."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(7),)
    for i in range(cases):
        field = rng.choice(fields)
        kind = ("action", "map", "quotient")[i % 3]
        what, rel = _relation_case(rng, kind, field)
        d = rng.randint(2, 6 if kind == "action" else 8)
        ours = coequalizer_kernel_basis(rel, d)
        theirs = oracles.naive_relation_kernel_basis(rel, d)
        where = f"{what} over {field!r} through degree {d}"
        assert ours.layers == theirs.layers, f"kernel layers differ: {where}"
        assert [f.render() for f in ours.basis()] == [f.render() for f in theirs.basis()], where
        assert ours.minimal_generators() == oracles.naive_minimal_generators(theirs), (
            f"minimal generators differ: {where}")
    ambient = AmbientRing.free(QQ, ("x",))
    rel = relation_from_map(ambient, [ambient.poly_ring(0).parse("x^40000")])
    assert groebner.NormalFormTable(rel.doubled, rel.gb(), 8).pk.width == 32
    ours, theirs = coequalizer_kernel_basis(rel, 8), oracles.naive_relation_kernel_basis(rel, 8)
    assert ours.layers == theirs.layers and ours.dims() == [1] * 9
    return cases


def _random_element(rng, ambient, max_degree=2):
    """A random element with a nonzero part of degree at most ``max_degree``
    on every component."""
    return ambient.element([
        _random_poly(rng, ambient.poly_ring(c), max_terms=2, max_degree=max_degree)
        for c in range(ambient.ncomponents)
    ])


def presentation_suite(cases=60, seed=20261021):
    """``present_subalgebra``, read off the flat model's ``MembershipSieve``,
    gives the ring names and the reduced basis of
    ``oracles.eliminate_presentation``; on one sieve ``contains`` agrees
    with ``query``, products of generators are members, and ``residue`` is
    linear.  One- and two-component rings over QQ and FF(2, 3, 5), with
    default names, user names, and names that collide with the flat model's
    variables (``w1`` in the ring, ``e1`` for a product's idempotent)."""
    rng = random.Random(seed)
    for case in range(cases):
        field = rng.choice(FIELDS)
        style = ("default", "user", "capture")[case % 3]
        first = PolyRing(field, ("w1", "w2") if style == "capture" else ("x", "y"))
        components = [(first, [_random_poly(rng, first, max_terms=2, max_degree=2)]
                       if rng.random() < 0.5 else [])]
        if rng.random() < 0.5:
            second = PolyRing(field, ("z",))
            components.append((second, [second.parse("z^2")]
                               if rng.random() < 0.5 else []))
        ambient = AmbientRing(components)
        gens = [_random_element(rng, ambient) for _ in range(rng.randint(1, 3))]
        if style == "user":
            names = ["a", "b", "c"][:len(gens)]
        elif style == "capture" and ambient.is_product:
            names = ["e1", "e2", "e3"][:len(gens)]
        else:
            names = None
        where = f"{ambient!r} on {[g.render() for g in gens]} named {names}"
        ring, basis = present_subalgebra(gens, names=names)
        their_ring, theirs = oracles.eliminate_presentation(gens, names=names)
        assert ring.names == their_ring.names, f"names differ for {where}"
        assert [ring.render(g) for g in basis] == [
            their_ring.render(g) for g in theirs
        ], f"presentation differs for {where}"
        # both come off a block-order basis with no second basis computation
        assert groebner_basis(basis) == basis, f"presentation not reduced for {where}"
        assert groebner_basis(theirs) == theirs, f"elimination not reduced for {where}"

        model = ambient.model()
        sieve = model.sieve(gens)
        member = gens[0] * gens[-1] + gens[0]
        probes = [member] + [_random_element(rng, ambient) for _ in range(2)]
        for el in probes:
            p = model.to_poly(el)
            assert sieve.contains(p) == sieve.query(p)[0], (
                f"contains and query disagree on {el.render()} for {where}")
        assert sieve.contains(model.to_poly(member)), f"{member.render()} missed for {where}"
        f, g = (model.to_poly(el) for el in probes[1:])
        a, b = (field.of_int(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(2))
        assert sieve.residue(f.scale(a) + g.scale(b)) == (
            sieve.residue(f).scale(a) + sieve.residue(g).scale(b)
        ), f"residue is not linear for {where}"
    return cases


def frobenius_suite(cases=40, seed=20261025):
    """``frobenius_exponent``, which carries each generator's normal form
    from one r to the next, finds the r and the certificates of
    ``oracles.naive_frobenius_exponent``, which divides each ``b ** q`` from
    scratch.  One- and two-component rings over FF(2, 3, 5), free or with a
    relation, q at most 9; the subalgebra has random generators and, in
    most cases, a p^e-th power of each variable, so that several exponents
    r and not-found all occur."""
    rng = random.Random(seed)
    found = set()
    for _ in range(cases):
        p = rng.choice((2, 3, 5))
        r_max = {2: 3, 3: 2, 5: 1}[p]
        first = PolyRing(GF(p), ("x", "y"))
        relation = rng.choice((None, "y^2", "x^2*y - y^3", "x*y - 1"))
        components = [(first, [first.parse(relation)] if relation else [])]
        if rng.random() < 0.4:
            second = PolyRing(GF(p), ("z",))
            components.append((second, [second.parse("z^3")] if rng.random() < 0.5 else []))
        ambient = AmbientRing(components)
        sub = [_random_element(rng, ambient) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.7:
            for c in range(ambient.ncomponents):
                pr = ambient.poly_ring(c)
                for v in range(pr.nvars):
                    e = p ** rng.randint(0, r_max)
                    sub.append(ambient.embed(c, pr.var(v)) ** e)
        alg = [_random_element(rng, ambient) for _ in range(rng.randint(1, 2))]
        where = (f"{ambient!r}: {[g.render() for g in alg]} into "
                 f"{[g.render() for g in sub]}")
        ours = frobenius_exponent(sub, alg, r_max=r_max)
        theirs = oracles.naive_frobenius_exponent(sub, alg, r_max)
        if theirs is None:
            assert ours is None, f"found r = {ours.r}, oracle none, for {where}"
        else:
            assert ours is not None, f"none found, oracle r = {theirs[0]}, for {where}"
            assert (ours.r, ours.certificates) == theirs, f"witness differs for {where}"
        found.add(None if theirs is None else theirs[0])
    assert found >= {None, 0, 1, 2}, f"exponents seen: {found}"
    return cases


def _random_image(rng, ring):
    """A linear or nonlinear polynomial, a nonzero constant, or zero."""
    kind = rng.choice(("linear", "linear", "nonlinear", "nonlinear", "constant", "zero"))
    if kind == "zero":
        return ring.zero
    if kind == "constant":
        return ring.from_int(rng.choice((-2, -1, 1, 2, 3))) or ring.one
    if kind == "linear":
        return _random_poly(rng, ring, max_terms=3, max_degree=1)
    return _random_poly(rng, ring, max_terms=3, max_degree=3)


def _random_component(rng, field, names):
    """A free or quotient component on ``names``; a quotient's generators
    have degree 2 or 3, so powers of the images reduce."""
    pr = PolyRing(field, names, rng.choice((GREVLEX, LEX)))
    if rng.random() < 0.4:
        return pr, []
    q = []
    while len(q) < rng.randint(1, 2):
        g = _random_poly(rng, pr, max_terms=3, max_degree=3)
        if g.total_degree() >= 2:
            q.append(g)
    return pr, q


def substitution_oracle_suite(cases=60, seed=20261022):
    """``RingMap.apply`` and the map's ``MonomialImages`` tables give, for
    each target component ``t`` fed by source component ``s``, the normal
    form of ``oracles.naive_substitute`` of the source part, term for term;
    each table's own output is already that normal form.  Free, quotient
    and product rings (sources and targets) over QQ and FF(2, 3, 5),
    linear and nonlinear images, constants and zero; three elements go
    through one map, so later ones hit the memoized images.  Free targets
    also check ``Polynomial.substitute`` against the oracle exactly."""
    rng = random.Random(seed)
    for case in range(cases):
        field = rng.choice(FIELDS)
        source = AmbientRing([
            _random_component(rng, field, NAMES[:rng.randint(1, 3)])
            for _ in range(rng.randint(1, 2))])
        target = AmbientRing([
            _random_component(rng, field, ("u", "v", "w")[:rng.randint(1, 3)])
            for _ in range(rng.choice((1, 1, 2)))])
        assignments = []
        for t in range(target.ncomponents):
            s = rng.randrange(source.ncomponents)
            tpr = target.poly_ring(t)
            assignments.append((s, [_random_image(rng, tpr)
                                    for _ in range(source.poly_ring(s).nvars)]))
        phi = RingMap(source, target, assignments)
        where = f"case {case}: {source!r} -> {target!r} by {phi.render()}"
        for _ in range(3):
            el = source.element([
                _random_poly(rng, source.poly_ring(c), max_terms=4, max_degree=4)
                for c in range(source.ncomponents)])
            image = phi.apply(el)
            for t, (s, images) in enumerate(assignments):
                tpr = target.poly_ring(t)
                naive = oracles.naive_substitute(el.parts[s], tpr, images)
                expected = target.nf(t, naive)
                assert image.parts[t].terms == expected.terms, (
                    f"apply differs on {el.render()} at component {t}, {where}")
                assert phi.table(t).apply(el.parts[s]).terms == expected.terms, (
                    f"table output not normal on {el.render()} at component {t}, {where}")
                if not target.q_gens(t):
                    assert el.parts[s].substitute(tpr, images).terms == naive.terms, (
                        f"substitute differs on {el.render()}, {where}")
    return cases


def pair_equalizer_suite(cases=60, seed=20261026):
    """The kernel of a map pair is their equalizer: every basis element has
    equal pullbacks, the kernel's dimension is the column count minus the
    ``oracles.span_dim`` rank of ``s1 - s2`` on the columns, and ``contains``
    agrees with ``defining_membership``.  One- and two-piece free sources
    into one- and two-piece free or quotient targets over QQ and
    FF(2, 3, 5), each map choosing its own source piece per target
    component, at degree 4."""
    rng = random.Random(seed)
    bound = 4
    for case in range(cases):
        field = rng.choice(FIELDS)
        source = AmbientRing([
            (PolyRing(field, names), [])
            for names in (("x", "y")[:rng.randint(1, 2)], ("z",))[:rng.randint(1, 2)]])
        target = AmbientRing([
            _random_component(rng, field, ("u", "v")[:rng.randint(1, 2)])
            for _ in range(rng.randint(1, 2))])

        def random_map():
            assignments = []
            for t in range(target.ncomponents):
                s = rng.randrange(source.ncomponents)
                assignments.append((s, [_random_image(rng, target.poly_ring(t))
                                        for _ in range(source.poly_ring(s).nvars)]))
            return RingMap(source, target, assignments)

        s1, s2 = random_map(), random_map()
        where = f"case {case}: {s1.render()} against {s2.render()} on {source!r}"
        trunc = coequalizer_kernel_basis((s1, s2), bound)
        basis = trunc.basis()
        for f in basis:
            assert s1.apply(f) == s2.apply(f), f"{f.render()} has unequal pullbacks, {where}"
        images = []
        for c, m in ordered_columns(source, bound):
            col = source.embed(c, source.poly_ring(c).monomial(m))
            images.append(oracles.element_vec(s1.apply(col) - s2.apply(col)))
        rank = oracles.span_dim(images, oracles.arith_for(field))
        assert trunc.dims()[-1] == len(images) - rank, (
            f"dims {trunc.dims()} against rank {rank} of {len(images)} columns, {where}")
        outside = source.element([
            _random_poly(rng, source.poly_ring(c), max_terms=3, max_degree=bound)
            for c in range(source.ncomponents)])
        inside = source.zero
        for f in basis:
            inside = inside + f.scale(field.of_int(rng.randint(-2, 2)))
        for el in (outside, inside, inside + outside):
            assert trunc.contains(el) == trunc.defining_membership(el), (
                f"contains and the recheck disagree on {el.render()}, {where}")
    return cases


def _pinch_ring(rng, field, shape):
    """A line, a plane, a plane modulo one cubic, or a product of two
    lines."""
    if shape == "line":
        return AmbientRing.free(field, ("t",))
    if shape == "plane":
        return AmbientRing.free(field, ("u", "v"))
    if shape == "product":
        return AmbientRing([(PolyRing(field, ("u",)), []), (PolyRing(field, ("v",)), [])])
    pr = PolyRing(field, ("u", "v"))
    while True:
        cubic = _random_poly(rng, pr, max_terms=3, max_degree=3)
        if cubic.total_degree() == 3:
            return AmbientRing.quotient(pr, [cubic])


def pushout_oracle_suite(cases=60, seed=20261102):
    """``verify_pushout`` renders exactly as ``oracles.naive_verify_pushout``
    on random gluing data over QQ and FF(2, 3, 5): a line, a plane, a plane
    modulo one cubic and a product of two lines, degree 2 to 4, the
    variables as module generators.  The generator list is the one
    ``pinch_generators`` forms, with a random subset dropped in half the
    cases.  A second locus generator that differs from the first by a
    lower-degree element makes check (c) fail on the kernel side; dropped
    generators make it fail on the ideal side; both must occur.  Draws that
    outrun a budget of 200 are drawn again."""
    rng = random.Random(seed)
    sides = {"kernel": 0, "ideal": 0}
    case = 0
    while case < cases:
        field = rng.choice(FIELDS)
        shape = rng.choice(("line", "plane", "cubic", "product"))
        ring = _pinch_ring(rng, field, shape)
        d = rng.randint(2, 4)
        iz = [_random_element(rng, ring, 2)]
        lower = _random_element(rng, ring, 1)
        if iz[0].degree() == 2 and not lower.is_zero() and rng.random() < 0.6:
            iz.append(iz[0] + lower)
        s_lifts = [_random_element(rng, ring, 3) for _ in range(rng.randint(0, 2))]
        # the variables, and on the product the first piece's unit
        module = [ring.embed(c, ring.poly_ring(c).var(i)) for c in range(ring.ncomponents)
                  for i in range(ring.poly_ring(c).nvars)]
        module += [ring.embed(0, ring.poly_ring(0).one)] if ring.is_product else []
        inp = PinchInput(ring, iz, s_lifts, module)
        gens = []
        for g in inp.s_lifts + inp.iz_gens + [r * h for r in module for h in inp.iz_gens]:
            if not g.is_zero() and g not in gens:
                gens.append(g)
        if rng.random() < 0.5:
            gens = [g for g in gens if rng.random() < 0.6] or gens[:1]
        if not gens or not inp.iz_gens:
            continue
        out = PinchResult(gens, [], None, [], d)
        where = (f"case {case}: {ring!r}, locus {[h.render() for h in inp.iz_gens]}, "
                 f"generators {[g.render() for g in gens]}, degree {d}")
        try:
            with budget(200):
                ours = verify_pushout(inp, out, d)
        except BudgetExceededError:
            continue
        theirs = oracles.naive_verify_pushout(inp, out, d)
        assert ours.render() == theirs.render(), (
            f"{ours.render()}\nagainst the oracle's\n{theirs.render()}\n{where}")
        _, ok, wit = ours.checks[2]
        if not ok:
            space, _ = _product_span(inp.flat, [
                inp.flat.element([inp.model.to_poly(g)]) for g in gens], d)
            in_span = space.contains(inp.model.to_poly(wit).terms)
            sides["kernel" if in_span else "ideal"] += 1
        case += 1
    assert all(sides.values()), f"check (c) failures by side: {sides}"
    return cases


def _random_vector(rng, field, columns, max_entries):
    """A sparse vector over ``columns`` with coefficients in +-1, +-2, +-3,
    all nonzero over QQ and FF(7)."""
    labels = rng.sample(columns, rng.randint(1, min(max_entries, len(columns))))
    return {k: field.of_int(rng.choice((-3, -2, -1, 1, 2, 3))) for k in labels}


def rowspace_oracle_suite(cases=200, seed=20261104):
    """A ``RowSpace`` over QQ and FF(7), keyed so that the least label is the
    most significant, agrees with ``oracles.rref`` on random sparse vectors,
    some of them combinations of others, inserted in two shuffled orders:
    the same ``pivots`` and ``rows``, and ``insert`` returns a new pivot
    exactly when the dimension grows.  ``reduce`` returns what
    ``oracles.naive_reduce`` returns and leaves its argument alone.  Every
    row read after an insert is unchanged by all later inserts, since
    callers wrap rows as polynomial terms without copying them.  After
    every insert each label's ``holders`` are the pivots whose rows hold
    that label away from their own pivot."""
    rng = random.Random(seed)
    for case in range(cases):
        field = rng.choice((QQ, GF(7)))
        arith = oracles.arith_for(field)
        columns = list(range(rng.randint(1, 9)))
        vectors = [_random_vector(rng, field, columns, 4)
                   for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 3)):
            # a combination of two drawn vectors, often inside the span
            a, b = rng.choice(vectors), rng.choice(vectors)
            ca, cb = field.of_int(rng.randint(1, 3)), field.of_int(rng.randint(-3, -1))
            combo = {}
            for v, c in ((a, ca), (b, cb)):
                for k, x in v.items():
                    y = field.add(combo.get(k, field.zero), field.mul(c, x))
                    if field.is_zero(y):
                        combo.pop(k, None)
                    else:
                        combo[k] = y
            if combo:
                vectors.append(combo)
        expected = oracles.rref(vectors, arith)
        where = f"case {case} over {field!r}: {vectors}"
        for _ in range(2):
            order = rng.sample(vectors, len(vectors))
            space = RowSpace(field, lambda k: -k)
            read = []
            for v in order:
                before = dict(v)
                dim = space.dim
                piv = space.insert(v)
                assert v == before, f"insert changed its argument, {where}"
                assert (piv is not None) == (space.dim == dim + 1), where
                held = {}
                for p, row in space.row.items():
                    for label in row:
                        if label != p:
                            held.setdefault(label, set()).add(p)
                assert {k: h for k, h in space.holders.items() if h} == held, (
                    f"holders {space.holders} != {held}, {where}")
                read += [(row, dict(row)) for row in space.rows]
            assert space.pivots == [min(r) for r in expected], where
            assert space.rows == expected, f"{space.rows} != {expected}, {where}"
            assert all(row == copy for row, copy in read), (
                f"a row changed after it was read, {where}")
            for probe in vectors + [_random_vector(rng, field, columns, 5)
                                    for _ in range(3)]:
                before = dict(probe)
                ours = space.reduce(probe)
                assert probe == before, f"reduce changed its argument, {where}"
                assert ours == oracles.naive_reduce(space, probe), (
                    f"residue of {probe}: {ours}, {where}")
                assert space.contains(probe) == oracles.span_contains(
                    expected, probe, arith), where
    return cases
