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
    relation_from_group_action,
    relation_from_map,
    verify_relation,
)
from quotrel import groebner
from quotrel.fields import GF, QQ
from quotrel.groebner import groebner_basis, ideal_intersect, ideal_member, normal_form
from quotrel.invariants import GroupAction, invariant_basis
from quotrel.poly import GREVLEX, LEX, BlockOrder, BudgetExceededError, PolyRing, embed
from quotrel.quotient import coequalizer_kernel_basis, present_subalgebra
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
        data = CocycleData(ambient, map_polys, None)
        # g(x) - g(y): the two variables go to positions 0, 1, then 2, 3
        coboundary = embed(g, data.doubled, [0, 1]) - embed(g, data.doubled, [2, 3])
        data = CocycleData(ambient, map_polys, coboundary)

        assert check_cocycle(data), (
            f"coboundary of {pr.render(g)} failed the cocycle condition"
        )
        # V inside W, generator by generator: each monomial difference
        # spanning V must have defect in J(x,y) + J(y,z)
        sum_gb = data.sum_basis()
        for m in pr.monomials_of_degree(d):
            mono = pr.monomial(m)
            dif = embed(mono, data.doubled, [0, 1]) - embed(mono, data.doubled, [2, 3])
            assert ideal_member(data.defect(dif), sum_gb), (
                f"coboundary generator for {pr.render(mono)} escaped W"
            )
        report = effectivity_test(data)
        assert report.verdict == "effective"
        assert report.dim_v <= report.dim_w
        assert all(field.is_zero(c) for c in report.class_coords)
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


def _recorded(run):
    """``run()``'s outcome, its result or its ``BudgetExceededError``
    message, plus the ``(f, g)`` pairs it passed to
    ``groebner.s_polynomial``, in order."""
    calls = []
    original = groebner.s_polynomial

    def recording(f, g):
        calls.append((f, g))
        return original(f, g)

    groebner.s_polynomial = recording
    try:
        return run(), calls
    except BudgetExceededError as exc:
        return str(exc), calls
    finally:
        groebner.s_polynomial = original


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


def buchberger_oracle_suite(cases=1000, seed=20261020):
    """``groebner_basis`` builds the same S-polynomials, in the same order,
    as ``oracles.naive_buchberger``, returns the same reduced basis term for
    term, and memoizes the budget the oracle says it needed; under a budget
    too small, both fail with the same message after the same
    S-polynomials."""
    rng = random.Random(seed)
    fields = FIELDS + (GF(32003),)
    names = ("x", "y", "z", "u", "v")
    for _ in range(cases):
        field = rng.choice(fields)
        # lex bases grow fastest, so lex gets the fewest variables; None
        # stands for a block order
        order, most = rng.choice(((LEX, 3), (GREVLEX, 4), (None, 5)))
        nvars = rng.randint(2, most)
        order = order or BlockOrder(rng.randint(1, nvars - 1))
        ring = PolyRing(field, names[:nvars], order)
        gens = _buchberger_input(rng, ring)
        budget = rng.choice((300, 300, 300, rng.randint(1, 8)))
        theirs, their_calls = _recorded(lambda: oracles.naive_buchberger(gens, budget))
        ours, our_calls = _recorded(lambda: groebner_basis(list(gens), budget))
        where = f"over {field!r} ({order!r}) on {[ring.render(g) for g in gens]}"
        assert our_calls == their_calls, f"S-pair sequence differs {where}"
        if isinstance(theirs, str) or isinstance(ours, str):
            assert ours == theirs, f"budget outcome differs {where}: {ours} != {theirs}"
            continue
        basis, needed = theirs
        assert [list(g.terms.items()) for g in ours] == [
            list(g.terms.items()) for g in basis
        ], f"basis differs {where}"
        assert ring._bases[gens][0] == needed, f"needed budget differs {where}"
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
    relation passes all four axioms."""
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
        report = verify_relation(rel, "scheme")
        if not report.verdicts["transitivity"]:
            # the composed correspondence may pick up embedded points where
            # orbits meet, so transitivity can hold for the points only
            report = verify_relation(rel, "set")
        assert report.all_pass, f"axiom failure for {what}: " + report.render()
        kernel_dims = coequalizer_kernel_basis(rel, degree).dims()
        invariant_dims = list(accumulate(
            len(layer) for layer in invariant_basis(action, degree)))
        assert kernel_dims == invariant_dims, (
            f"{what}: kernel dims {kernel_dims} != invariant dims {invariant_dims}"
        )
        if not field.characteristic or len(group) % field.characteristic:
            molien = list(accumulate(_molien_series(group, degree)))
            assert invariant_dims == molien, (
                f"{what}: invariant dims {invariant_dims} != Molien {molien}"
            )
    return cases


def _random_element(rng, ambient):
    """A random element with a nonzero part of degree at most 2 on every
    component."""
    return ambient.element([
        _random_poly(rng, ambient.poly_ring(c), max_terms=2, max_degree=2)
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
