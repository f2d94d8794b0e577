"""Independent oracles the test suite checks the library against.

Two kinds of cross-checks live here, deliberately sharing no code with the
package:

* ``sympy_reduced_groebner`` asks sympy for the reduced Groebner basis of
  the same input (sympy has its own Buchberger/F5 machinery, its own
  orderings, and its own coefficient arithmetic), so agreement is a real
  two-implementation vote.

* A tiny exact linear-algebra kit (``rref``, ``span_contains``,
  ``span_dim``) over ``Fraction`` or integers mod p.  Truncated objects in
  the package (kernel bases, intersections, pinched algebras) are by
  definition spans of vectors indexed by monomials, so a from-scratch RREF
  verifies their membership claims and dimensions without touching the
  package's own row-space code.  ``naive_reduce`` is the reduction loop a
  ``RowSpace`` ran while it kept its pivots and rows as two parallel lists.

Conversion to and from sympy goes through rendered strings, which also
exercises both parsers.

``naive_normal_form`` is the textbook division loop the package used before
its heap division on packed monomials: it works on exponent tuples and
``Polynomial`` arithmetic only, so remainders can be compared term for term.
``naive_buchberger`` is likewise the Buchberger loop the package ran before
its pair bookkeeping moved onto packed monomials, keyed by exponent tuples
and the order's ``key``, with ``naive_s_polynomial``, the S-polynomial
of two ``Polynomial``s the package formed before it formed them on packed
divisor forms only, and ``naive_reduce_basis`` the inter-reduction it
ran before it divided on Buchberger's packed list: one ``normal_form`` per
element, by the other minimal elements.  ``monomial_div`` and
``monomial_lcm`` on exponent tuples serve these loops and their tests; the
package no longer calls them.  ``eliminate_presentation`` is the way the
package presented a subalgebra before presentations were read off its
``MembershipSieve``: a hand-built tagged ring and ``groebner.eliminate``.  ``naive_substitute`` is the substitution loop
``Polynomial.substitute`` ran before it became a memoized
``MonomialImages`` table, and ``naive_invariant_basis`` the fixed-point
system over every nontrivial group element, before it was solved on a
generating set only.  ``naive_frobenius_exponent`` is the Frobenius search
before it carried normal forms from one exponent to the next: it queries
each ``b ** q`` from scratch.  ``naive_verify_pushout`` is the push-out
check that rebuilt its kernel and ideal row spaces at every degree.
``naive_tokenize`` is the script lexer's character loop from before the
lexer became one table of regular expressions.  ``naive_effectivity_test``
is the effectivity test that solved the cocycle condition over every
monomial of the candidate's degree and normal-formed each kernel vector
modulo ``J``, with full bases where the package truncates them at that
degree.  ``naive_relation_kernel_basis`` is the relation kernel that
divided ``f(x) - f(y)`` from scratch for every column, before its
condition was read off one normal-form table, and
``naive_product_closure`` the span-of-products loop that formed every
product, also those past the degree bound, and ``naive_minimal_generators``
the generator search that rebuilt that span from 1 at every degree and
after every new generator.  ``naive_group_check`` is the group check that
filled the full multiplication table of a list of maps, every product of
two of them, and walked it for a generating set, before the generators'
closure alone was checked.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import sympy
from sympy.polys.orderings import ProductOrder, grevlex

from quotrel import groebner
from quotrel.effectivity import EffectivityReport
from quotrel.eqrel import copy_difference
from quotrel.linalg import RowSpace, condition_rows, nullspace, significance
from quotrel.pinch import PushoutReport, _flat_space, _ideal_multiples, _product_span
from quotrel.poly import (
    GREVLEX,
    BudgetExceededError,
    Monomial,
    PolyRing,
    Polynomial,
    fresh_names,
    monomial_divides,
    monomial_mul,
)
from quotrel.quotient import TruncatedSubalgebra, element_to_vector, vector_to_element
from quotrel.ring import RingMap
from quotrel.script import ScriptError


# ---------------------------------------------------------------------------
# sympy bridge


def _to_sympy(f, symbols):
    return sympy.sympify(
        f.ring.render(f).replace("^", "**"),
        locals={s.name: s for s in symbols},
    )


def sympy_block_order(front):
    """sympy's counterpart of ``BlockOrder(front)``: grevlex on the first
    ``front`` variables, ties broken by grevlex on the rest."""
    return ProductOrder(
        (grevlex, lambda m: m[:front]),
        (grevlex, lambda m: m[front:]),
    )


def sympy_reduced_groebner(polys, order_name, method="buchberger"):
    """Reduced Groebner basis via sympy, returned as a set of rendered
    strings in the package's own notation (monic, ``**`` mapped to ``^``).

    ``polys`` must be nonzero polynomials in one :class:`PolyRing`; the
    characteristic is read off the ring's field.  ``order_name`` is a sympy
    order name or a sympy order such as :func:`sympy_block_order`;
    ``method`` is sympy's algorithm, ``"buchberger"`` or ``"f5b"``.
    """
    ring = polys[0].ring
    symbols = sympy.symbols(list(ring.names))
    if isinstance(symbols, sympy.Symbol):
        symbols = [symbols]
    exprs = [_to_sympy(f, symbols) for f in polys]
    p = ring.field.characteristic
    kwargs = {"order": order_name, "method": method}
    if p:
        kwargs["modulus"] = p
        kwargs["symmetric"] = False
    basis = sympy.groebner(exprs, *symbols, **kwargs)
    out = set()
    for e in basis.exprs:
        poly = sympy.Poly(e, *symbols, **({"modulus": p, "symmetric": False} if p else {}))
        out.add(_render_sympy(poly, ring))
    return out


def sympy_ideal_intersection(gens_i, gens_j):
    """Reduced basis of the intersection of two ideals via sympy, in the
    package's notation: a lex basis of t*I + (1 - t)*J with t first, its
    elements free of t, reduced again in the ring's own order.  The ring's
    order must be lex or grevlex."""
    ring = gens_i[0].ring
    symbols = sympy.symbols(list(ring.names))
    if isinstance(symbols, sympy.Symbol):
        symbols = [symbols]
    t = sympy.Dummy("t")
    p = ring.field.characteristic
    mod = {"modulus": p, "symmetric": False} if p else {}
    lifted = [t * _to_sympy(f, symbols) for f in gens_i]
    lifted += [(1 - t) * _to_sympy(f, symbols) for f in gens_j]
    elim = sympy.groebner(lifted, t, *symbols, order="lex", **mod)
    kept = [e for e in elim.exprs if not e.has(t)]
    if not kept:
        return set()
    basis = sympy.groebner(kept, *symbols, order=ring.order.name, **mod)
    return {_render_sympy(sympy.Poly(e, *symbols, **mod), ring) for e in basis.exprs}


def _render_sympy(poly, ring) -> str:
    """Render a sympy Poly through the package ring for a comparable string.

    Made monic in the package's own order, since "reduced basis" fixes
    normalization only relative to the active monomial order.
    """
    acc = ring.zero
    for expts, coeff in poly.terms():
        c = coeff_to_field(coeff, ring.field)
        acc = acc + ring.monomial(tuple(int(e) for e in expts), c)
    return ring.render(acc.monic())


def coeff_to_field(coeff, field):
    if field.characteristic:
        return field.of_int(int(coeff))
    r = sympy.Rational(coeff)
    return field.of_fraction(int(r.p), int(r.q))


# ---------------------------------------------------------------------------
# exact linear algebra from scratch


class Arith:
    """Fraction arithmetic (p is None) or integers mod a prime p."""

    def __init__(self, p=None):
        self.p = p

    def of(self, c):
        if self.p is None:
            return Fraction(c)
        return int(c) % self.p

    def is_zero(self, a) -> bool:
        return a == 0 if self.p is None else a % self.p == 0

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p


def arith_for(field) -> Arith:
    return Arith(field.characteristic or None)


def rref(rows: list[dict], arith: Arith) -> list[dict]:
    """Reduced row echelon form of dict-vectors (label -> coefficient).

    Labels are compared as plain tuples; the least label in a row is its
    pivot.  Returns canonical monic rows sorted by pivot.
    """
    basis: list[dict] = []
    for row in rows:
        row = {k: arith.of(v) for k, v in row.items() if not arith.is_zero(v)}
        row = _reduce_row(row, basis, arith)
        if not row:
            continue
        piv = min(row)
        inv = arith.inv(row[piv])
        row = {k: arith.mul(v, inv) for k, v in row.items()}
        basis = [_eliminate(b, row, piv, arith) for b in basis]
        basis.append(row)
        basis.sort(key=min)
    return basis


def _reduce_row(row: dict, basis: list[dict], arith: Arith) -> dict:
    for b in basis:
        piv = min(b)
        if piv in row:
            row = _eliminate(row, b, piv, arith)
    return row


def _eliminate(row: dict, b: dict, piv, arith: Arith) -> dict:
    c = row.get(piv)
    if c is None or arith.is_zero(c):
        return row
    out = dict(row)
    for k, v in b.items():
        w = arith.sub(out.get(k, arith.of(0)), arith.mul(c, v))
        if arith.is_zero(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def span_contains(basis: list[dict], v: dict, arith: Arith) -> bool:
    v = {k: arith.of(c) for k, c in v.items() if not arith.is_zero(c)}
    return not _reduce_row(v, basis, arith)


def span_dim(rows: list[dict], arith: Arith) -> int:
    return len(rref(rows, arith))


def naive_reduce(space: RowSpace, v: dict) -> dict:
    """``space.reduce(v)`` as the per-pivot loop it was before a row space
    held its rows by pivot: every pivot of the space, most significant
    first, is probed in the vector, and each hit subtracts that pivot's row
    from a fresh copy."""
    field = space.field
    out = dict(v)
    for piv, row in zip(space.pivots, space.rows):
        c = out.get(piv)
        if c is None:
            continue
        out = dict(out)
        for k, x in row.items():
            y = field.sub(out.get(k, field.zero), field.mul(c, x))
            if field.is_zero(y):
                out.pop(k, None)
            else:
                out[k] = y
    return out


def poly_vec(f) -> dict:
    """A plain dict copy of a polynomial's terms, monomial tuple -> coeff."""
    return dict(f.terms)


def element_vec(el) -> dict:
    """Vector of a product-ring element, labels (component, monomial)."""
    out = {}
    for c, part in enumerate(el.parts):
        for m, coeff in part.terms.items():
            out[(c, m)] = coeff
    return out


# ---------------------------------------------------------------------------
# linear ideal-membership certificate (positive direction only)


def linear_member(f, gens, cap: int) -> bool:
    """Whether ``f`` is a combination sum(h_i g_i) with every product of
    degree at most ``cap``.  A True answer certifies ideal membership; a
    False answer only says the cap was too small for a linear certificate.
    """
    ring = f.ring
    arith = arith_for(ring.field)
    rows = []
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        room = cap - g.total_degree()
        if room < 0:
            continue
        for m in ring.monomials_up_to_degree(room):
            prod = g.mul_monomial(m, ring.field.one)
            rows.append({k: v for k, v in prod.terms.items()})
    basis = rref(rows, arith)
    return span_contains(basis, poly_vec(f), arith)


# ---------------------------------------------------------------------------
# reference division


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of a/b (the caller knows that b divides a)."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def naive_normal_form(f, basis):
    """Remainder of ``f`` on division by ``basis`` (first divisor wins).

    Against a Groebner basis this is the canonical normal form; against an
    arbitrary list it is still deterministic but order-dependent.
    """
    ring = f.ring
    field = ring.field
    key = ring.order.key
    divisors = [
        (g.leading_monomial(), g.leading_coeff(), g) for g in basis if not g.is_zero()
    ]
    p = f
    remainder: dict[Monomial, object] = {}
    while p.terms:
        lm = max(p.terms, key=key)
        lc = p.terms[lm]
        for gm, gc, g in divisors:
            if monomial_divides(gm, lm):
                factor = field.div(lc, gc)
                p = p - g.mul_monomial(monomial_div(lm, gm), factor)
                break
        else:
            remainder[lm] = lc
            p = Polynomial(ring, {m: c for m, c in p.terms.items() if m != lm})
    return Polynomial(ring, remainder)


# ---------------------------------------------------------------------------
# reference Buchberger


def naive_s_polynomial(f, g):
    """The S-polynomial ``(L / lt(f)) f - (L / lt(g)) g`` of two nonzero
    polynomials of one ring, ``L`` the lcm of their leading monomials."""
    fm, gm = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(fm, gm)
    field = f.ring.field
    fc, gc = f.leading_coeff(), g.leading_coeff()
    a = f.mul_monomial(monomial_div(lcm, fm), fc if fc == 1 else field.inv(fc))
    b = g.mul_monomial(monomial_div(lcm, gm), gc if gc == 1 else field.inv(gc))
    return a - b


def naive_buchberger(gens, budget):
    """The reduced Groebner basis of the nonzero ``gens`` and the budget its
    computation needs, ``max(S-pair reductions, basis size)``.

    Degree-first normal selection on ``(sum(lcm), key(lcm), i, j)`` heap
    entries: of the pending pairs, the one whose lcm has the least total
    degree, then the least lcm in the ring's order.  Product and chain
    criteria on exponent tuples.  S-polynomials come from
    :func:`naive_s_polynomial`, looked up at each call so that a test can
    record them; remainders come from :func:`naive_normal_form`.
    """
    ring = gens[0].ring
    key = ring.order.key
    G = sorted(
        (g.monic() for g in gens if not g.is_zero()),
        key=lambda g: key(g.leading_monomial()),
    )
    if not G:
        return [], 0
    lms = [g.leading_monomial() for g in G]
    heap: list[tuple] = []
    pairs: set[tuple[int, int]] = set()

    def add_pairs(new: int):
        for i in range(new):
            lcm = monomial_lcm(lms[i], lms[new])
            heapq.heappush(heap, (sum(lcm), key(lcm), i, new, lcm))
            pairs.add((i, new))

    for j in range(len(G)):
        add_pairs(j)
    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pairs.discard((i, j))
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        skip = False
        for k in range(len(G)):
            if k == i or k == j or not monomial_divides(lms[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceededError(
                f"Groebner computation exceeded budget: {processed} S-pair reductions"
            )
        r = naive_normal_form(naive_s_polynomial(G[i], G[j]), G)
        if r.is_zero():
            continue
        G.append(r.monic())
        lms.append(r.leading_monomial())
        if len(G) > budget:
            raise BudgetExceededError(
                f"Groebner computation exceeded budget: basis grew past {budget}"
            )
        add_pairs(len(G) - 1)
    # minimalize, inter-reduce tails, sort by leading monomial
    minimal = []
    lms = [g.leading_monomial() for g in G]
    for i, g in enumerate(G):
        if any(
            j != i
            and monomial_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(G))
        ):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        r = naive_normal_form(g, minimal[:i] + minimal[i + 1:])
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: key(g.leading_monomial()))
    return reduced, max(processed, len(G))


def naive_reduce_basis(G):
    """The reduced basis from a monic Groebner basis ``G``, as the package
    built it before inter-reduction ran on Buchberger's packed divisor list:
    drop each element whose leading monomial another one divides (of equal
    ones, the first is kept), divide each kept element by the other kept
    ones, one plain ``groebner.normal_form`` each, and sort by leading
    monomial."""
    key = G[0].ring.order.key
    lms = [g.leading_monomial() for g in G]
    minimal = [
        g for i, g in enumerate(G)
        if not any(
            j != i and monomial_divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
            for j in range(len(G))
        )
    ]
    reduced = [
        groebner.normal_form(g, minimal[:i] + minimal[i + 1:]) for i, g in enumerate(minimal)
    ]
    return sorted(reduced, key=lambda g: key(g.leading_monomial()))


# ---------------------------------------------------------------------------
# independent grevlex key


def grevlex_key(m: tuple) -> tuple:
    """Graded reverse lexicographic sort key, written out from the book
    definition: higher total degree wins; ties break by the *smallest*
    trailing exponent vector being *larger*."""
    return (sum(m), tuple(-e for e in reversed(m)))


# ---------------------------------------------------------------------------
# reference presentation


def eliminate_presentation(gens, names=None):
    """The ring on one variable per generator (``w1``, ``w2``, … unless
    ``names`` provides others, freshened against the flat model's names) and
    the reduced basis of the relations among the ring elements ``gens``.

    A grevlex ring on the flat model's variables followed by the tags, and
    ``groebner.eliminate`` of the model's relations plus ``wj - gens[j]``.
    """
    model = gens[0].ring.model()
    base = model.poly_ring
    if names is None:
        names = [f"w{j + 1}" for j in range(len(gens))]
    w_names = fresh_names(names, set(base.names))
    work = PolyRing(base.field, tuple(base.names) + tuple(w_names), GREVLEX)
    T = [work.convert(r) for r in model.relations]
    for j, g in enumerate(gens):
        T.append(work.var(base.nvars + j) - work.convert(model.to_poly(g)))
    kern = groebner.eliminate(T, drop=list(range(base.nvars)))
    out_ring = PolyRing(base.field, tuple(w_names), GREVLEX)
    return out_ring, [out_ring.convert(g) for g in kern]


def naive_frobenius_exponent(sub_gens, alg_gens, r_max):
    """``(r, [(b, certificate), ...])`` for the least ``r <= r_max`` at which
    every ``b ** p^r`` of ``alg_gens`` passes ``query`` on the flat model's
    sieve of ``sub_gens``, or ``None``.  Each power is multiplied out in the
    ambient ring and divided from scratch."""
    ring = alg_gens[0].ring
    p = ring.field.characteristic
    model = ring.model()
    sieve = model.sieve(sub_gens)
    for r in range(r_max + 1):
        certs = []
        for b in alg_gens:
            ok, cert = sieve.query(model.to_poly(b ** p ** r))
            if not ok:
                break
            certs.append((b, cert))
        else:
            return r, certs
    return None


# ---------------------------------------------------------------------------
# reference substitution and invariants


def naive_substitute(f, target, images):
    """Evaluate ``f`` at ``images`` inside ``target``: each term's powers of
    the images multiplied out, the pieces summed one by one."""
    if len(images) != f.ring.nvars:
        raise ValueError("one image per variable required")
    powers: list[dict[int, Polynomial]] = [dict() for _ in range(f.ring.nvars)]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = images[i] ** e
        return cache[e]

    result = target.zero
    for m, c in f.terms.items():
        piece = target.constant(c)
        for i, e in enumerate(m):
            if e:
                piece = piece * power(i, e)
        result = result + piece
    return result


def naive_group_check(ring, maps):
    """``(failing, generators)`` for a list of linear maps of the free ring
    ``ring``, from the table of every composition ``g * h``: ``failing``
    lists the message of each group axiom that fails, and ``generators``
    is, when none does, the indices that walking the list in order the maps
    before them do not generate (else ``None``)."""
    def key(g):
        return tuple(g.assignments[0][1])

    index = {}
    for i, g in enumerate(maps):
        index.setdefault(key(g), i)
    ident = index.get(key(RingMap.identity(ring)))
    table = [[index.get(key(g.compose(h))) for h in maps] for g in maps]
    failing = []
    if len(index) < len(maps):
        failing.append("duplicate group element in action")
    if ident is None:
        failing.append("action does not contain the identity")
    if any(None in row for row in table):
        failing.append("action is not closed under composition")
    if ident is None or any(ident not in row for row in table):
        failing.append("a group element has no inverse in the list")
    if failing:
        return failing, None
    kept, generated = [], {ident}
    for i in range(len(maps)):
        if i in generated:
            continue
        kept.append(i)
        # the subgroup generated so far: close under the kept maps
        frontier = list(generated)
        while frontier:
            x = frontier.pop()
            for k in kept:
                y = table[x][k]
                if y not in generated:
                    generated.add(y)
                    frontier.append(y)
    return failing, kept


def naive_invariant_basis(action, d):
    """``invariant_basis`` from the fixed-point system ``g(f) = f`` of every
    nontrivial element of the group, not of a generating set."""
    pr = action.ring.poly_ring(0)
    out = [[pr.one]]
    nontrivial = [g for g in action.maps if g != RingMap.identity(action.ring)]
    by_degree = [[] for _ in range(d + 1)]
    for m in pr.monomials_up_to_degree(d):
        by_degree[sum(m)].append(m)
    for e in range(1, d + 1):
        columns = by_degree[e]
        rows = []
        for g in nontrivial:
            rows += condition_rows(
                (m, (g.apply_poly(pr.monomial(m)) - pr.monomial(m)).terms)
                for m in columns
            )
        basis = nullspace(rows, columns[::-1], pr.field)[::-1]
        out.append([Polynomial(pr, v) for v in basis])
    return out


def naive_verify_pushout(inp, out, d):
    """``verify_pushout`` with loop searches and, in check (c), a kernel
    row space and an ideal row space rebuilt from scratch at every degree."""
    model, field = inp.model, inp.ring.field
    P = model.poly_ring
    checks = []

    gen_sieve = inp.sieve(out.generators)
    gen_polys = gen_sieve.gens
    multiples = _ideal_multiples(inp, d)
    ok_a, wit_a = True, None
    for c, m, h, p in multiples:
        if not gen_sieve.contains(p):
            ok_a = False
            wit_a = inp.ring.embed(c, inp.ring.poly_ring(c).monomial(m)) * h
            break
    checks.append(("ideal multiples land in the glued algebra", ok_a, wit_a))

    sieve_s = inp.sieve(inp.s_lifts, locus=True)
    sieve_g = inp.sieve(out.generators, locus=True)
    ok_b, wit_b = True, None
    for g, gp in zip(out.generators, gen_polys):
        if not sieve_s.contains(gp):
            ok_b, wit_b = False, g
            break
    if ok_b:
        for s, sp in zip(inp.s_lifts, sieve_s.gens):
            if not sieve_g.contains(sp):
                ok_b, wit_b = False, s
                break
    checks.append(("residues generate the target subalgebra", ok_b, wit_b))

    space, _ = _product_span(
        inp.flat, [inp.flat.element([gp]) for gp in gen_polys], d)
    residues = [inp.residue.nf(0, Polynomial(P, dict(row))).terms
                for row in space.rows]
    ok_c, wit_c = True, None
    for e in range(d + 1):
        start = next((i for i, piv in enumerate(space.pivots) if sum(piv) <= e),
                     len(space.pivots))
        rows = space.rows[start:]
        conds = condition_rows(enumerate(residues[start:]))
        sols = nullspace(conds, list(range(len(rows)))[::-1], field)[::-1]
        kernel = _flat_space(inp.flat)
        kernel_polys = []
        for v in sols:
            p = P.zero
            for j, coeff in v.items():
                p = p + Polynomial(P, dict(rows[j])).scale(coeff)
            if p.is_zero():
                continue
            if kernel.insert(dict(p.terms)) is not None:
                kernel_polys.append(p)
        ideal_space = _flat_space(inp.flat)
        ideal_polys = []
        for _, _, _, p in multiples:
            if p.total_degree() <= e:
                if ideal_space.insert(dict(p.terms)) is not None:
                    ideal_polys.append(p)
        for p in kernel_polys:
            if not ideal_space.contains(dict(p.terms)):
                ok_c, wit_c = False, model.to_element(p)
                break
        if ok_c:
            for p in ideal_polys:
                if not kernel.contains(dict(p.terms)):
                    ok_c, wit_c = False, model.to_element(p)
                    break
        if not ok_c:
            break
    checks.append(
        ("kernel of the gluing equals the ideal in each degree", ok_c, wit_c)
    )
    return PushoutReport(checks, d)


def naive_tokenize(text: str) -> list[tuple]:
    """The script's tokens as ``(kind, text, line, col, pos)`` tuples, read
    character by character."""
    out = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            # trailing hyphens belong to operators, not names
            while text[j - 1] == "-":
                j -= 1
            out.append(("name", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two == "->":
            out.append(("punct", two, line, col, i))
            i += 2
            col += 2
            continue
        if ch in "()[]=,;:|/*+-^":
            out.append(("punct", ch, line, col, i))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)
    return out


def naive_effectivity_test(data):
    """``effectivity_test`` with the kernel of the linearized cocycle
    condition taken over every monomial of degree ``d``, each kernel vector
    then normal-formed modulo ``J`` before it joins ``W``, and with full
    reduced bases of ``J`` and of ``J(x,y) + J(y,z)``, not the truncated
    ones of ``CocycleData``."""
    rel = data.relation
    D = rel.doubled
    field = D.field
    d = data.degree
    j_gb = groebner.groebner_basis(rel.gens)
    sum_gb = groebner.groebner_basis([rel.to_tripled(g, *copies) for copies in ((0, 1), (1, 2))
                                      for g in rel.gens])
    if not groebner.normal_form(rel.defect(data.cocycle), sum_gb).is_zero():
        raise ValueError("the candidate does not satisfy the cocycle condition")
    columns = D.monomials_of_degree(d)
    key = significance(columns)

    def nf_vec(p):
        return dict(groebner.normal_form(p, j_gb).terms)

    V = RowSpace(field, key)
    pr = rel.ambient.poly_ring(0)
    for m in pr.monomials_of_degree(d):
        V.insert(nf_vec(copy_difference(pr.monomial(m), D)))
    rows = condition_rows(
        (m, groebner.normal_form(rel.defect(D.monomial(m)), sum_gb).terms)
        for m in columns
    )
    W = RowSpace(field, key)
    for sol in nullspace(rows, columns, field):
        W.insert(nf_vec(Polynomial(D, sol)))

    v_pivots = set(V.pivots)
    outside = [i for i, piv in enumerate(W.pivots) if piv not in v_pivots]
    residue = V.reduce(nf_vec(data.cocycle))
    assert W.contains(residue), "cocycle class escaped W"
    coords = [residue.get(W.pivots[i], field.zero) for i in outside]
    verdict = "noneffective" if residue else "effective"
    return EffectivityReport(field, d, V.dim, W.dim, verdict, coords,
                             [Polynomial(D, dict(W.rows[i])) for i in outside])


# ---------------------------------------------------------------------------
# reference relation kernels and product spans


def naive_relation_kernel_basis(rel, d):
    """``coequalizer_kernel_basis`` of a relation with its condition divided
    per call: the normal form of ``f(x) - f(y)``, formed as a polynomial in
    the doubled ring, modulo the relation's reduced basis."""
    gb = rel.gb()
    return TruncatedSubalgebra(rel.ambient, d, lambda el: groebner.normal_form(
        copy_difference(el.parts[0], rel.doubled), gb).terms)


def naive_product_closure(gens, seeds, limit, insert):
    """Breadth-first span of the products of ``gens`` up to degree
    ``limit``: every kept element, from the seeds that grow the span on,
    times every generator, keeping the nonzero products of degree at most
    ``limit`` that grow it."""
    kept = [s for s in seeds if insert(s)]
    i = 0
    while i < len(kept):
        s = kept[i]
        i += 1
        for g in gens:
            p = s * g
            if not p.is_zero() and p.degree() <= limit and insert(p):
                kept.append(p)
    return kept


def naive_minimal_generators(trunc):
    """``TruncatedSubalgebra.minimal_generators`` rebuilding the span of the
    products of the generators so far from 1, by ``naive_product_closure``,
    at every degree that has basis elements and again after each new
    generator."""
    gens = []
    for e in range(1, trunc.d + 1):
        alg = None
        for f in trunc.layers[e]:
            if alg is None:
                alg = RowSpace(trunc.ring.field, trunc.key)
                naive_product_closure(
                    [g for g, _ in gens], [trunc.ring.one], e,
                    lambda p: alg.insert(element_to_vector(p)) is not None)
            piv = alg.insert(element_to_vector(f))
            if piv is None:
                continue
            gen = vector_to_element(trunc.ring, alg.row[piv])
            gens.append((gen, e))
            alg = None
    return gens
