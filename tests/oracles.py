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
  package's own row-space code.

Conversion to and from sympy goes through rendered strings, which also
exercises both parsers.

``naive_normal_form`` is the textbook division loop the package used before
its heap division on packed monomials: it works on exponent tuples and
``Polynomial`` arithmetic only, so remainders can be compared term for term.
``naive_buchberger`` is likewise the Buchberger loop the package ran before
its pair bookkeeping moved onto packed monomials, keyed by exponent tuples
and the order's ``key``.  ``eliminate_presentation`` is the way the package
presented a subalgebra before presentations were read off its
``MembershipSieve``: a hand-built tagged ring and ``groebner.eliminate``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import sympy
from sympy.polys.orderings import ProductOrder, grevlex

from quotrel import groebner
from quotrel.poly import (
    GREVLEX,
    BudgetExceededError,
    Monomial,
    PolyRing,
    Polynomial,
    fresh_names,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


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


def naive_buchberger(gens, budget):
    """The reduced Groebner basis of the nonzero ``gens`` and the budget its
    computation needs, ``max(S-pair reductions, basis size)``.

    Normal selection on ``(key(lcm), i, j)`` heap entries with the product
    and chain criteria, on exponent tuples.  S-polynomials come from
    ``groebner.s_polynomial``, looked up at each call so that a test can
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
            heapq.heappush(heap, (key(lcm), i, new, lcm))
            pairs.add((i, new))

    for j in range(len(G)):
        add_pairs(j)
    processed = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
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
        r = naive_normal_form(groebner.s_polynomial(G[i], G[j]), G)
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


# ---------------------------------------------------------------------------
# independent grevlex key


def grevlex_key(m: tuple) -> tuple:
    """Graded reverse lexicographic sort key, written out from the book
    definition: higher total degree wins; ties break by the *smallest*
    trailing exponent vector being *larger*."""
    return (sum(m), tuple(-e for e in reversed(m)))


# ---------------------------------------------------------------------------
# reference presentation


def eliminate_presentation(gens, names=None, budget=None):
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
    kern = groebner.eliminate(T, drop=list(range(base.nvars)), budget=budget)
    out_ring = PolyRing(base.field, tuple(w_names), GREVLEX)
    return out_ring, [out_ring.convert(g) for g in kern]
