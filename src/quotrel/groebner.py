"""Buchberger's algorithm and the ideal-theoretic toolkit built on it.

Everything downstream (membership sieves, elimination, intersections, kernel
computations) funnels through :func:`groebner_basis`, which returns the unique
reduced basis for the ring's monomial order, sorted by increasing leading
monomial.  All routines are deterministic: same input, same output, bit for
bit.  Subalgebra membership, residues and presentations are all read off
one tagged ring, :class:`MembershipSieve`.

Division (:func:`normal_form`) runs on monomials packed by the ring (see
:class:`quotrel.poly.MonomialPacking`): packed ints compare as the order
does, multiply by one addition and test divisibility with one mask.  The
dividend is a dict keyed by packed monomial plus a max-heap of its keys
(Monagan & Pearce, CASC 2007); each step pops the largest live term and
subtracts a multiple of the *first* basis element whose leading monomial
divides it, so remainders are those of the textbook division algorithm,
term for term.  Coefficients accumulate with plain ``+`` and ``*`` and take
their canonical form once, when their term is popped (``% p`` over FF(p);
over QQ a ``Fraction`` with denominator 1 becomes its numerator), as
Monagan & Pearce do.  Each basis polynomial is packed once per field width
and keeps that form in a slot, and a division packs its divisor list once.
Divisions outside Buchberger scan from the first divisor.

One rule, ``_width(degree)``, picks the field width: the least width from
``_WIDTH`` upward, doubling, whose fields hold that total degree (Monagan &
Pearce size packed exponents from degree bounds, JSC 46, 2011).
:func:`normal_form` starts at the dividend's degree, :func:`groebner_basis`
at ``_WIDTH``, and a monomial that does not fit (a huge input exponent, an
lcm, or a product grown in a lex or block reduction) runs the whole
computation again at twice the width, with the same result.  In a graded
order a division never raises the degree, so a :class:`NormalFormTable`
(many normal forms modulo one reduced basis, each monomial divided once,
from the tabled remainder of the monomial one variable down) packs once,
at the width of its degree bound.

A Buchberger run stays packed from its input to its reduced basis.  Its
elements are divisor forms (:func:`_packed_divisor`) in one list ``D``,
which :func:`_divide` divides by with a first-divisor memo, from a packed
monomial to an index ``i`` such that no element of ``D[:i]`` divides it (the
index of its first divisor, or the length ``D`` had when none did), where a
popped term resumes its scan.  Within a step (below) ``D`` only grows by
appending, so the first divisor in a prefix stays the first in every
longer list, and remainders are those of the plain scan (passing over the
divisors a signature rules out), term for term; between steps ``D`` keeps
a subsequence of its elements, and each memo index becomes the number of
kept elements below it.  :func:`s_polynomial` forms each S-polynomial from
two divisor forms and a packed common multiple of their leading monomials,
one integer addition per term.  A nonzero remainder joins ``D`` as the
divisor form of its packed terms, the first of which leads: no monic copy
is made.  Each generator is packed once, and an lcm is the sum of the
larger of two elements' packed parts per variable, so a grevlex run
unpacks only each added element's leading monomial.  The reduced basis,
the only part read off as polynomials, keeps each element's leading term
and divides its tail by the final ``D`` with the same memo: a remainder
modulo a Groebner basis is unique.  A run restarted at another width
starts a new memo.

The run is signature-based (Faugere's F5, ISSAC 2002; Gao, Volny & Wang,
Math. Comp. 85, 2016), so that S-polynomials which would reduce to zero
are dropped before any division.  It is incremental: the generators
``f_1, ..., f_m``, sorted by increasing leading monomial, are taken one at
a time, and step ``k`` extends a Groebner basis of ``(f_1, ..., f_{k-1})``
to one of ``(f_1, ..., f_k)``.  An element added in step ``k`` is ``u f_k``
plus a combination of the earlier generators, and its signature is the
monomial ``u``; signatures are compared position over term, so within a
step as packed monomials, and every element of an earlier step lies below
all of them.  A step starts from the remainder of ``f_k`` by the earlier
basis, of signature 1, and then handles candidate signatures in increasing
order, each once.  The pair of a new element ``a`` with an element ``b``
proposes the larger of ``(L / lm a) sig(a)`` and ``(L / lm b) sig(b)``,
``L`` their lcm (an earlier element's side counts as below); a pair whose
two sides are equal proposes none.  A candidate signature ``T`` is dropped

* when the pair is coprime: ``T`` is then the signature of its Koszul
  syzygy;
* when a leading monomial of the earlier basis divides ``T`` (F5's
  criterion: ``lm(g) f_k`` lies in the earlier ideal), or a signature that
  already reduced to zero in this step does;
* when its leading term only reduces singularly.  The candidate of
  signature ``T`` is the multiple ``(T / sig c) c`` of the latest element
  ``c`` whose signature divides ``T`` (the rewrite criterion in the order
  elements were added; Roune & Stillman, ISSAC 2012).  If no element
  reduces its leading monomial by a multiple of signature below ``T``, the
  basis already has an element of signature dividing ``T`` with that
  leading monomial, and the candidate adds nothing.

Otherwise the first such reducer ``b`` cancels the candidate's leading
term: that is the S-polynomial of ``c`` and ``b`` at that monomial.  It is
divided on the same heap division and memo, by regular reductions only: an
element of the step divides a term only through a multiple whose signature
is below ``T`` (earlier elements divide freely), and the memo keeps
recording first divisors, also those passed over for their signature.  A
remainder of zero makes ``T`` a syzygy signature; any other joins the basis
with signature ``T``.  After each step only the minimal elements are kept,
which is a Groebner basis of the ideal so far, and the memo's indices are
renumbered.  A signature, an lcm or a term that does not fit its fields
restarts the whole run at twice the field width, and so does a remainder
term of total degree 2^(width - 1) or more, which ``pack`` rejects.  The
guard of a first weight row of all ones (grevlex) rules that out; lex and
block orders first bound every term by the degree of the bitwise or of the
remainder's keys, and sum each term's exponents only when that bound fails.

Each :func:`groebner_basis` call reads the budget in force (``with
quotrel.poly.budget(n):``), a cap on its S-pair reductions (candidates
whose S-polynomial is built and divided; dropped ones are free) and on the
number of basis elements it holds at once.  That bounds the rest: the heap
holds at most one signature per pair of elements, and the syzygy list one
per earlier element and one per reduction to zero.  Exceeding it raises
:class:`BudgetExceededError`, a resource failure, not a mathematical
answer; callers must not treat it as "no".  Reduced bases
are memoized on the ring object, so they live as long as it does; a
memoized basis is served only to a call whose budget covers what its
computation needed, and any other call fails as on a fresh ring.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import accumulate
from operator import itemgetter, or_

from .poly import (
    BlockOrder,
    BudgetExceededError,
    GREVLEX,
    MonomialPacking,
    PackingOverflow,
    PolyRing,
    Polynomial,
    current_budget,
    fresh_names,
    monomial_divides,
    unembed,
)


# ---------------------------------------------------------------------------
# division / normal forms
# ---------------------------------------------------------------------------


# Field width, in bits, at which every packing starts.
_WIDTH = 16


def _width(degree: int) -> int:
    """The least width from ``_WIDTH`` up, doubling, holding ``degree``."""
    width = _WIDTH
    while degree >= 1 << (width - 1):
        width *= 2
    return width


def _run_packed(ring: PolyRing, degree: int, run):
    """``run(pk)`` at width ``_width(degree)``, doubled on each overflow."""
    width = _width(degree)
    while True:
        try:
            return run(ring.packing(width))
        except PackingOverflow:
            width *= 2


def normal_form(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of ``f`` on division by ``basis`` (first divisor wins),
    its terms in decreasing order and its leading monomial set.

    Against a Groebner basis this is the canonical normal form; against an
    arbitrary list it is still deterministic but order-dependent.  Every
    element of ``basis`` must lie in ``f``'s ring (``ValueError`` otherwise).
    """
    ring = f.ring
    _check_rings(ring, basis)

    def run(pk: MonomialPacking) -> Polynomial:
        divisors = [_divisor(g, pk) for g in basis if g.terms]
        return _polynomial(ring, _divide(ring, _pack_terms(f, pk), divisors, pk), pk)

    # start where the dividend fits: its overflow never repacks the divisors
    return _run_packed(ring, f.total_degree(), run)


def _check_rings(ring: PolyRing, basis: list[Polynomial]) -> None:
    for g in basis:
        if g.ring is not ring and g.ring != ring:
            raise ValueError(f"ring mismatch: {ring!r} vs {g.ring!r}")


def _pack_terms(f: Polynomial, pk: MonomialPacking) -> dict:
    return {pk.pack(m): c for m, c in f.terms.items()}


def _divisor(g: Polynomial, pk: MonomialPacking) -> tuple:
    """``g``'s :func:`_packed_divisor` form at ``pk``, cached on ``g`` for
    the last width it was packed at."""
    slot = g._packed
    if slot is None or slot[0] != pk.width:
        packed = _pack_terms(g, pk)
        lm = max(packed)
        slot = g._packed = _packed_divisor(g.ring.field, pk, lm, packed.pop(lm), packed.items())
    return slot


def _packed_divisor(field, pk: MonomialPacking, lm: int, lc, rest) -> tuple:
    """``(width, lm, tail, top)`` of the polynomial with packed leading term
    ``lc * lm`` and other packed terms ``rest``: its other terms as
    ``(packed monomial, -c / lc)`` pairs, and ``top``, the bitwise or of
    the tail's packed monomials.

    Each field of ``top`` is at least that field of every tail monomial and
    stays below its guard bit, so for a valid ``q``, ``q + top`` fitting
    its fields means every ``q + t`` does: one guard test covers a whole
    multiple of the tail, and only a failed one has to test term by term."""
    s = field.neg(field.inv(lc))
    tail = [(t, field.mul(c, s)) for t, c in rest]
    return pk.width, lm, tail, reduce(or_, map(itemgetter(0), tail), 0)


def _divide(
    ring: PolyRing, terms: dict, divisors: list[tuple], pk: MonomialPacking, memo=None, sig=None
) -> dict:
    """Heap division of the packed dividend ``terms`` (consumed) by the
    :func:`_divisor` forms ``divisors`` on monomials packed by ``pk``: the
    packed remainder, keys decreasing, coefficients canonical and nonzero.
    Raises :class:`PackingOverflow` when a monomial outgrows its fields.

    ``memo``, if given, maps a packed monomial ``k`` to an index ``i`` such
    that no element of ``divisors[:i]`` divides ``k``: the index of its
    first divisor, or the list's length when it had none.  The scan for
    ``k`` resumes there and records where it stopped.

    ``sig = (sigs, start, T)``, if given, admits only regular reductions
    of signature ``T``: ``divisors[i]`` for ``i >= start`` has the packed
    signature ``sigs[i]`` and divides ``k`` only when ``(k / lm) sigs[i]``
    is below ``T``.  The memo still records the first divisor."""
    p = ring.field.characteristic
    guard, eguard = pk.guard, pk.eguard
    n = len(divisors)
    sigs, start, T = sig or ((), n, 0)
    # one heap entry per key of ``terms``; cancelled terms stay as zeros
    heap = [-k for k in terms]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        k = -pop(heap)
        # coefficients accumulate with plain operators and take their
        # canonical form here, once per key
        c = terms.pop(k)
        if p:
            c %= p
        elif c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        if not c:
            continue
        i = 0 if memo is None else memo.get(k, 0)
        first = None
        for i in range(i, n):
            _, gm, tail, top = divisors[i]
            q = k - gm
            if not q & eguard:
                if i >= start and q + sigs[i] >= T:
                    # its multiple's signature is not below T: no reducer
                    if first is None:
                        first = i
                    continue
                if (q + top) & guard and any((q + t) & guard for t, _ in tail):
                    raise PackingOverflow(f"product outgrew {pk.width}-bit fields")
                for t, tc in tail:
                    m = q + t
                    old = terms.get(m)
                    if old is None:
                        terms[m] = c * tc
                        push(heap, -m)
                    else:
                        terms[m] = old + c * tc
                break
        else:
            i = n
            remainder[k] = c
        if memo is not None:
            memo[k] = i if first is None else first
    return remainder


def _polynomial(ring: PolyRing, terms: dict, pk: MonomialPacking) -> Polynomial:
    """The polynomial of the packed ``terms``, whose keys decrease."""
    unpack = pk.unpack
    r = Polynomial(ring, {unpack(k): c for k, c in terms.items()})
    if terms:
        # the first term leads
        r._lm = next(iter(r.terms))
    return r


class NormalFormTable:
    """Normal forms of monomials modulo one reduced Groebner basis, tabled.

    The table maps a packed monomial to its packed remainder, keys
    decreasing, coefficients canonical and nonzero.  A monomial that no
    leading monomial divides is its own normal form; any other ``k`` is
    ``x_i`` times the tabled normal form of ``k / x_i``, ``x_i`` its
    variable of highest index, divided by :func:`_divide` with the table's
    own first-divisor memo.  That is exact: ``f - nf(f)`` lies in the ideal,
    so ``nf(x_i f) = nf(x_i nf(f))``, and a remainder modulo a Groebner basis
    does not depend on the division that produced it.  The basis never
    changes, so the memo stays sound as the table grows, and each monomial
    is divided once, from the remainder one degree down (the symbolic
    preprocessing of F4, Faugere, JPAA 139, 1999, for one fixed basis).

    The order must be graded, its first weight row all ones (``ValueError``
    otherwise), so a division never raises the degree: the table packs once,
    at ``_width`` of ``degree`` and the basis's degrees, and never
    overflows.  A call holding a monomial of higher degree than the fields
    hold restarts the table before it divides anything.
    """

    def __init__(self, ring: PolyRing, basis: list[Polynomial], degree: int):
        _check_rings(ring, basis)
        rows = ring.order.weights(ring.nvars)
        if rows and not all(rows[0]):
            raise ValueError(f"a normal-form table needs a graded order, not {ring.order!r}")
        self.ring = ring
        self._basis = [g for g in basis if g.terms]
        self._start(max([degree] + [g.total_degree() for g in self._basis]))

    def _start(self, degree: int) -> None:
        self.pk = pk = self.ring.packing(_width(degree))
        self._divisors = [_divisor(g, pk) for g in self._basis]
        self._memo, self._table = {}, {}

    def combination(self, terms) -> dict:
        """``sum c * nf(m)`` over the pairs ``(m, c)`` of ``terms``,
        monomials of the table's ring with nonzero coefficients: a dict from
        monomials packed by :attr:`pk` to nonzero coefficients."""
        terms = list(terms)
        top = max((sum(m) for m, _ in terms), default=0)
        if top >= 1 << (self.pk.width - 1):
            self._start(top)
        add_scaled, pack, nf = self.ring.field.add_scaled, self.pk.pack, self._nf
        out = {}
        for m, c in terms:
            add_scaled(out, nf(pack(m)), c)
        return out

    def _nf(self, k: int) -> dict:
        """The packed remainder of the packed monomial ``k`` (do not mutate)."""
        table, memo, divisors = self._table, self._memo, self._divisors
        pk = self.pk
        n, eguard, emask = len(divisors), pk.eguard, (1 << pk.shift) - 1
        # walk down by one variable at a time to a tabled monomial or to one
        # that no leading monomial divides
        chain = []
        while True:
            r = table.get(k)
            if r is not None:
                break
            i = memo.get(k)
            if i is None:
                i = memo[k] = next((j for j, (_, gm, _, _) in enumerate(divisors)
                                    if not (k - gm) & eguard), n)
            if i == n:
                r = table[k] = {k: self.ring.field.one}
                break
            low = k & emask
            if not low:
                # a leading monomial divides 1: the unit ideal
                r = table[k] = {}
                break
            u = pk.units[(low.bit_length() - 1) // pk.width]
            chain.append((k, u))
            k -= u
        for k, u in reversed(chain):
            dividend = {t + u: c for t, c in r.items()}
            r = table[k] = _divide(self.ring, dividend, divisors, pk, memo)
        return r


def s_polynomial(f: tuple, g: tuple, pk: MonomialPacking, L: int) -> dict:
    """The S-polynomial ``(L / lt(f)) f - (L / lt(g)) g`` of two elements
    of a Buchberger run, as the packed dividend that :func:`_divide`
    consumes (Buchberger calls it once per S-pair reduction).

    ``f`` and ``g`` are divisor forms ``(width, lm, tail, top)`` at the
    packing ``pk`` (see :func:`_packed_divisor`), ``L`` is any common
    multiple of their leading monomials, packed by ``pk``, and the result is
    a dict from the packed monomials of the S-polynomial to coefficients
    that are not yet in canonical form (``-c`` over FF(p) is not reduced mod
    p, and a cancelled term may stay with coefficient 0).  It is
    ``L / lm(g)`` times the tail of ``g`` minus ``L / lm(f)`` times the tail
    of ``f``, one addition per term and one guard test per tail; a term that
    does not fit raises :class:`PackingOverflow`.
    """
    _, fm, ftail, ftop = f
    _, gm, gtail, gtop = g
    qf, qg = L - fm, L - gm
    guard = pk.guard
    for q, top, tail in ((qf, ftop, ftail), (qg, gtop, gtail)):
        if (q + top) & guard and any((q + t) & guard for t, _ in tail):
            raise PackingOverflow(f"S-polynomial outgrew {pk.width}-bit fields")
    # the tails hold -c / lc: g's enters as it is, f's negated
    terms = {qg + t: c for t, c in gtail}
    for t, c in ftail:
        m = qf + t
        old = terms.get(m)
        terms[m] = -c if old is None else old - c
    return terms


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(gens: tuple, pk: MonomialPacking, budget: int,
                degree: int | None = None) -> tuple[int, list]:
    """``(needed, basis)``: the reduced Groebner basis of the ideal of the
    nonzero ``gens``, computed on monomials packed by ``pk``, and the least
    budget that computes it, ``max(S-pair reductions, most elements held at
    once)``; with ``degree``, its elements up to that degree, as
    :func:`groebner_basis` says.

    Signature-based and incremental, position over term (Faugere, ISSAC
    2002), with the criteria of the module docstring.  Each generator is
    packed once, and they are taken in increasing order of their largest
    key, stably, so equal leading monomials keep the caller's order.  An
    element keeps its leading monomial's packed parts ``units[i] * e_i``;
    every unit is positive, so two elements' packed lcm is
    ``sum(map(max, parts_b, parts_a))``.  The basis is read off the final
    divisor list by :func:`_reduce_basis`.

    Raises :class:`PackingOverflow` when a leading monomial, a signature,
    an lcm or a term of a reduction or of the inter-reduction does not fit
    ``pk``'s fields, or when a remainder has a term of total degree
    2^(width - 1) or more.  In lex and block orders the degree of the
    bitwise or of a remainder's keys bounds every term's, and only a failed
    bound sums the terms one by one.
    """
    ring = gens[0].ring
    field = ring.field
    unpack, support, units = pk.unpack, pk.support, pk.units
    guard, eguard, limit = pk.guard, pk.eguard, pk.width - 1
    push, pop = heapq.heappush, heapq.heappop
    # a first weight row of all ones guards a valid term's degree
    rows = ring.order.weights(ring.nvars)
    sum_degree = None if not rows or all(rows[0]) else (lambda k: sum(unpack(k)))
    # a graded order's degree is the order word's top field: a packed lcm of
    # degree above ``degree`` is at least ``cap``; no valid one reaches it
    # without a degree
    cap = (1 << pk.guard.bit_length() if degree is None
           else (degree + 1) << (pk.shift + pk.width * max(len(rows) - 1, 0)))
    # the elements, in the order they were added: divisor form, packed
    # leading monomial, its packed parts per variable, its support, signature
    D, P, parts, S, sigs = [], [], [], [], []
    memo = {}
    processed = peak = 0

    def add(remainder: dict, T: int):
        nonlocal peak
        terms = iter(remainder.items())
        lm, lc = next(terms)
        d = _packed_divisor(field, pk, lm, lc, terms)
        # each exponent field of the or of all keys bounds that field of
        # every term; only a failed bound is tested term by term
        if sum_degree is not None and sum_degree(d[3] | lm) >> limit and (
                max(map(sum_degree, remainder)) >> limit):
            raise PackingOverflow(f"remainder outgrew {pk.width}-bit fields")
        D.append(d)
        parts.append([u * e for u, e in zip(units, unpack(lm))])
        P.append(lm)
        S.append(support(lm))
        sigs.append(T)
        if len(D) > budget:
            raise BudgetExceededError(
                f"Groebner computation exceeded budget: basis grew past {budget}"
            )
        peak = max(peak, len(D))

    def reducer(L: int, T: int):
        """The index of the first element whose multiple has leading
        monomial ``L`` and, if it is one of the step's, signature below
        ``T``, or ``None``; the memo is read and filled as by _divide."""
        first = None
        for i in range(memo.get(L, 0), len(D)):
            q = L - P[i]
            if not q & eguard:
                if first is None:
                    first = memo[L] = i
                if i < start or q + sigs[i] < T:
                    return i
        if first is None:
            memo[L] = len(D)
        return None

    # stable: generators of equal leading monomial keep the caller's order
    for f in sorted((_pack_terms(g, pk) for g in gens), key=max):
        # D[:start] is a minimal Groebner basis of the earlier generators
        start = len(D)
        r = _divide(ring, f, D, pk, memo)
        if not r:
            # f lies in the ideal of the earlier generators
            continue
        add(r, 0)
        # signatures of syzygies: lm(g) f lies in the earlier ideal
        syz, heap = P[:start], []
        a = start
        while a is not None:
            # the signatures the new element's pairs propose; a coprime
            # pair's is that of its Koszul syzygy
            p, m, s, sa = P[a], parts[a], S[a], sigs[a]
            for b in range(a):
                if S[b] & s:
                    # units are positive: the max of packed parts packs the
                    # max of exponents
                    L = sum(map(max, parts[b], m))
                    if L >= cap:
                        continue
                    T = L - p + sa
                    if b >= start:
                        Tb = L - P[b] + sigs[b]
                        if T == Tb:
                            continue
                        T = max(T, Tb)
                    if T & guard:
                        raise PackingOverflow(f"signature outgrew {pk.width}-bit fields")
                    push(heap, T)
            a = None
            while heap and a is None:
                T = pop(heap)
                while heap and heap[0] == T:
                    pop(heap)
                covered = False
                for z in syz:
                    if not (T - z) & eguard:
                        covered = True
                        break
                if covered:
                    continue
                # the candidate: the multiple of the latest element whose
                # signature divides T, with leading monomial L
                c = len(D) - 1
                while (T - sigs[c]) & eguard:
                    c -= 1
                L = T - sigs[c] + P[c]
                if L & guard:
                    raise PackingOverflow(f"lcm outgrew {pk.width}-bit fields")
                b = reducer(L, T)
                if b is None:
                    # its leading term only reduces singularly
                    continue
                processed += 1
                if processed > budget:
                    raise BudgetExceededError(
                        f"Groebner computation exceeded budget: {processed} S-pair reductions"
                    )
                spoly = s_polynomial(D[c], D[b], pk, L)
                r = _divide(ring, spoly, D, pk, memo, (sigs, start, T))
                if not r:
                    syz.append(T)
                    continue
                add(r, T)
                a = len(D) - 1
        # keep the minimal elements: no earlier one divides a new one, and of
        # equal new leading monomials the first is kept
        new, keep = [], []
        for i in range(start, len(D)):
            for j in range(start, len(D)):
                if j != i and not (P[i] - P[j]) & eguard and (P[j] != P[i] or j < i):
                    break
            else:
                new.append(i)
        for i in range(start):
            for j in new:
                if not (P[i] - P[j]) & eguard:
                    break
            else:
                keep.append(i)
        keep += new
        if len(keep) < len(D):
            # a memo index becomes the number of kept elements below it
            kept = set(keep)
            below = list(accumulate((i in kept for i in range(len(D))), initial=0))
            for xs in (D, P, parts, S, sigs):
                xs[:] = [xs[i] for i in keep]
            for k, i in memo.items():
                memo[k] = below[i]
    return max(processed, peak), _reduce_basis(ring, D, pk, memo)


def _reduce_basis(ring: PolyRing, D: list[tuple], pk: MonomialPacking, memo) -> list[Polynomial]:
    """The reduced basis from the :func:`_divisor` forms ``D`` at ``pk`` of
    a minimal monic Groebner basis and its run's first-divisor memo.

    ``D`` is minimal as Buchberger leaves it: each step keeps only its
    minimal elements, and no earlier leading monomial divides a new one,
    since earlier elements divide freely.  So each element ``g``, by
    increasing leading monomial, becomes ``lm(g)`` plus the remainder of
    its tail by all of ``D``, with the memo: a remainder modulo a Groebner
    basis is unique, ``lm(g)`` divides no term below it, and ``D`` no longer
    grows, so every memo entry stays true."""
    neg = ring.field.neg
    reduced = []
    for _, p, tail, _ in sorted(D, key=itemgetter(1)):
        remainder = _divide(ring, {t: neg(c) for t, c in tail}, D, pk, memo)
        reduced.append(_polynomial(ring, {p: 1} | remainder, pk))
    return reduced


def groebner_basis(gens: list[Polynomial], degree: int | None = None) -> list[Polynomial]:
    """The reduced Groebner basis of the ideal generated by ``gens``.

    The result is canonical for the ring's monomial order and is sorted by
    increasing leading monomial.  Returns ``[]`` for the zero ideal.

    With ``degree`` (homogeneous generators and a graded order, else
    ``ValueError``) it is the reduced basis's elements of degree at most
    ``degree`` (Becker & Weispfenning, *Groebner Bases*, 1993, ch. 10):
    generators and pair lcms of larger degree are dropped.  Each element of
    degree ``e`` is ``m - nf(m)``, and in degree ``e`` the normal form
    depends only on the ideal's degree-``e`` part; a dropped candidate or
    syzygy, coming after all of lower degree, rules out none of them.

    The basis is memoized on the ring of ``gens[0]`` for that ring's
    lifetime, keyed by ``degree`` and the nonzero generators in the
    caller's order (Buchberger takes them by increasing leading monomial,
    equal ones in that order, which fixes the S-polynomials it builds).  It
    is returned, as a new list, only when the budget in force covers what it
    needed: the S-pair reductions (each S-polynomial built and divided; a
    candidate a signature criterion drops costs nothing) and the most basis
    elements held at once; otherwise Buchberger runs again and fails as on a
    fresh ring.
    """
    gens = tuple(g for g in gens if not g.is_zero())
    if gens and degree is not None:
        rows = gens[0].ring.order.weights(gens[0].ring.nvars)
        if rows and not all(rows[0]) or not all(g.is_homogeneous() for g in gens):
            raise ValueError("a truncated basis needs homogeneous generators and a graded order")
        gens = tuple(g for g in gens if g.total_degree() <= degree)
    if not gens:
        return []
    ring = gens[0].ring
    budget = current_budget()
    hit = ring._bases.get((gens, degree))
    if hit is None or hit[0] > budget:
        # a monomial that outgrows its fields, in Buchberger or in the
        # inter-reduction, restarts the whole run at twice the field width
        hit = ring._bases[gens, degree] = _run_packed(
            ring, 0, lambda pk: _buchberger(gens, pk, budget, degree))
    return list(hit[1])


def is_unit_ideal(gb: list[Polynomial]) -> bool:
    return len(gb) == 1 and gb[0].total_degree() == 0


def ideal_member(f: Polynomial, gb: list[Polynomial]) -> bool:
    return normal_form(f, gb).is_zero()


def standard_monomials(monomials: list, gb: list[Polynomial]) -> list:
    """The ``monomials``, in order, that no leading monomial of ``gb`` divides."""
    lms = [g.leading_monomial() for g in gb]
    return [m for m in monomials if not any(monomial_divides(lm, m) for lm in lms)]


def ideal_equal(gens_a: list[Polynomial], gens_b: list[Polynomial]) -> bool:
    """Whether two generating sets span the same ideal (compares reduced bases)."""
    return groebner_basis(gens_a) == groebner_basis(gens_b)


# ---------------------------------------------------------------------------
# elimination and derived operations
# ---------------------------------------------------------------------------


def eliminate(gens: list[Polynomial], drop: list[int]) -> list[Polynomial]:
    """Generators of the elimination ideal: intersect with the subring
    omitting the variables at indices ``drop``.

    Returns a reduced Groebner basis in the smaller ring (grevlex): the part
    of the reduced block-order basis free of the dropped variables, which the
    block order already leaves reduced for grevlex on the rest and sorted by
    increasing leading monomial.
    """
    if not gens:
        return []
    ring = gens[0].ring
    drop_set = set(drop)
    front = [i for i in range(ring.nvars) if i in drop_set]
    back = [i for i in range(ring.nvars) if i not in drop_set]
    perm_names = [ring.names[i] for i in front + back]
    work = PolyRing(ring.field, perm_names, BlockOrder(len(front)))
    gb = groebner_basis([work.convert(g) for g in gens])
    keep_ring = PolyRing(ring.field, [ring.names[i] for i in back], GREVLEX)
    return [
        keep_ring.convert(g)
        for g in gb
        if all(m[: len(front)] == (0,) * len(front) for m in g.terms)
    ]


def ideal_intersect(gens_i: list[Polynomial], gens_j: list[Polynomial]) -> list[Polynomial]:
    """Reduced basis of the intersection of two ideals in the same ring:
    t*I + (1 - t)*J with t eliminated, already reduced if the ring is grevlex."""
    if not gens_i or not gens_j:
        return []
    ring = gens_i[0].ring
    (t_name,) = fresh_names(["t"], set(ring.names))
    work = PolyRing(ring.field, (t_name,) + ring.names, GREVLEX)
    t = work.var(0)
    lifted = [t * work.convert(g) for g in gens_i]
    lifted += [(work.one - t) * work.convert(g) for g in gens_j]
    kept = [ring.convert(g) for g in eliminate(lifted, [0])]
    return kept if ring.order == GREVLEX else groebner_basis(kept)


def radical_member(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Whether some power of ``f`` lies in the ideal (Rabinowitsch trick)."""
    if f.is_zero():
        return True
    ring = f.ring
    (t_name,) = fresh_names(["t"], set(ring.names))
    work = PolyRing(ring.field, (t_name,) + ring.names, GREVLEX)
    t = work.var(0)
    lifted = [work.convert(g) for g in gens]
    lifted.append(work.one - t * work.convert(f))
    return is_unit_ideal(groebner_basis(lifted))


def finite_over_block(
    front: int, gb: list[Polynomial]
) -> tuple[bool, list[int]]:
    """Test module-finiteness from a block-order basis.

    ``gb`` must be a Groebner basis for a :class:`BlockOrder` with the given
    number of front variables.  The quotient is a finite module over the back
    variables iff every front variable has some pure power as a leading
    monomial.  Returns the verdict plus the indices of front variables that
    fail.
    """
    lms = [g.leading_monomial() for g in gb]
    missing = [i for i in range(front) if not any(lm[i] == sum(lm) > 0 for lm in lms)]
    return (not missing, missing)


class MembershipSieve:
    """Subalgebra membership and presentation against one generator list.

    Adjoin a tag variable ``wj`` for each generator and compute, once, a
    Groebner basis of ``(relations) + (wj - gens[j])`` in a block order that
    makes every original variable larger than every tag (Shannon & Sweedler,
    J. Symbolic Comput. 6, 1988).  A tag-only polynomial can only reduce to
    tag-only polynomials under such an order, so ``f`` lies in the
    subalgebra iff its normal form involves no original variable, and the
    tag-only elements of the basis present the subalgebra.
    """

    def __init__(self, ring: PolyRing, gens: list[Polynomial], extra_relations=()):
        self.ring = ring
        self.gens = list(gens)
        n = ring.nvars
        self.w_names = tuple(fresh_names(
            [f"w{j + 1}" for j in range(len(gens))], set(ring.names)))
        self.work = PolyRing(ring.field, tuple(ring.names) + self.w_names, BlockOrder(n))
        T = [self.work.convert(g) for g in extra_relations if not g.is_zero()]
        for j, g in enumerate(gens):
            T.append(self.work.var(n + j) - self.work.convert(g))
        self.gb = groebner_basis(T)

    def _residue(self, p: Polynomial) -> Polynomial:
        n = self.ring.nvars
        return Polynomial(self.work, {m: c for m, c in p.terms.items() if any(m[:n])})

    def residue(self, f: Polynomial) -> Polynomial:
        """The terms of ``f``'s normal form that involve an original
        variable: linear in ``f``, and zero exactly when ``f`` is a member."""
        return self._residue(normal_form(self.work.convert(f), self.gb))

    def contains(self, f: Polynomial) -> bool:
        return self.residue(f).is_zero()

    def query(self, f: Polynomial) -> tuple[bool, Polynomial | None]:
        """Membership verdict plus certificate in a fresh ``k[w1..wn]`` ring.

        Substituting the generators into the certificate reproduces ``f``
        modulo the relations.
        """
        return self.certify(normal_form(self.work.convert(f), self.gb))

    def certify(self, nf: Polynomial) -> tuple[bool, Polynomial | None]:
        """The verdict and certificate of :meth:`query` for the element of
        the work ring whose normal form against ``gb`` is ``nf``."""
        if self._residue(nf):
            return False, None
        if not self.w_names:
            return True, PolyRing(self.ring.field, ("w1",), GREVLEX).constant(nf.constant_coeff())
        return True, PolyRing(self.ring.field, self.w_names, GREVLEX).convert(nf)

    def presentation(self, names=None) -> tuple[PolyRing, list[Polynomial]]:
        """A grevlex ring on one variable per generator (the tags' names
        unless ``names`` provides others, freshened against the original
        variables) and the reduced basis of the relations among the
        generators: the tag-only part of the sieve's basis, by position,
        which the block order already leaves reduced and sorted."""
        if names is None:
            names = self.w_names
        elif len(names) != len(self.gens):
            raise ValueError("need exactly one name per generator")
        else:
            names = fresh_names(names, set(self.ring.names))
        out = PolyRing(self.ring.field, names, GREVLEX)
        tags = list(range(self.ring.nvars, self.work.nvars))
        return out, [unembed(g, out, tags) for g in self.gb if not self._residue(g)]
