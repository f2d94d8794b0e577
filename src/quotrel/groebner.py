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
term for term.  Each basis polynomial is packed once per field width and
keeps that form in a slot.  When a monomial does not fit its fields (a huge
input exponent, or a product grown in a lex or block reduction), the
division restarts at twice the field width, with the same result.

Buchberger uses the normal selection strategy: of the pending S-pairs, the
one with the smallest ``(lcm, i, j)`` is reduced next, where ``i < j`` index
the basis in the order elements were added and the lcm is compared in the
ring's order.  The bookkeeping runs on packed monomials: each leading
monomial is packed once, and each pair enters a heap once, as ``(packed lcm,
i, j)``, when its second element joins the basis.  Pairs are skipped by the
product criterion (coprime leading monomials: the packed lcm is the sum of
the packed leading monomials) and the chain criterion (some ``lm_k`` divides
the lcm, one subtraction and one mask, and the pairs ``(i, k)`` and ``(j,
k)`` are no longer pending); skipped pairs do not count against the budget.
When a leading monomial or an lcm does not fit its fields, the whole run
restarts at twice the field width; the pairs and their order do not depend
on the width.

Computations carry a *budget* — a cap on the number of S-pair reductions and
on the basis size (and, in :mod:`quotrel.poly`, on the number of monomials
enumerated).  Exceeding it raises :class:`BudgetExceededError`, which is
a resource failure, not a mathematical answer; callers must not treat it as
"no".  Reduced bases are memoized on the ring object, so they live as long
as it does; a memoized basis is served only to a call whose budget covers
what its computation needed, and any other call fails as on a fresh ring.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from .poly import (
    BlockOrder,
    BudgetExceededError,
    DEFAULT_BUDGET,
    GREVLEX,
    MonomialPacking,
    PackingOverflow,
    PolyRing,
    Polynomial,
    fresh_names,
    monomial_div,
    monomial_lcm,
    unembed,
)


# ---------------------------------------------------------------------------
# division / normal forms
# ---------------------------------------------------------------------------


# Field width, in bits, at which every division starts packing; a monomial
# that does not fit restarts that division at twice the width.
_WIDTH = 16


def normal_form(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of ``f`` on division by ``basis`` (first divisor wins).

    Against a Groebner basis this is the canonical normal form; against an
    arbitrary list it is still deterministic but order-dependent.  Every
    element of ``basis`` must lie in ``f``'s ring (``ValueError`` otherwise).
    """
    ring = f.ring
    for g in basis:
        if g.ring is not ring and g.ring != ring:
            raise ValueError(f"ring mismatch: {ring!r} vs {g.ring!r}")
    width = _WIDTH
    while True:
        try:
            return _divide(f, basis, ring.packing(width))
        except PackingOverflow:
            width *= 2


def _divisor(g: Polynomial, pk: MonomialPacking) -> tuple:
    """``(width, lm, tail)``: ``g``'s packed leading monomial and its other
    terms as ``(packed monomial, -c / lc)`` pairs, cached on ``g`` for the
    last width it was packed at."""
    slot = g._packed
    if slot is None or slot[0] != pk.width:
        field = g.ring.field
        packed = {pk.pack(m): c for m, c in g.terms.items()}
        lm = max(packed)
        lc = packed.pop(lm)
        tail = [(t, field.neg(field.div(c, lc))) for t, c in packed.items()]
        slot = g._packed = (pk.width, lm, tail)
    return slot


def _divide(f: Polynomial, basis: list[Polynomial], pk: MonomialPacking) -> Polynomial:
    """Heap division of ``f`` by ``basis`` on monomials packed by ``pk``;
    raises :class:`PackingOverflow` when a monomial outgrows its fields."""
    field = f.ring.field
    add, mul, is_zero = field.add, field.mul, field.is_zero
    guard, eguard = pk.guard, pk.eguard
    # the dividend first: when it does not fit, the divisors keep their slots
    terms = {pk.pack(m): c for m, c in f.terms.items()}
    divisors = [_divisor(g, pk) for g in basis if g.terms]
    # one heap entry per key of ``terms``; cancelled terms stay as zeros
    heap = [-k for k in terms]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        k = -pop(heap)
        c = terms.pop(k)
        if is_zero(c):
            continue
        for _, gm, tail in divisors:
            q = k - gm
            if not q & eguard:
                for t, tc in tail:
                    m = q + t
                    if m & guard:
                        raise PackingOverflow(f"product outgrew {pk.width}-bit fields")
                    old = terms.get(m)
                    if old is None:
                        terms[m] = mul(c, tc)
                        push(heap, -m)
                    else:
                        terms[m] = add(old, mul(c, tc))
                break
        else:
            remainder[k] = c
    unpack = pk.unpack
    r = Polynomial(f.ring, {unpack(k): c for k, c in remainder.items()})
    # terms joined the remainder in decreasing order: the first one leads
    if remainder:
        r._lm = unpack(next(iter(remainder)))
    return r


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.ring.field
    fm, gm = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(fm, gm)
    a = f.mul_monomial(monomial_div(lcm, fm), field.inv(f.leading_coeff()))
    b = g.mul_monomial(monomial_div(lcm, gm), field.inv(g.leading_coeff()))
    return a - b


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(
    gens: tuple, pk: MonomialPacking, budget: int
) -> tuple[list[Polynomial], list[int], int]:
    """A Groebner basis of the nonzero ``gens``, its leading monomials packed
    by ``pk``, and the least budget that computes it: ``max(S-pair
    reductions, basis size)``.  Raises :class:`PackingOverflow` when a
    leading monomial or an lcm does not fit ``pk``'s fields."""
    pack, eguard = pk.pack, pk.eguard
    G = sorted(((pack(g.leading_monomial()), g.monic()) for g in gens), key=itemgetter(0))
    P = [p for p, _ in G]
    G = [g for _, g in G]
    lms = [g.leading_monomial() for g in G]
    # normal selection: each pair enters the heap once, keyed by its packed lcm
    heap: list[tuple[int, int, int]] = []
    pairs: set[tuple[int, int]] = set()

    def add_pairs(new: int):
        m = lms[new]
        for i in range(new):
            heapq.heappush(heap, (pack(monomial_lcm(lms[i], m)), i, new))
            pairs.add((i, new))

    def chain(L: int, i: int, j: int) -> bool:
        """Some lm_k divides the lcm ``L`` and both other pairs were handled."""
        for k, p in enumerate(P):
            if (
                not (L - p) & eguard
                and k != i
                and k != j
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                return True
        return False

    for j in range(len(G)):
        add_pairs(j)
    processed = 0
    while heap:
        L, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        # product criterion (coprime leading monomials reduce to zero), then
        # the chain criterion
        if L == P[i] + P[j] or chain(L, i, j):
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceededError(
                f"Groebner computation exceeded budget: {processed} S-pair reductions"
            )
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.is_zero():
            continue
        G.append(r.monic())
        lms.append(r.leading_monomial())
        P.append(pack(lms[-1]))
        if len(G) > budget:
            raise BudgetExceededError(
                f"Groebner computation exceeded budget: basis grew past {budget}"
            )
        add_pairs(len(G) - 1)
    return G, P, max(processed, len(G))


def _reduce_basis(G: list[Polynomial], P: list[int], eguard: int) -> list[Polynomial]:
    """The reduced basis from a monic Groebner basis ``G`` and its packed
    leading monomials ``P``."""
    # minimalize: drop elements whose leading monomial another one divides
    # (of equal leading monomials, the first is kept)
    minimal = [
        (p, g)
        for i, (p, g) in enumerate(zip(P, G))
        if not any(
            not (p - q) & eguard and (q != p or j < i)
            for j, q in enumerate(P)
            if j != i
        )
    ]
    # inter-reduce tails: no other leading monomial divides g's, so its
    # leading term survives and the remainder is monic with g's leading
    # monomial
    reduced = [
        (p, normal_form(g, [h for k, (_, h) in enumerate(minimal) if k != i]))
        for i, (p, g) in enumerate(minimal)
    ]
    reduced.sort(key=itemgetter(0))
    return [r for _, r in reduced]


def groebner_basis(
    gens: list[Polynomial], budget: int | None = None
) -> list[Polynomial]:
    """The reduced Groebner basis of the ideal generated by ``gens``.

    The result is canonical for the ring's monomial order and is sorted by
    increasing leading monomial.  Returns ``[]`` for the zero ideal.

    The basis is memoized on the ring of ``gens[0]`` for that ring's
    lifetime, keyed by the nonzero generators in the caller's order (which
    fixes the S-pair count).  It is returned, as a new list, only when
    ``budget`` covers the S-pair reductions and basis size it needed;
    otherwise Buchberger runs again and fails as on a fresh ring.
    """
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        return []
    ring = gens[0].ring
    budget = DEFAULT_BUDGET if budget is None else budget
    hit = ring._bases.get(gens)
    if hit is None or hit[0] > budget:
        # a leading monomial or an lcm that outgrows its fields restarts
        # the whole run at twice the field width
        width = _WIDTH
        while True:
            pk = ring.packing(width)
            try:
                G, P, needed = _buchberger(gens, pk, budget)
                break
            except PackingOverflow:
                width *= 2
        hit = ring._bases[gens] = (needed, _reduce_basis(G, P, pk.eguard))
    return list(hit[1])


def is_unit_ideal(gb: list[Polynomial]) -> bool:
    return len(gb) == 1 and gb[0].total_degree() == 0


def ideal_member(f: Polynomial, gb: list[Polynomial]) -> bool:
    return normal_form(f, gb).is_zero()


def ideal_equal(
    gens_a: list[Polynomial], gens_b: list[Polynomial], budget: int | None = None
) -> bool:
    """Whether two generating sets span the same ideal (compares reduced bases)."""
    return groebner_basis(gens_a, budget) == groebner_basis(gens_b, budget)


# ---------------------------------------------------------------------------
# elimination and derived operations
# ---------------------------------------------------------------------------


def eliminate(
    gens: list[Polynomial],
    drop: list[int],
    budget: int | None = None,
) -> list[Polynomial]:
    """Generators of the elimination ideal: intersect with the subring
    omitting the variables at indices ``drop``.

    Returns a reduced Groebner basis in the smaller ring (grevlex).
    """
    if not gens:
        return []
    ring = gens[0].ring
    drop_set = set(drop)
    front = [i for i in range(ring.nvars) if i in drop_set]
    back = [i for i in range(ring.nvars) if i not in drop_set]
    perm_names = [ring.names[i] for i in front + back]
    work = PolyRing(ring.field, perm_names, BlockOrder(len(front)))
    gb = groebner_basis([work.convert(g) for g in gens], budget)
    keep_ring = PolyRing(ring.field, [ring.names[i] for i in back], GREVLEX)
    kept = [
        keep_ring.convert(g)
        for g in gb
        if all(m[: len(front)] == (0,) * len(front) for m in g.terms)
    ]
    return groebner_basis(kept, budget)


def ideal_intersect(
    gens_i: list[Polynomial],
    gens_j: list[Polynomial],
    budget: int | None = None,
) -> list[Polynomial]:
    """Reduced basis of the intersection of two ideals in the same ring."""
    if not gens_i or not gens_j:
        return []
    ring = gens_i[0].ring
    (t_name,) = fresh_names(["t"], set(ring.names))
    work = PolyRing(ring.field, (t_name,) + ring.names, BlockOrder(1))
    t = work.var(0)
    lifted = [t * work.convert(g) for g in gens_i]
    lifted += [(work.one - t) * work.convert(g) for g in gens_j]
    gb = groebner_basis(lifted, budget)
    kept = [ring.convert(g) for g in gb if all(m[0] == 0 for m in g.terms)]
    return groebner_basis(kept, budget)


def radical_member(
    f: Polynomial, gens: list[Polynomial], budget: int | None = None
) -> bool:
    """Whether some power of ``f`` lies in the ideal (Rabinowitsch trick)."""
    if f.is_zero():
        return True
    ring = f.ring
    (t_name,) = fresh_names(["t"], set(ring.names))
    work = PolyRing(ring.field, (t_name,) + ring.names, GREVLEX)
    t = work.var(0)
    lifted = [work.convert(g) for g in gens]
    lifted.append(work.one - t * work.convert(f))
    return is_unit_ideal(groebner_basis(lifted, budget))


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
    missing = []
    for i in range(front):
        found = False
        for g in gb:
            lm = g.leading_monomial()
            if lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i):
                found = True
                break
        if not found:
            missing.append(i)
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

    def __init__(
        self,
        ring: PolyRing,
        gens: list[Polynomial],
        extra_relations=(),
        budget: int | None = None,
    ):
        self.ring = ring
        self.gens = list(gens)
        self.budget = budget
        n = ring.nvars
        self.w_names = tuple(fresh_names(
            [f"w{j + 1}" for j in range(len(gens))], set(ring.names)))
        self.work = PolyRing(ring.field, tuple(ring.names) + self.w_names, BlockOrder(n))
        T = [self.work.convert(g) for g in extra_relations if not g.is_zero()]
        for j, g in enumerate(gens):
            T.append(self.work.var(n + j) - self.work.convert(g))
        self.gb = groebner_basis(T, budget)

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
        nf = normal_form(self.work.convert(f), self.gb)
        if self._residue(nf):
            return False, None
        if not self.w_names:
            return True, PolyRing(self.ring.field, ("w1",), GREVLEX).constant(nf.constant_coeff())
        return True, PolyRing(self.ring.field, self.w_names, GREVLEX).convert(nf)

    def presentation(self, names=None) -> tuple[PolyRing, list[Polynomial]]:
        """A grevlex ring on one variable per generator (the tags' names
        unless ``names`` provides others, freshened against the original
        variables) and the reduced basis of the relations among the
        generators: the tag-only part of the sieve's basis, by position."""
        if names is None:
            names = self.w_names
        elif len(names) != len(self.gens):
            raise ValueError("need exactly one name per generator")
        else:
            names = fresh_names(names, set(self.ring.names))
        out = PolyRing(self.ring.field, names, GREVLEX)
        tags = list(range(self.ring.nvars, self.work.nvars))
        kept = [unembed(g, out, tags) for g in self.gb if not self._residue(g)]
        return out, groebner_basis(kept, self.budget)
