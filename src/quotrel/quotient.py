"""Degree-truncated coordinate rings of quotients.

The functions of a quotient are the functions on the source that cannot tell
related points apart: the kernel of the difference of the two pullbacks.
That kernel is rarely finitely generated (and the package never pretends to
compute it in full); what is computed is exact linear algebra in each degree
up to a bound:

* ``coequalizer_kernel_basis`` — canonical per-degree bases of the kernel,
  from a relation ideal or from a pair of ring maps;
* ``minimal_generators`` on the result — a degree-by-degree minimal system of
  algebra generators;
* ``noetherian_probe`` — the growth table of new generators, with an honest
  "not stabilized" flag instead of a non-finite-generation claim;
* ``present_subalgebra`` — the exact (untruncated) relation ideal of a
  finite list of algebra elements, read off a
  :class:`~quotrel.groebner.MembershipSieve`.

Every truncated driver of the package (these, the invariants, the pinching
and the effectivity test) comes down to two primitives: the kernel of a
linear map on monomials, :func:`~quotrel.linalg.nullspace` of the
:func:`~quotrel.linalg.condition_rows` of the map, which is already the
canonical reduced echelon basis; and the span of the products of generators
up to a degree, :func:`product_closure`.

Conventions for disconnected sources (product rings): a function on a
disjoint union may be adjusted on each piece separately, so the kernel is
assembled componentwise — the shared unit, plus for every piece the
constant-free solutions of that piece's own compatibility conditions (equal
pullbacks where both maps restrict to the piece, pullback landing in the
other map's image algebra where they do not: a vanishing
:meth:`~quotrel.groebner.MembershipSieve.residue`, which is linear).
"""

from __future__ import annotations

from functools import partial

from .eqrel import RelationPresentation, copy_difference
from .groebner import MembershipSieve, ideal_member, normal_form
from .linalg import RowSpace, condition_rows, nullspace, significance
from .poly import PolyRing, Polynomial
from .ring import AmbientRing, RingElement, RingMap


def ordered_columns(ring: AmbientRing, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Column labels ``(component, monomial)`` for the degree-``d`` truncation,
    most significant first: degree descending, then component, then the
    component's monomial order descending."""
    per = []
    for c in range(ring.ncomponents):
        pr = ring.poly_ring(c)
        mons = sorted(
            ring.standard_monomials(c, d),
            key=lambda m: (sum(m), pr.order.key(m)),
            reverse=True,
        )
        per.append(mons)
    cols = []
    for deg in range(d, -1, -1):
        for c in range(ring.ncomponents):
            for m in per[c]:
                if sum(m) == deg:
                    cols.append((c, m))
    return cols


def element_to_vector(el: RingElement) -> dict:
    v = {}
    for c, part in enumerate(el.parts):
        for m, coeff in part.terms.items():
            v[(c, m)] = coeff
    return v


def vector_to_element(ring: AmbientRing, v: dict) -> RingElement:
    parts = [dict() for _ in range(ring.ncomponents)]
    for (c, m), coeff in v.items():
        parts[c][m] = coeff
    return ring.element(
        [Polynomial(ring.poly_ring(c), terms) for c, terms in enumerate(parts)]
    )


def product_closure(gens, seeds, limit: int, insert) -> list:
    """Breadth-first span of the products of ``gens`` up to degree ``limit``.

    Elements need ``*``, ``is_zero()`` and ``degree()``.  ``insert`` adds an
    element to the caller's span and says whether the span grew.  The seeds
    that grow it are kept; every kept element, in order, is multiplied by
    each generator in turn, and a nonzero product of degree at most
    ``limit`` that grows the span is kept as well.  Returns the kept
    elements.
    """
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


class TruncatedSubalgebra:
    """A subalgebra of an ambient ring known through degree ``d``.

    ``basis`` is the reduced echelon basis of the degree-``d`` filtration
    piece over ``columns`` (most significant first), as :func:`nullspace`
    returns it; ``layers[e]`` holds its elements whose leading monomial has
    degree ``e``.  ``membership`` is the defining condition, rechecked by
    :meth:`defining_membership` without the linear algebra.
    """

    def __init__(self, ring: AmbientRing, d: int, columns: list, basis,
                 membership):
        self.ring = ring
        self.d = d
        self.key = significance(columns)
        self.layers: list[list[RingElement]] = [[] for _ in range(d + 1)]
        for f in basis:
            self.layers[f.degree()].append(f)
        self._membership = membership
        self._space: RowSpace | None = None
        self._generators: list[tuple[RingElement, int]] | None = None
        self._new_counts: list[int] | None = None

    # -- structure -----------------------------------------------------------

    def basis(self) -> list[RingElement]:
        return [f for layer in self.layers for f in layer]

    def dims(self) -> list[int]:
        """Cumulative dimension of the filtration at each degree."""
        out, total = [], 0
        for layer in self.layers:
            total += len(layer)
            out.append(total)
        return out

    def contains(self, el: RingElement) -> bool:
        """Membership in the degree-``d`` truncation span."""
        if self._space is None:
            self._space = RowSpace(self.ring.field, self.key)
            for f in self.basis():
                self._space.insert(element_to_vector(f))
        return self._space.contains(element_to_vector(el))

    def defining_membership(self, el: RingElement) -> bool:
        """Recheck the defining condition directly, without the linear
        algebra that produced the basis."""
        return self._membership(el)

    # -- generators -----------------------------------------------------------

    def minimal_generators(self) -> list[tuple[RingElement, int]]:
        """Degree-by-degree minimal algebra generators of the truncation.

        At each degree the span of all products of the generators found so
        far is closed off, and every canonical basis element not in that span
        contributes one new generator (its reduced, monic residue).
        """
        if self._generators is not None:
            return self._generators
        field = self.ring.field
        gens: list[tuple[RingElement, int]] = []
        counts = [0] * (self.d + 1)
        for e in range(1, self.d + 1):
            # the span of the products, up to degree e, of the generators so
            # far; formed when first needed and again after each new one
            alg = None
            for f in self.layers[e]:
                if alg is None:
                    alg = RowSpace(field, self.key)
                    product_closure(
                        [g for g, _ in gens], [self.ring.one], e,
                        lambda p: alg.insert(element_to_vector(p)) is not None,
                    )
                piv = alg.insert(element_to_vector(f))
                if piv is None:
                    continue
                gen = vector_to_element(self.ring, alg.rows[alg.pivots.index(piv)])
                gens.append((gen, e))
                counts[e] += 1
                alg = None
        self._generators = gens
        self._new_counts = counts
        return gens

    def new_generator_counts(self) -> list[int]:
        self.minimal_generators()
        return list(self._new_counts)

    def render_basis(self) -> str:
        lines = []
        for e, layer in enumerate(self.layers):
            if not layer:
                continue
            items = ", ".join(f.render() for f in layer)
            lines.append(f"degree {e}: {items}")
        return "\n".join(lines)


def _relation_kernel(rel: RelationPresentation, columns: list) -> list[RingElement]:
    ring = rel.ambient
    pr = ring.poly_ring(0)
    gb = rel.gb()
    rows = condition_rows(
        (col, normal_form(copy_difference(pr.monomial(col[1]), rel.doubled), gb).terms)
        for col in columns
    )
    return [vector_to_element(ring, v) for v in nullspace(rows, columns, ring.field)]


def _relation_member(rel: RelationPresentation, el: RingElement) -> bool:
    """The doubled-ring difference lies in the relation ideal."""
    return ideal_member(copy_difference(el.parts[0], rel.doubled), rel.gb())


def _pair_sieves(s1: RingMap, s2: RingMap) -> dict:
    """``(t, side)`` -> the sieve of map ``side``'s image algebra on each target
    component ``t`` where the two maps use different source pieces."""
    target = s1.target
    sieves = {}
    for t in range(target.ncomponents):
        (a1, im1), (a2, im2) = s1.assignments[t], s2.assignments[t]
        if a1 != a2:
            for side, im in enumerate((im1, im2)):
                sieves[t, side] = MembershipSieve(
                    target.poly_ring(t), [target.nf(t, h) for h in im],
                    target.q_gens(t))
    return sieves


def _pair_component_kernel(ring: AmbientRing, columns: list, s1: RingMap, s2: RingMap,
                           sieves: dict, c: int) -> list[RingElement]:
    """Reduced-echelon solutions of the compatibility conditions restricted
    to source component ``c``."""
    target = s1.target
    images = {col: {} for col in columns if col[0] == c}
    for t in range(target.ncomponents):
        a1, a2 = s1.assignments[t][0], s2.assignments[t][0]
        if a1 != c and a2 != c:
            continue
        if a1 == c and a2 == c:
            # equal pullbacks
            t1, t2 = s1.table(t), s2.table(t)
            for (_, m), image in images.items():
                dif = target.nf(t, t1.monomial(m) - t2.monomial(m))
                image.update(((t, mm), coeff) for mm, coeff in dif.terms.items())
        else:
            # the pullback lands in the other map's image algebra
            own, other = (s1, 1) if a1 == c else (s2, 0)
            table, sieve = own.table(t), sieves[t, other]
            for (_, m), image in images.items():
                res = sieve.residue(table.monomial(m))
                image.update(((t, mm), coeff) for mm, coeff in res.terms.items())
    sols = nullspace(condition_rows(images.items()), list(images), ring.field)
    return [vector_to_element(ring, v) for v in sols]


def _pair_kernel(ring: AmbientRing, columns: list, s1: RingMap, s2: RingMap,
                 sieves: dict) -> list[RingElement]:
    if ring.ncomponents == 1:
        return _pair_component_kernel(ring, columns, s1, s2, sieves, 0)
    basis = [ring.one]
    for c in range(ring.ncomponents):
        # each piece's constants fold into the shared unit
        basis += [el for el in _pair_component_kernel(ring, columns, s1, s2, sieves, c)
                  if el.degree() > 0]
    return basis


def _pair_member(s1: RingMap, s2: RingMap, sieves: dict, el: RingElement) -> bool:
    """Per target component: equal pullbacks when both maps use the same
    source piece; otherwise each piece's pullback lies in the other map's
    image algebra."""
    target = s1.target
    for t in range(target.ncomponents):
        a1, a2 = s1.assignments[t][0], s2.assignments[t][0]
        g1, g2 = s1.table(t).apply(el.parts[a1]), s2.table(t).apply(el.parts[a2])
        if a1 == a2:
            if not target.nf(t, g1 - g2).is_zero():
                return False
        elif not (sieves[t, 1].contains(target.nf(t, g1))
                  and sieves[t, 0].contains(target.nf(t, g2))):
            return False
    return True


def coequalizer_kernel_basis(source, d: int) -> TruncatedSubalgebra:
    """Canonical per-degree basis of the functions equalizing a relation or
    a pair of maps, through total degree ``d`` of normal forms.

    ``source`` is either a :class:`RelationPresentation` (functions ``f``
    with ``f(first block) - f(second block)`` in the relation ideal) or a
    pair of ring maps with common source and target (functions with equal
    pullbacks, componentwise over a disconnected common source).
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    if isinstance(source, RelationPresentation):
        ring = source.ambient
        columns = ordered_columns(ring, d)
        return TruncatedSubalgebra(ring, d, columns,
                                   _relation_kernel(source, columns),
                                   partial(_relation_member, source))
    s1, s2 = source
    if not isinstance(s1, RingMap) or not isinstance(s2, RingMap):
        raise TypeError("expected a RelationPresentation or a pair of RingMaps")
    if s1.source != s2.source or s1.target != s2.target:
        raise ValueError("the two maps must share source and target")
    ring = s1.source
    columns = ordered_columns(ring, d)
    sieves = _pair_sieves(s1, s2)
    return TruncatedSubalgebra(ring, d, columns,
                               _pair_kernel(ring, columns, s1, s2, sieves),
                               partial(_pair_member, s1, s2, sieves))


class GrowthReport:
    """New-generator counts per degree for a truncated kernel algebra.

    The flag only ever says that generation has *not stabilized through the
    bound* — fresh generators appear at the top degree.  It never claims the
    algebra is or is not finitely generated.
    """

    def __init__(self, trunc: TruncatedSubalgebra):
        self.d = trunc.d
        self.dims = trunc.dims()
        self.new_counts = trunc.new_generator_counts()
        self.not_stabilized = self.new_counts[self.d] > 0

    def rows(self) -> list[tuple[int, int, int]]:
        return [
            (e, self.dims[e], self.new_counts[e]) for e in range(self.d + 1)
        ]

    def render(self) -> str:
        lines = ["degree | basis dim | new generators"]
        for e, dim, new in self.rows():
            lines.append(f"{e:>6} | {dim:>9} | {new:>14}")
        if self.not_stabilized:
            lines.append(f"generation NOT stabilized through degree {self.d}")
        else:
            lines.append(f"no new generators at degree {self.d}")
        return "\n".join(lines)


def noetherian_probe(source, d: int) -> GrowthReport:
    """Compute the kernel truncation and report generator growth."""
    if d < 2:
        raise ValueError("the growth probe needs degree bound >= 2")
    trunc = source if isinstance(source, TruncatedSubalgebra) else coequalizer_kernel_basis(source, d)
    return GrowthReport(trunc)


def present_subalgebra(gens: list[RingElement],
                       names=None) -> tuple[PolyRing, list[Polynomial]]:
    """The exact ideal of algebraic relations among finitely many elements.

    Returns a polynomial ring on one variable per generator (named ``w1``,
    ``w2``, … unless ``names`` provides others) and the reduced basis of the
    kernel of the evaluation map sending those variables to the generators,
    read off the flat model's sieve (:meth:`MembershipSieve.presentation`);
    product ambient rings included.
    """
    if not gens:
        raise ValueError("need at least one generator to present")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators must live in one ambient ring")
    if names is not None and len(names) != len(gens):
        raise ValueError("need exactly one name per generator")
    return ring.model().sieve(gens).presentation(names)
