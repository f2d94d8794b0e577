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
up to a degree, a :class:`ProductSpan`.  A :class:`TruncatedSubalgebra` is
stated by one such map on whole elements, ``condition(el)``: the same map
gives the kernel, applied to each column monomial, and the membership
recheck, applied to the element.  An intersection of subalgebras states its
condition through sieve residues.

A relation's condition is the normal form of ``f(x) - f(y)`` modulo the
relation ideal.  The normal form modulo a Groebner basis is unique and
linear, so it is the sum over the terms ``c * m`` of ``f`` of ``c *
(nf(m(x)) - nf(m(y)))``, read off one
:class:`~quotrel.groebner.NormalFormTable` of the relation's reduced basis:
each monomial of the doubled ring is divided once, from the normal form of
the monomial one variable down, and every column after it reuses the
result.  The table's vectors are labelled by packed monomials, and the
kernel, the canonical reduced echelon basis, does not depend on how the
conditions are labelled, so the output is the one the per-column divisions
gave.

A pair of maps s1, s2 : X -> Z is gluing data, and the functions of the
quotient are their equalizer, the f with s1(f) = s2(f), also when X is a
disjoint union (a product ring): each target component reads one source
piece through each map, possibly two different pieces, so the condition
couples the parts of ``f`` and the kernel is solved jointly over all pieces.
For the node, two lines glued at a point, the constants of the two lines
must agree while everything vanishing at the glued points is free.
"""

from __future__ import annotations

from .eqrel import RelationPresentation
from .groebner import NormalFormTable
from .linalg import RowSpace, condition_rows, nullspace, significance
from .poly import PolyRing, Polynomial
from .ring import AmbientRing, RingElement, RingMap


def ordered_columns(ring: AmbientRing, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Column labels ``(component, monomial)`` for the degree-``d`` truncation,
    most significant first: degree descending, then component, then the
    component's monomial order descending."""
    return sorted(
        ((c, m) for c in range(ring.ncomponents) for m in ring.standard_monomials(c, d)),
        key=lambda col: (sum(col[1]), -col[0], ring.poly_ring(col[0]).order.key(col[1])),
        reverse=True,
    )


def element_to_vector(el: RingElement) -> dict:
    v = {}
    for c, part in enumerate(el.parts):
        for m, coeff in part.terms.items():
            v[(c, m)] = coeff
    return v


def vector_to_element(ring: AmbientRing, v: dict) -> RingElement:
    """The element with coordinates ``v``, a vector over standard monomials
    labelled ``(component, monomial)``: its parts are normal forms already."""
    parts = [dict() for _ in range(ring.ncomponents)]
    for (c, m), coeff in v.items():
        parts[c][m] = coeff
    return RingElement._of_normal_forms(
        ring, [Polynomial(ring.poly_ring(c), terms) for c, terms in enumerate(parts)])


class ProductSpan:
    """The span of the products of a growing list of generators, grown as
    its degree bound rises to ``d`` and never rebuilt.

    ``insert`` adds an element to the caller's span and says whether the
    span grew.  The elements that grow it are kept, from 1 on, and each kept
    element times each generator is formed once, breadth first.  A nonzero
    product waits in ``waiting`` until ``bound`` reaches its degree; past
    ``d`` it is dropped.  In one free polynomial ring a product's degree is
    the sum of its factors', and a product whose degrees add up past ``d``
    is not formed at all; in a quotient or a product ring a product can drop
    degree (``x * x = y`` modulo ``x^2 - y``), and every product is formed.
    """

    def __init__(self, ring: AmbientRing, d: int, insert, gens=(), bound=None):
        self.d, self.insert, self.bound = d, insert, d if bound is None else bound
        self.free = ring.ncomponents == 1 and not ring.q_gens(0)
        self.gens = [(g, g.degree()) for g in gens]
        # (element, degree) pairs; _todo holds those not yet multiplied
        self.kept, self._todo, self.waiting = [], [], {}
        self._offer(ring.one, 0)
        self._close()

    def _offer(self, p, e: int):
        if self.insert(p):
            self.kept.append((p, e))
            self._todo.append((p, e))

    def _form(self, k, kd: int, g, gd: int):
        if self.free and kd + gd > self.d:
            return
        p = k * g
        e = kd + gd if self.free else p.degree()
        if p.is_zero() or e > self.d:
            return
        if e <= self.bound:
            self._offer(p, e)
        else:
            self.waiting.setdefault(e, []).append(p)

    def _close(self):
        # the loop also visits the products kept on its way
        for k, kd in self._todo:
            for g, gd in self.gens:
                self._form(k, kd, g, gd)
        self._todo.clear()

    def raise_to(self, e: int):
        """Insert the waiting products of degree at most ``e``."""
        while self.bound < e:
            self.bound += 1
            for p in self.waiting.pop(self.bound, ()):
                self._offer(p, self.bound)
            self._close()

    def add(self, g):
        """Add the generator ``g``, an element of the span: its product with 1
        is itself, kept as it is, and it is multiplied by every kept element."""
        gd = g.degree()
        self.gens.append((g, gd))
        self.kept.append((g, gd))
        for k, kd in self.kept[1:]:
            self._form(k, kd, g, gd)
        self._close()


class TruncatedSubalgebra:
    """A subalgebra of an ambient ring, cut out by one linear condition and
    known through degree ``d``.

    ``condition(el)`` is a linear map taking a :class:`RingElement` to a
    vector (a dict of labels to coefficients); an element lies in the
    subalgebra exactly when its vector vanishes.  The basis of the
    degree-``d`` filtration piece is the reduced echelon kernel of that map
    over :func:`ordered_columns`, solved once over the columns of every
    component.  ``layers[e]`` holds the basis elements whose leading
    monomial has degree ``e``.
    """

    def __init__(self, ring: AmbientRing, d: int, condition):
        self.ring = ring
        self.d = d
        self._condition = condition
        columns = ordered_columns(ring, d)
        self.key = significance(columns)
        self.layers: list[list[RingElement]] = [[] for _ in range(d + 1)]
        rows = condition_rows((col, condition(vector_to_element(ring, {col: ring.field.one})))
                              for col in columns)
        for v in nullspace(rows, columns, ring.field):
            f = vector_to_element(ring, v)
            self.layers[f.degree()].append(f)
        self._space: RowSpace | None = None
        self._generators: list[tuple[RingElement, int]] | None = None

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
        return not self._condition(el)

    # -- generators -----------------------------------------------------------

    def minimal_generators(self) -> list[tuple[RingElement, int]]:
        """Degree-by-degree minimal algebra generators of the truncation.

        One :class:`ProductSpan` of the generators so far grows a degree at a
        time; each canonical basis element outside it contributes one new
        generator (its reduced, monic residue), whose products join at once.
        """
        if self._generators is not None:
            return self._generators
        alg = RowSpace(self.ring.field, self.key)
        span = ProductSpan(self.ring, self.d,
                           lambda p: alg.insert(element_to_vector(p)) is not None, bound=0)
        gens: list[tuple[RingElement, int]] = []
        for e in range(1, self.d + 1):
            if self.layers[e]:
                span.raise_to(e)
            for f in self.layers[e]:
                piv = alg.insert(element_to_vector(f))
                if piv is None:
                    continue
                gen = vector_to_element(self.ring, alg.row[piv])
                gens.append((gen, e))
                span.add(gen)
        self._generators = gens
        return gens

    def new_generator_counts(self) -> list[int]:
        counts = [0] * (self.d + 1)
        for _, e in self.minimal_generators():
            counts[e] += 1
        return counts

    def render_basis(self) -> str:
        lines = []
        for e, layer in enumerate(self.layers):
            if not layer:
                continue
            items = ", ".join(f.render() for f in layer)
            lines.append(f"degree {e}: {items}")
        return "\n".join(lines)


def coequalizer_kernel_basis(source, d: int) -> TruncatedSubalgebra:
    """Canonical per-degree basis of the functions equalizing a relation or
    a pair of maps, through total degree ``d`` of normal forms.

    ``source`` is either a :class:`RelationPresentation` (functions ``f``
    with ``f(first block) - f(second block)`` in the relation ideal) or a
    pair of ring maps ``(s1, s2)`` with common source and target, whose
    kernel is their equalizer: the ``f`` with ``s1(f) = s2(f)`` on every
    target component, over a disconnected source as well.

    A relation's condition on ``f`` is ``sum c * (nf(m(x)) - nf(m(y)))``
    over the terms ``c * m`` of ``f``, each ``nf`` read off one
    :class:`~quotrel.groebner.NormalFormTable` of ``source.gb()``.  That is
    the normal form of ``f(x) - f(y)``, since a normal form modulo a
    Groebner basis is unique and linear.  The table is built for degree
    ``d``, so every column's conditions are labelled by one packing.
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    if isinstance(source, RelationPresentation):
        table = NormalFormTable(source.doubled, source.gb(), d)
        neg, zeros = source.ambient.field.neg, (0,) * source.nvars

        def condition(el: RingElement) -> dict:
            return table.combination(
                pair for m, c in el.parts[0].terms.items()
                for pair in ((m + zeros, c), (zeros + m, neg(c))))

        return TruncatedSubalgebra(source.ambient, d, condition)
    s1, s2 = source
    if not isinstance(s1, RingMap) or not isinstance(s2, RingMap):
        raise TypeError("expected a RelationPresentation or a pair of RingMaps")
    if s1.source != s2.source or s1.target != s2.target:
        raise ValueError("the two maps must share source and target")
    reads = [(t, a1, a2) for t, ((a1, _), (a2, _))
             in enumerate(zip(s1.assignments, s2.assignments))]

    def condition(el: RingElement) -> dict:
        # table values are normal forms, and so is their difference
        return {(t, m): coeff for t, a1, a2 in reads for m, coeff in (
            s1.table(t).apply(el.parts[a1]) - s2.table(t).apply(el.parts[a2])
        ).terms.items()}

    return TruncatedSubalgebra(s1.source, d, condition)


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
