"""Ambient rings: quotients of polynomial rings and finite products of them.

An :class:`AmbientRing` models the coordinate ring of an affine scheme or of
a finite disjoint union of affine schemes.  Each component is a polynomial
ring together with a defining ideal; an element is one normal-formed
polynomial per component.  Maps between ambient rings record, for every
*target* component, which source component they factor through and the images
of that component's variables (a homomorphism into a ring with connected
spectrum can only use one piece of a product source).

For product rings, :class:`FlatModel` rewrites the whole product as a single
quotient ring using orthogonal idempotents ``e_c``.  That turns questions
about the product (subalgebra membership, sieves) into ordinary Groebner
computations in one polynomial ring.
"""

from __future__ import annotations

from .fields import Field
from .groebner import MembershipSieve, groebner_basis, normal_form
from .poly import GREVLEX, PolyRing, Polynomial, embed, fresh_names, power, unembed


class AmbientRing:
    """A finite product of quotient rings ``field[vars]/Q``."""

    def __init__(
        self,
        components: list[tuple[PolyRing, list[Polynomial]]],
        budget: int | None = None,
    ):
        if not components:
            raise ValueError("an ambient ring needs at least one component")
        self.components = []
        for poly_ring, q_gens in components:
            gens = tuple(g for g in q_gens if not g.is_zero())
            for g in gens:
                if g.ring != poly_ring:
                    raise ValueError("defining ideal generator outside its component ring")
            self.components.append((poly_ring, gens))
        self.field: Field = self.components[0][0].field
        if any(pr.field != self.field for pr, _ in self.components):
            raise ValueError("all components must share one coefficient field")
        self.budget = budget
        self._model: FlatModel | None = None

    @classmethod
    def free(cls, field: Field, names, budget: int | None = None) -> "AmbientRing":
        return cls([(PolyRing(field, names, GREVLEX), [])], budget=budget)

    @classmethod
    def quotient(cls, poly_ring: PolyRing, q_gens, budget: int | None = None) -> "AmbientRing":
        return cls([(poly_ring, list(q_gens))], budget=budget)

    # -- structure -----------------------------------------------------------

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    @property
    def is_product(self) -> bool:
        return len(self.components) > 1

    def poly_ring(self, c: int = 0) -> PolyRing:
        return self.components[c][0]

    def q_gens(self, c: int = 0) -> tuple[Polynomial, ...]:
        return self.components[c][1]

    def gb(self, c: int = 0) -> list[Polynomial]:
        """Reduced Groebner basis of the component's defining ideal."""
        return groebner_basis(self.components[c][1], self.budget)

    def nf(self, c: int, f: Polynomial) -> Polynomial:
        return normal_form(f, self.gb(c)) if self.components[c][1] else f

    def __eq__(self, other):
        return (
            isinstance(other, AmbientRing)
            and len(self.components) == len(other.components)
            and all(
                pr == opr and qs == oqs
                for (pr, qs), (opr, oqs) in zip(self.components, other.components)
            )
        )

    def __hash__(self):
        return hash(tuple((pr, qs) for pr, qs in self.components))

    def render(self) -> str:
        parts = []
        for pr, qs in self.components:
            base = f"{pr.field!r}[{','.join(pr.names)}]"
            if qs:
                base += "/(" + ", ".join(pr.render(g) for g in qs) + ")"
            parts.append(base)
        return " * ".join(parts)

    def __repr__(self):
        return self.render()

    # -- elements ------------------------------------------------------------

    def element(self, parts) -> "RingElement":
        return RingElement(self, list(parts))

    @property
    def zero(self) -> "RingElement":
        return self.element([pr.zero for pr, _ in self.components])

    @property
    def one(self) -> "RingElement":
        return self.element([pr.one for pr, _ in self.components])

    def embed(self, c: int, f: Polynomial) -> "RingElement":
        """The element supported on component ``c`` only."""
        parts = [pr.zero for pr, _ in self.components]
        parts[c] = f
        return self.element(parts)

    def standard_monomials(self, c: int, d: int) -> list[tuple[int, ...]]:
        """Monomials of degree <= d not divisible by any leading monomial of
        the component's defining ideal — a linear basis of the quotient up to
        degree d."""
        from .poly import monomial_divides

        pr = self.components[c][0]
        lms = [g.leading_monomial() for g in self.gb(c)]
        return [
            m
            for m in pr.monomials_up_to_degree(d, self.budget)
            if not any(monomial_divides(lm, m) for lm in lms)
        ]

    def model(self) -> "FlatModel":
        if self._model is None:
            self._model = FlatModel(self)
        return self._model


class RingElement:
    """An element of an :class:`AmbientRing`: one polynomial per component,
    stored in normal form against the defining ideals."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: AmbientRing, parts: list[Polynomial]):
        if len(parts) != ring.ncomponents:
            raise ValueError("one polynomial per component required")
        self.ring = ring
        self.parts = [ring.nf(c, p) for c, p in enumerate(parts)]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def degree(self) -> int:
        """Max total degree of the normal-form representatives (-1 for 0)."""
        return max(p.total_degree() for p in self.parts)

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("elements of different ambient rings")
            return other
        if isinstance(other, int):
            return RingElement(
                self.ring, [pr.from_int(other) for pr, _ in self.ring.components]
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, [a + b for a, b in zip(self.parts, other.parts)])

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, [-a for a in self.parts])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, [a - b for a, b in zip(self.parts, other.parts)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, [a * b for a, b in zip(self.parts, other.parts)])

    __rmul__ = __mul__

    def scale(self, c) -> "RingElement":
        return RingElement(self.ring, [p.scale(c) for p in self.parts])

    __pow__ = power

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.ring, tuple(self.parts)))

    def render(self) -> str:
        if self.ring.ncomponents == 1:
            return self.ring.poly_ring(0).render(self.parts[0])
        return "(" + ", ".join(
            self.ring.poly_ring(c).render(p) for c, p in enumerate(self.parts)
        ) + ")"

    def __repr__(self):
        return self.render()


class RingMap:
    """A ring homomorphism between ambient rings.

    ``assignments[t] = (s, images)`` says the map into target component ``t``
    factors through source component ``s`` and sends its ``i``-th variable to
    ``images[i]`` (a polynomial in target component ``t``).  Coefficients
    pass through unchanged: over the supported fields (QQ and prime fields)
    every field automorphism is the identity, so a map is determined by
    these images alone.
    """

    def __init__(
        self,
        source: AmbientRing,
        target: AmbientRing,
        assignments: list[tuple[int, list[Polynomial]]],
    ):
        if len(assignments) != target.ncomponents:
            raise ValueError("one assignment per target component required")
        self.source = source
        self.target = target
        self.assignments = []
        for t, (s, images) in enumerate(assignments):
            if not 0 <= s < source.ncomponents:
                raise ValueError(f"no source component {s}")
            if len(images) != source.poly_ring(s).nvars:
                raise ValueError(
                    f"target component {t}: expected "
                    f"{source.poly_ring(s).nvars} images, got {len(images)}"
                )
            if any(im.ring != target.poly_ring(t) for im in images):
                raise ValueError(f"target component {t}: image in wrong ring")
            self.assignments.append((s, list(images)))

    @classmethod
    def on_polys(cls, source: AmbientRing, target: AmbientRing, images) -> "RingMap":
        """Convenience constructor for maps between one-component rings."""
        if source.is_product or target.is_product:
            raise ValueError("on_polys expects one-component rings")
        return cls(source, target, [(0, list(images))])

    @classmethod
    def identity(cls, ring: AmbientRing) -> "RingMap":
        return cls(ring, ring, [(c, ring.poly_ring(c).gens()) for c in range(ring.ncomponents)])

    def apply(self, el: RingElement) -> RingElement:
        if el.ring != self.source:
            raise ValueError("element not in the source ring")
        parts = []
        for t, (s, images) in enumerate(self.assignments):
            parts.append(el.parts[s].substitute(self.target.poly_ring(t), images))
        return RingElement(self.target, parts)

    def apply_poly(self, f: Polynomial) -> Polynomial:
        """Apply a one-component map directly to a polynomial."""
        if self.source.is_product or self.target.is_product:
            raise ValueError("apply_poly expects one-component rings")
        return self.apply(self.source.element([f])).parts[0]

    def is_well_defined(self) -> bool:
        """Each defining-ideal generator of the used source component must
        land in the target component's defining ideal."""
        for t, (s, images) in enumerate(self.assignments):
            for g in self.source.q_gens(s):
                image = g.substitute(self.target.poly_ring(t), images)
                if not self.target.nf(t, image).is_zero():
                    return False
        return True

    def compose(self, inner: "RingMap") -> "RingMap":
        """The map ``f -> self(inner(f))``."""
        if inner.target != self.source:
            raise ValueError("maps not composable")
        assignments = []
        for t, (mid, images) in enumerate(self.assignments):
            s, inner_images = inner.assignments[mid]
            composed = [
                im.substitute(self.target.poly_ring(t), images)
                for im in inner_images
            ]
            assignments.append((s, composed))
        return RingMap(inner.source, self.target, assignments)

    def __eq__(self, other):
        if not isinstance(other, RingMap):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            return False
        for t, ((s1, im1), (s2, im2)) in enumerate(
            zip(self.assignments, other.assignments)
        ):
            if s1 != s2:
                return False
            if any(not self.target.nf(t, a - b).is_zero() for a, b in zip(im1, im2)):
                return False
        return True

    def __hash__(self):
        return hash((self.source, self.target))

    def render(self) -> str:
        chunks = []
        for t, (s, images) in enumerate(self.assignments):
            names = self.source.poly_ring(s).names
            pr = self.target.poly_ring(t)
            chunks.append(
                ", ".join(f"{n} -> {pr.render(im)}" for n, im in zip(names, images))
            )
        return "; ".join(chunks)


class FlatModel:
    """One quotient ring presenting a whole product ring.

    Variables are orthogonal idempotents ``e_c`` (one per component) followed
    by a disjointly renamed copy of each component's variables, component
    ``c``'s copy at flat positions ``positions[c]``; the relation ideal
    forces ``e_c e_d = 0``, ``e_c^2 = e_c``, ``sum e_c = 1``, kills each
    component variable outside its own idempotent, and imposes the component
    defining ideals.  The resulting normal forms agree with componentwise
    computation, which lets the Groebner-based subalgebra machinery run
    unchanged over disjoint unions: :meth:`sieve` builds every subalgebra
    sieve over an ambient ring on this model.  :meth:`lift`, :meth:`to_poly`
    and :meth:`to_element` translate between the two; no other module reads
    the layout.  A one-component ring is its own model (and has no
    ``positions``).
    """

    def __init__(self, ring: AmbientRing):
        self.ring = ring
        k = ring.ncomponents
        if k == 1:
            self.poly_ring = ring.poly_ring(0)
            self.relations = list(ring.q_gens(0))
            return
        taken: set[str] = set()
        names = fresh_names([f"e{c + 1}" for c in range(k)], taken)
        self.positions = []
        for c in range(k):
            comp = ring.poly_ring(c).names
            self.positions.append(list(range(len(names), len(names) + len(comp))))
            names += fresh_names([f"{n}_{c + 1}" for n in comp], taken)
        self.poly_ring = P = PolyRing(ring.field, names, GREVLEX)
        e = [P.var(c) for c in range(k)]
        rels: list[Polynomial] = []
        for c in range(k):
            for d in range(c + 1, k):
                rels.append(e[c] * e[d])
            rels.append(e[c] * e[c] - e[c])
        rels.append(P.one - sum(e[1:], e[0]))
        for c in range(k):
            for j in self.positions[c]:
                for d in range(k):
                    if d != c:
                        rels.append(P.var(j) * e[d])
        for c in range(k):
            for g in ring.q_gens(c):
                rels.append(self.lift(c, g))
        self.relations = rels

    def sieve(self, gens, extra=(), budget: int | None = None) -> MembershipSieve:
        """The sieve of the subalgebra generated by the ring elements
        ``gens``, modulo the model's relations and the flat polynomials
        ``extra``; it answers queries on flat polynomials (:meth:`to_poly`)."""
        return MembershipSieve(self.poly_ring, [self.to_poly(g) for g in gens],
                               extra_relations=self.relations + list(extra),
                               budget=budget)

    def lift(self, c: int, f: Polynomial) -> Polynomial:
        """The flat polynomial ``e_c * f`` of the element that is the
        component polynomial ``f`` on component ``c`` and 0 elsewhere."""
        if self.ring.ncomponents == 1:
            return f
        P = self.poly_ring
        return embed(f, P, self.positions[c]) * P.var(c)

    def to_poly(self, el: RingElement) -> Polynomial:
        if self.ring.ncomponents == 1:
            return el.parts[0]
        total = self.poly_ring.zero
        for c, part in enumerate(el.parts):
            total = total + self.lift(c, part)
        return total

    def to_element(self, p: Polynomial) -> RingElement:
        """The ambient element presented by a flat normal form: the inverse
        of :meth:`to_poly`.

        A constant term lies on every component; any other term must involve
        one component only, through its idempotent, its variables or both.
        A term mixing components raises ``ValueError``.
        """
        ring = self.ring
        k = ring.ncomponents
        if k == 1:
            return ring.element([p])
        P = self.poly_ring
        owner = list(range(k)) + [c for c in range(k) for _ in self.positions[c]]
        shares = [P.zero] * k
        for m, coeff in p.terms.items():
            owners = {owner[j] for j, x in enumerate(m) if x}
            if len(owners) > 1:
                raise ValueError(
                    f"term {P.render_monomial(m)} mixes components {sorted(owners)}"
                )
            # e_c acts as 1 on its own component
            bare = P.monomial((0,) * k + m[k:], coeff)
            for c in owners or range(k):
                shares[c] = shares[c] + bare
        return ring.element(
            [unembed(shares[c], ring.poly_ring(c), self.positions[c]) for c in range(k)]
        )


def subalgebra_member_ring(
    f: RingElement,
    gens: list[RingElement],
    budget: int | None = None,
):
    """Exact subalgebra membership over an ambient ring (products included).

    Returns ``(True, certificate)`` or ``(False, None)``, the one-shot
    :meth:`~quotrel.groebner.MembershipSieve.query` of :meth:`FlatModel.sieve`.
    """
    model = f.ring.model()
    return model.sieve(gens, budget=budget).query(model.to_poly(f))
