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
  finite list of algebra elements.

Conventions for disconnected sources (product rings): a function on a
disjoint union may be adjusted on each piece separately, so the kernel is
assembled componentwise — the shared unit, plus for every piece the
constant-free solutions of that piece's own compatibility conditions (equal
pullbacks where both maps restrict to the piece, pullback landing in the
other map's image algebra where they do not).
"""

from __future__ import annotations

from .eqrel import RelationPresentation, copy_difference
from .groebner import MembershipSieve, eliminate, normal_form
from .linalg import RowSpace, nullspace, rank_map
from .poly import GREVLEX, PolyRing, Polynomial, fresh_names
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


class TruncatedSubalgebra:
    """A subalgebra of an ambient ring known through degree ``d``.

    ``layers[e]`` is the canonical list of basis elements whose leading
    (most significant) monomial has degree ``e``; concatenating the layers
    gives a reduced-echelon basis of the whole degree-``d`` filtration piece.
    """

    def __init__(self, ring: AmbientRing, d: int, source, budget=None,
                 membership_fn=None):
        self.ring = ring
        self.d = d
        self.source = source
        self.budget = budget if budget is not None else ring.budget
        self.columns = ordered_columns(ring, d)
        self.rank = rank_map(self.columns)
        self.layers: list[list[RingElement]] = [[] for _ in range(d + 1)]
        self.space = RowSpace(ring.field, self.rank)
        self.membership_fn = membership_fn
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
        return self.space.contains(element_to_vector(el))

    def _add_row(self, el: RingElement, degree: int) -> None:
        self.layers[degree].append(el)
        self.space.insert(element_to_vector(el))

    # -- defining membership (independent recheck) ----------------------------

    def defining_membership(self, el: RingElement) -> bool:
        """Recheck the defining condition directly, without the linear
        algebra that produced the basis.

        For relation sources: the doubled-ring difference must lie in the
        relation ideal.  For map pairs: per target component, equal pullbacks
        when both maps use the same source piece; otherwise each piece's
        pullback must lie in the other map's image algebra.
        """
        from .groebner import ideal_member, subalgebra_member

        if self.membership_fn is not None:
            return self.membership_fn(el)
        src = self.source
        if isinstance(src, RelationPresentation):
            return ideal_member(copy_difference(el.parts[0], src.doubled), src.gb())
        s1, s2 = src
        target = s1.target
        for t in range(target.ncomponents):
            a1, im1 = s1.assignments[t]
            a2, im2 = s2.assignments[t]
            tpr = target.poly_ring(t)
            if a1 == a2:
                g1 = el.parts[a1].substitute(tpr, im1)
                g2 = el.parts[a2].substitute(tpr, im2)
                if not target.nf(t, g1 - g2).is_zero():
                    return False
            else:
                for a, im, other_im in ((a1, im1, im2), (a2, im2, im1)):
                    g = el.parts[a].substitute(tpr, im)
                    g = target.nf(t, g)
                    ok, _ = subalgebra_member(
                        g,
                        [target.nf(t, h) for h in other_im],
                        extra_relations=list(target.q_gens(t)),
                        budget=self.budget,
                    )
                    if not ok:
                        return False
        return True

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
        alg = RowSpace(field, self.rank)
        spanning: list[RingElement] = []
        products: set[tuple[int, int]] = set()

        def try_insert(el: RingElement) -> bool:
            if alg.insert(element_to_vector(el)) is None:
                return False
            spanning.append(el)
            return True

        try_insert(self.ring.one)

        def close(limit: int) -> None:
            changed = True
            while changed:
                changed = False
                for gi, (g, dg) in enumerate(gens):
                    for hi in range(len(spanning)):
                        if (gi, hi) in products:
                            continue
                        products.add((gi, hi))
                        prod = g * spanning[hi]
                        if prod.is_zero() or prod.degree() > self.d:
                            continue
                        if prod.degree() <= limit and try_insert(prod):
                            changed = True

        for e in range(1, self.d + 1):
            # products computed at lower degrees but of this degree
            products.clear()
            close(e)
            for f in self.layers[e]:
                res = alg.reduce(element_to_vector(f))
                if not res:
                    continue
                piv = min(res, key=self.rank.__getitem__)
                inv = field.inv(res[piv])
                res = {k: field.mul(v, inv) for k, v in res.items()}
                gen = vector_to_element(self.ring, res)
                gens.append((gen, e))
                counts[e] += 1
                try_insert(gen)
                products.clear()
                close(e)
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


def _relation_layers(trunc: TruncatedSubalgebra, rel: RelationPresentation) -> None:
    ring = trunc.ring
    pr = ring.poly_ring(0)
    field = ring.field
    cand = [m for (_, m) in trunc.columns]
    gb = rel.gb()
    rows: dict = {}
    for m in cand:
        nf = normal_form(copy_difference(pr.monomial(m), rel.doubled), gb)
        for mm, coeff in nf.terms.items():
            rows.setdefault(mm, {})[(0, m)] = coeff
    sols = nullspace(list(rows.values()), trunc.columns, field)
    rs = RowSpace(field, trunc.rank)
    for v in sols:
        rs.insert(v)
    for piv, row in zip(rs.pivots, rs.rows):
        el = vector_to_element(ring, row)
        trunc._add_row(el, sum(piv[1]))


def _pair_component_rows(
    trunc: TruncatedSubalgebra, s1: RingMap, s2: RingMap, c: int
) -> RowSpace:
    """Reduced-echelon solutions of the compatibility conditions restricted
    to source component ``c``."""
    ring = trunc.ring
    target = s1.target
    field = ring.field
    pr = ring.poly_ring(c)
    cand = [(cc, m) for (cc, m) in trunc.columns if cc == c]
    rows: dict = {}
    for t in range(target.ncomponents):
        a1, im1 = s1.assignments[t]
        a2, im2 = s2.assignments[t]
        if a1 != c and a2 != c:
            continue
        tpr = target.poly_ring(t)
        if a1 == c and a2 == c:
            for _, m in cand:
                mono = pr.monomial(m)
                dif = target.nf(t, mono.substitute(tpr, im1) - mono.substitute(tpr, im2))
                for mm, coeff in dif.terms.items():
                    rows.setdefault(("eq", t, mm), {})[(c, m)] = coeff
        else:
            own_images, other_images = (im1, im2) if a1 == c else (im2, im1)
            sieve = MembershipSieve(tpr, other_images,
                                    extra_relations=target.q_gens(t),
                                    budget=trunc.budget)
            zeros = (0,) * tpr.nvars
            side = 0 if a1 == c else 1
            for _, m in cand:
                img = pr.monomial(m).substitute(tpr, own_images)
                nf = sieve.reduce(img)
                for mm, coeff in nf.terms.items():
                    if mm[: tpr.nvars] != zeros:
                        rows.setdefault(("mem", t, side, mm), {})[(c, m)] = coeff
    sols = nullspace(list(rows.values()), cand, field)
    rs = RowSpace(field, trunc.rank)
    for v in sols:
        rs.insert(v)
    return rs


def _pair_layers(trunc: TruncatedSubalgebra, s1: RingMap, s2: RingMap) -> None:
    ring = trunc.ring
    if ring.ncomponents == 1:
        rs = _pair_component_rows(trunc, s1, s2, 0)
        for piv, row in zip(rs.pivots, rs.rows):
            trunc._add_row(vector_to_element(ring, row), sum(piv[1]))
        return
    trunc._add_row(ring.one, 0)
    for c in range(ring.ncomponents):
        rs = _pair_component_rows(trunc, s1, s2, c)
        for piv, row in zip(rs.pivots, rs.rows):
            if sum(piv[1]) == 0:
                continue  # each piece's constants fold into the shared unit
            trunc._add_row(vector_to_element(ring, row), sum(piv[1]))


def coequalizer_kernel_basis(source, d: int, budget=None) -> TruncatedSubalgebra:
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
        trunc = TruncatedSubalgebra(source.ambient, d, source, budget)
        _relation_layers(trunc, source)
        return trunc
    s1, s2 = source
    if not isinstance(s1, RingMap) or not isinstance(s2, RingMap):
        raise TypeError("expected a RelationPresentation or a pair of RingMaps")
    if s1.source != s2.source or s1.target != s2.target:
        raise ValueError("the two maps must share source and target")
    trunc = TruncatedSubalgebra(s1.source, d, (s1, s2), budget)
    _pair_layers(trunc, s1, s2)
    return trunc


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


def noetherian_probe(source, d: int, budget=None) -> GrowthReport:
    """Compute the kernel truncation and report generator growth."""
    if d < 2:
        raise ValueError("the growth probe needs degree bound >= 2")
    trunc = source if isinstance(source, TruncatedSubalgebra) else coequalizer_kernel_basis(source, d, budget)
    return GrowthReport(trunc)


def present_subalgebra(
    gens: list[RingElement],
    names=None,
    budget=None,
) -> tuple[PolyRing, list[Polynomial]]:
    """The exact ideal of algebraic relations among finitely many elements.

    Returns a polynomial ring on one variable per generator (named ``w1``,
    ``w2``, … unless ``names`` provides others) and the reduced basis of the
    kernel of the evaluation map sending those variables to the generators.
    Works over product ambient rings via the flattened presentation.
    """
    if not gens:
        raise ValueError("need at least one generator to present")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators must live in one ambient ring")
    model = ring.model()
    base = model.poly_ring
    if names is None:
        names = [f"w{j + 1}" for j in range(len(gens))]
    if len(names) != len(gens):
        raise ValueError("need exactly one name per generator")
    w_names = fresh_names(names, set(base.names))
    work = PolyRing(ring.field, tuple(base.names) + tuple(w_names), GREVLEX)
    T = [work.convert(r) for r in model.relations]
    for j, g in enumerate(gens):
        T.append(work.var(base.nvars + j) - work.convert(model.to_poly(g)))
    kern = eliminate(T, drop=list(range(base.nvars)), budget=budget)
    out_ring = PolyRing(ring.field, tuple(w_names), GREVLEX)
    return out_ring, [out_ring.convert(g) for g in kern]
