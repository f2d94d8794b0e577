"""Descent-data effectivity for relations of the form (differences, cocycle).

Input: homogeneous polynomials ``f1..fm`` making the coordinate ring finite
over the subring they generate, plus a homogeneous candidate ``f(x, y)`` in
the doubled ring.  The relation ideal is ``J + (f)`` with
``J = (fi(x) - fi(y))``.

Write ``d`` for the degree of ``f``.  Inside the degree-``d`` part of the
doubled ring modulo ``J``:

* ``V`` (coboundaries) is spanned by the differences ``g(x) - g(y)`` of
  degree-``d`` monomials in the first block;
* ``W`` (cocycles) consists of the classes ``h`` whose defect
  ``h(x,y) + h(y,z) - h(x,z)`` vanishes modulo ``J(x,y) + J(y,z)`` in the
  tripled ring.

The defect kills ``J``.  For ``h`` in ``J`` the terms ``h(x,y)`` and
``h(y,z)`` lie in ``J(x,y)`` and ``J(y,z)``, and ``h(x,z)`` lies in
``J(x,z)``, which is inside ``J(x,y) + J(y,z)`` because
``fi(x) - fi(z) = (fi(x) - fi(y)) + (fi(y) - fi(z))``.  So ``h`` and its
normal form modulo ``J`` have the same defect, and ``W`` is the kernel of
the defect on the span of the degree-``d`` standard monomials of ``J``.

Every test reads degree ``d`` only (``V``'s normal forms, ``J``'s standard
monomials, the defects), so the homogeneous ``J`` and ``J(x,y) + J(y,z)``
take bases truncated at ``d``: a higher element divides no degree-``d`` term.

The relation is *effective* exactly when the class of ``f`` in ``W/V``
vanishes; a nonzero class exhibits descent data that descends to no actual
quotient.  The candidate itself is never added to ``V`` — otherwise the test
would trivialize.
"""

from __future__ import annotations

from .eqrel import copy_difference, relation_from_map
from .fields import Field
from .groebner import groebner_basis, ideal_member, normal_form, standard_monomials
from .linalg import RowSpace, condition_rows, nullspace, significance
from .poly import GREVLEX, PolyRing, Polynomial
from .ring import AmbientRing


class CocycleData:
    """A difference ideal ``J`` plus a homogeneous cocycle candidate.

    ``J`` is the relation of the map polynomials
    (:func:`~quotrel.eqrel.relation_from_map`), held as ``relation``: its
    doubled and tripled rings are this data's.
    """

    def __init__(self, ambient: AmbientRing, map_polys: list[Polynomial],
                 cocycle: Polynomial):
        if ambient.is_product or ambient.q_gens(0):
            raise ValueError("effectivity inputs live in a free polynomial ring")
        self.ambient = ambient
        pr = ambient.poly_ring(0)
        self.map_polys = [p if p.ring == pr else pr.convert(p) for p in map_polys]
        self.relation = relation_from_map(ambient, self.map_polys)
        self.doubled = self.relation.doubled
        if cocycle is None:
            cocycle = self.doubled.zero
        elif isinstance(cocycle, str):
            cocycle = self.doubled.parse(cocycle)
        elif cocycle.ring != self.doubled:
            cocycle = self.doubled.convert(cocycle)
        self.cocycle = cocycle
        self.degree = max(self.cocycle.total_degree(), 0)
        self.j_gens = self.relation.gens

    def validate(self) -> None:
        for p in self.map_polys:
            if p.is_zero() or not p.is_homogeneous():
                raise ValueError("map polynomials must be nonzero and homogeneous")
        if not self.cocycle.is_homogeneous():
            raise ValueError("the cocycle candidate must be homogeneous")
        # the coordinate ring must be module-finite over the map subring:
        # every second-block variable needs a monic equation
        unbounded = self.relation.unbounded()
        if unbounded:
            bad = ", ".join(map(repr, unbounded))
            raise ValueError(f"ring is not finite over the map subring ({bad} unbounded)")

    def j_basis(self):
        return groebner_basis(self.j_gens, self.degree)

    def sum_basis(self):
        """Basis of J(x,y) + J(y,z) in the tripled ring, to degree d."""
        to_tripled = self.relation.to_tripled
        gens = [to_tripled(g, 0, 1) for g in self.j_gens]
        gens += [to_tripled(g, 1, 2) for g in self.j_gens]
        return groebner_basis(gens, self.degree)

    def defect(self, h: Polynomial) -> Polynomial:
        """h(x,y) + h(y,z) - h(x,z) in the tripled ring."""
        to_tripled = self.relation.to_tripled
        return to_tripled(h, 0, 1) + to_tripled(h, 1, 2) - to_tripled(h, 0, 2)


def check_cocycle(data: CocycleData) -> bool:
    """Whether the candidate's defect lies in J(x,y) + J(y,z)."""
    data.validate()
    return ideal_member(data.defect(data.cocycle), data.sum_basis())


class EffectivityReport:
    def __init__(
        self,
        field: Field,
        degree: int,
        dim_v: int,
        dim_w: int,
        verdict: str,
        class_coords,
        complement_basis: list[Polynomial],
    ):
        self.field = field
        self.degree = degree
        self.dim_v = dim_v
        self.dim_w = dim_w
        self.dim_quotient = dim_w - dim_v
        self.verdict = verdict
        self.class_coords = class_coords
        self.complement_basis = complement_basis

    def render(self) -> str:
        lines = [
            f"effectivity test in degree {self.degree} over {self.field!r}",
            f"  coboundary space V: dim {self.dim_v}",
            f"  cocycle space    W: dim {self.dim_w}",
            f"  obstruction   W/V: dim {self.dim_quotient}",
        ]
        if self.complement_basis:
            lines.append("  W/V basis:")
            for g in self.complement_basis:
                lines.append(f"    {g.ring.render(g)}")
            coords = ", ".join(self.field.render(c) for c in self.class_coords)
            lines.append(f"  class of candidate: [{coords}]")
        else:
            lines.append("  class of candidate: [0]")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


def effectivity_test(data: CocycleData) -> EffectivityReport:
    """Decide whether the relation ``(J, f)`` is effective.

    Requires the cocycle condition (checked); compares the class of ``f``
    against the coboundary space in degree ``deg f``.  As ``J_d`` lies in the
    kernel of the defect, the cocycle condition is solved on the standard
    monomials of ``J`` alone, and its kernel vectors, reduced modulo ``J``
    already, join ``W`` as they are.
    """
    if not check_cocycle(data):
        raise ValueError("the candidate does not satisfy the cocycle condition")
    D = data.doubled
    field = D.field
    d = data.degree
    j_gb = data.j_basis()
    sum_gb = data.sum_basis()

    columns = D.monomials_of_degree(d)
    key = significance(columns)

    def nf_vec(p: Polynomial) -> dict:
        return dict(normal_form(p, j_gb).terms)

    # V: differences of first-block monomials of degree d
    V = RowSpace(field, key)
    pr = data.ambient.poly_ring(0)
    for m in pr.monomials_of_degree(d):
        V.insert(nf_vec(copy_difference(pr.monomial(m), D)))

    # W: solve the linearized cocycle condition on J's standard monomials
    standard = standard_monomials(columns, j_gb)
    rows = condition_rows(
        (m, normal_form(data.defect(D.monomial(m)), sum_gb).terms) for m in standard
    )
    W = RowSpace(field, key)
    for sol in nullspace(rows, standard, field):
        W.insert(sol)

    # W/V off W alone: a coboundary has zero defect, so V sits inside W and
    # V's pivots are among W's.  The canonical complement of V is the W rows
    # at the other pivots, and the class of f is its residue modulo V read in
    # W's coordinates at those rows: W is reduced, so the coordinate on a
    # row is the residue's entry at that row's pivot.
    outside = [piv for piv in W.pivots if piv not in V.row]
    comp_polys = [Polynomial(D, W.row[piv]) for piv in outside]

    residue = V.reduce(nf_vec(data.cocycle))
    if not W.contains(residue):
        raise RuntimeError("internal error: cocycle class escaped W")
    coords = [residue.get(piv, field.zero) for piv in outside]
    verdict = "noneffective" if residue else "effective"
    return EffectivityReport(
        field, d, V.dim, W.dim, verdict, coords, comp_polys
    )


def change_field(data: CocycleData, field: Field) -> CocycleData:
    """The same input data over another coefficient field (for the
    universality reruns across prime fields)."""
    pr = data.ambient.poly_ring(0)
    new_pr = PolyRing(field, pr.names, pr.order)
    ambient = AmbientRing.quotient(new_pr, [])
    new_doubled = PolyRing(field, data.doubled.names, GREVLEX)
    return CocycleData(ambient, [new_pr.convert(p) for p in data.map_polys],
                       new_doubled.convert(data.cocycle))
