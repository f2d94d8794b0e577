"""Pinching: glue a closed locus of an affine coordinate ring along a finite map.

The data is a ring ``R`` (a single quotient or a finite product), an ideal
cutting out the locus, and a subalgebra ``S`` of the residue ring given by
lifted generators.  The glued ring is the preimage of ``S`` in ``R``; a
module-generation witness for the residue ring over ``S`` makes it finitely
generated, by lifts of the ``S``-generators, the ideal generators, and
products of module generators with ideal generators.

Verification of the push-out property is degree-truncated: spans of the
algebra generated by the output are compared with ideal spans degree by
degree, and failures come with an explicit witness element.
"""

from .groebner import MembershipSieve, groebner_basis, normal_form
from .linalg import Descending, FnRank, RowSpace, nullspace
from .poly import Polynomial, PolyRing
from .quotient import TruncatedSubalgebra, present_subalgebra
from .ring import AmbientRing, RingElement

__all__ = [
    "PinchInput",
    "PinchResult",
    "PushoutReport",
    "pinch_generators",
    "verify_pushout",
    "verify_pushout_diagram",
    "subalgebra_intersection_trunc",
]


def _flat_rank(poly_ring: PolyRing) -> FnRank:
    """Column significance for flat-ring monomials: degree first, then the
    monomial order, both descending."""
    key = poly_ring.order.key
    return FnRank(lambda m: Descending((sum(m), key(m))))


def _span_closure(poly_ring, gen_polys, d, gb, field):
    """Echelonized span of all products of ``gen_polys`` whose normal forms
    stay within degree ``d``, starting from 1.

    Returns the row space (columns ranked degree-descending, so rows with
    pivot degree <= e span exactly the degree-<= e filtered piece) and the
    list of product normal forms that contributed a new pivot.
    """
    space = RowSpace(field, _flat_rank(poly_ring))
    kept: list[Polynomial] = []
    seed = normal_form(poly_ring.one, gb)
    if not seed.is_zero():
        space.insert(dict(seed.terms))
        kept.append(seed)
    gens_nf = [normal_form(g, gb) for g in gen_polys]
    i = 0
    while i < len(kept):
        b = kept[i]
        i += 1
        for g in gens_nf:
            p = normal_form(b * g, gb)
            if p.is_zero() or p.total_degree() > d:
                continue
            if space.insert(dict(p.terms)) is not None:
                kept.append(p)
    return space, kept


class PinchInput:
    """Gluing data: ring, locus ideal, target subalgebra, finiteness witness.

    ``iz_gens`` generate the ideal of the locus being glued, ``s_lifts`` are
    lifts of algebra generators of the target subalgebra of the residue ring,
    and ``module_gens`` (together with 1) must generate the residue ring as a
    module over that subalgebra — checked degree by degree in
    :meth:`validate`.
    """

    def __init__(self, ring: AmbientRing, iz_gens, s_lifts, module_gens,
                 budget=None):
        self.ring = ring
        self.iz_gens = [g for g in iz_gens if not g.is_zero()]
        self.s_lifts = list(s_lifts)
        self.module_gens = list(module_gens)
        self.budget = budget if budget is not None else ring.budget
        self.model = ring.model()
        self.iz_polys = [self.model.to_poly(g) for g in self.iz_gens]
        self._res_gb = None
        self._ambient_gb = None

    def res_gb(self):
        """Groebner basis presenting the residue ring R/I_Z flatly."""
        if self._res_gb is None:
            self._res_gb = groebner_basis(
                list(self.model.relations) + self.iz_polys, self.budget
            )
        return self._res_gb

    def ambient_gb(self):
        if self._ambient_gb is None:
            self._ambient_gb = groebner_basis(
                list(self.model.relations), self.budget
            )
        return self._ambient_gb

    def residue_nf(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.res_gb())

    def validate(self, d: int):
        """Check that {1} and the module generators span the residue ring
        over the subalgebra in every degree <= d.

        Returns ``(True, None)`` or ``(False, witness)`` with a monomial
        element whose residue is missed.
        """
        P = self.model.poly_ring
        field = self.ring.field
        gb = self.res_gb()
        _, s_span = _span_closure(
            P, [self.model.to_poly(s) for s in self.s_lifts], d, gb, field
        )
        mod_space = RowSpace(field, _flat_rank(P))
        mods = [P.one] + [
            normal_form(self.model.to_poly(r), gb) for r in self.module_gens
        ]
        for r in mods:
            for b in s_span:
                p = normal_form(r * b, gb)
                if p.is_zero() or p.total_degree() > d:
                    continue
                mod_space.insert(dict(p.terms))
        for c in range(self.ring.ncomponents):
            pr = self.ring.poly_ring(c)
            for m in pr.monomials_up_to_degree(d, self.budget):
                nf = self.residue_nf(self.model.lift(c, pr.monomial(m)))
                if nf.is_zero():
                    continue
                if not mod_space.contains(dict(nf.terms)):
                    return False, self.ring.embed(c, pr.monomial(m))
        return True, None


class PinchResult:
    """Generators of the glued ring, their residue certificates, and a
    presentation of the algebra they generate."""

    def __init__(self, generators, certificates, pres_ring, pres_ideal,
                 degree):
        self.generators = generators
        self.certificates = certificates
        self.pres_ring = pres_ring
        self.pres_ideal = pres_ideal
        self.degree = degree

    def render(self) -> str:
        lines = [
            "generators: "
            + ", ".join(g.render() for g in self.generators),
            "presentation ring: " + ", ".join(self.pres_ring.names),
            "presentation ideal: "
            + (
                ", ".join(self.pres_ring.render(g) for g in self.pres_ideal)
                if self.pres_ideal
                else "(0)"
            ),
            f"verified through degree {self.degree}",
        ]
        return "\n".join(lines)


def pinch_generators(inp: PinchInput, d: int, names=None) -> PinchResult:
    """Generators of the glued ring from the finiteness witness.

    The set is: lifts of subalgebra generators, ideal generators, and
    products of module generators with ideal generators, with zeros and
    repeats dropped.  Each generator's residue is certified to lie in the
    target subalgebra; the presentation ideal of the generators is computed
    exactly.
    """
    ok, missing = inp.validate(d)
    if not ok:
        raise ValueError(
            "module generators do not span the residue ring through degree "
            f"{d}; first missing element: {missing.render()}"
        )
    gens: list[RingElement] = []
    for g in list(inp.s_lifts) + list(inp.iz_gens) + [
        r * h for r in inp.module_gens for h in inp.iz_gens
    ]:
        if g.is_zero() or any(g == seen for seen in gens):
            continue
        gens.append(g)
    res_sieve = MembershipSieve(
        inp.model.poly_ring,
        [inp.model.to_poly(s) for s in inp.s_lifts],
        extra_relations=list(inp.model.relations) + inp.iz_polys,
        budget=inp.budget,
    )
    certs = []
    for g in gens:
        member, cert = res_sieve.query(inp.model.to_poly(g))
        if not member:
            raise ValueError(
                f"residue of {g.render()} is not in the target subalgebra"
            )
        certs.append(cert)
    pres_ring, pres_ideal = present_subalgebra(gens, names=names,
                                               budget=inp.budget)
    return PinchResult(gens, certs, pres_ring, pres_ideal, d)


class PushoutReport:
    """Outcome of the degree-truncated push-out checks.

    ``checks`` is a list of ``(label, ok, witness)`` triples; ``witness`` is
    an element demonstrating the failure (or None).
    """

    def __init__(self, checks, degree):
        self.checks = checks
        self.degree = degree

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def witness(self):
        for _, ok, wit in self.checks:
            if not ok and wit is not None:
                return wit
        return None

    def render(self) -> str:
        lines = [f"push-out checks through degree {self.degree}:"]
        for label, ok, wit in self.checks:
            line = f"  {label}: {'PASS' if ok else 'FAIL'}"
            if not ok and wit is not None:
                line += f"  (witness: {wit.render()})"
            lines.append(line)
        lines.append("verdict: " + ("push-out" if self.passed
                                    else "NOT a push-out"))
        return "\n".join(lines)


def _ideal_multiples(inp: PinchInput, d: int):
    """Ambient normal forms of (monomial times ideal generator), degree <= d,
    paired with the multiplier data for witness reporting."""
    out = []
    gb = inp.ambient_gb()
    for h in inp.iz_gens:
        hp = inp.model.to_poly(h)
        for c in range(inp.ring.ncomponents):
            pr = inp.ring.poly_ring(c)
            for m in pr.monomials_up_to_degree(d, inp.budget):
                p = normal_form(inp.model.lift(c, pr.monomial(m)) * hp, gb)
                if p.is_zero() or p.total_degree() > d:
                    continue
                out.append((c, m, h, p))
    return out


def verify_pushout(inp: PinchInput, out: PinchResult, d: int) -> PushoutReport:
    """Degree-truncated verification that the output generates the glued ring.

    Three checks through degree ``d``: (a) every multiple of the locus ideal
    lies in the algebra generated by the output; (b) the output's residues
    and the target subalgebra generate each other; (c) in each degree, the
    part of the generated algebra vanishing on the locus equals the span of
    the ideal multiples.
    """
    model, field = inp.model, inp.ring.field
    P = model.poly_ring
    gen_polys = [model.to_poly(g) for g in out.generators]
    checks = []

    gen_sieve = MembershipSieve(P, gen_polys,
                                extra_relations=list(model.relations),
                                budget=inp.budget)
    multiples = _ideal_multiples(inp, d)
    ok_a, wit_a = True, None
    for c, m, h, p in multiples:
        if not gen_sieve.tag_only(gen_sieve.reduce(p)):
            ok_a = False
            wit_a = inp.ring.embed(c, inp.ring.poly_ring(c).monomial(m)) * h
            break
    checks.append(("ideal multiples land in the glued algebra", ok_a, wit_a))

    res_rels = list(model.relations) + inp.iz_polys
    s_polys = [model.to_poly(s) for s in inp.s_lifts]
    sieve_s = MembershipSieve(P, s_polys, extra_relations=res_rels,
                              budget=inp.budget)
    sieve_g = MembershipSieve(P, gen_polys, extra_relations=res_rels,
                              budget=inp.budget)
    ok_b, wit_b = True, None
    for g, gp in zip(out.generators, gen_polys):
        if not sieve_s.tag_only(sieve_s.reduce(gp)):
            ok_b, wit_b = False, g
            break
    if ok_b:
        for s, sp in zip(inp.s_lifts, s_polys):
            if not sieve_g.tag_only(sieve_g.reduce(sp)):
                ok_b, wit_b = False, s
                break
    checks.append(("residues generate the target subalgebra", ok_b, wit_b))

    space, _ = _span_closure(P, gen_polys, d, inp.ambient_gb(), field)
    ok_c, wit_c = True, None
    for e in range(d + 1):
        rows = [row for piv, row in zip(space.pivots, space.rows)
                if sum(piv) <= e]
        conds: dict = {}
        for j, row in enumerate(rows):
            nf = inp.residue_nf(Polynomial(P, dict(row)))
            for mm, coeff in nf.terms.items():
                conds.setdefault(mm, {})[j] = coeff
        sols = nullspace(list(conds.values()), list(range(len(rows))), field)
        kernel = RowSpace(field, _flat_rank(P))
        kernel_polys = []
        for v in sols:
            p = P.zero
            for j, coeff in v.items():
                p = p + Polynomial(P, dict(rows[j])).scale(coeff)
            if p.is_zero():
                continue
            if kernel.insert(dict(p.terms)) is not None:
                kernel_polys.append(p)
        ideal_space = RowSpace(field, _flat_rank(P))
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


def subalgebra_intersection_trunc(gens1, gens2, d: int,
                                  budget=None) -> TruncatedSubalgebra:
    """Degree-truncated basis of the intersection of two subalgebras.

    Both generator lists live in one polynomial ring.  Membership in either
    subalgebra is a linear condition on the coefficients of a general element
    (vanishing of every non-tag term of its sieve normal form), so the
    intersection in each degree is an exact nullspace computation.
    """
    if not gens1 or not gens2:
        raise ValueError("need generators for both subalgebras")
    pr = gens1[0].ring
    if any(g.ring != pr for g in list(gens1) + list(gens2)):
        raise ValueError("generator lists must share one polynomial ring")
    ring = AmbientRing.quotient(pr, (), budget)
    sieve1 = MembershipSieve(pr, list(gens1), budget=budget)
    sieve2 = MembershipSieve(pr, list(gens2), budget=budget)

    def member(el: RingElement) -> bool:
        f = el.parts[0]
        return sieve1.tag_only(sieve1.reduce(f)) and sieve2.tag_only(
            sieve2.reduce(f)
        )

    trunc = TruncatedSubalgebra(
        ring, d, ("intersection", tuple(gens1), tuple(gens2)),
        budget=budget, membership_fn=member,
    )
    n = pr.nvars
    rows: dict = {}
    for (_, m) in trunc.columns:
        for side, sieve in ((0, sieve1), (1, sieve2)):
            nf = sieve.reduce(pr.monomial(m))
            for mm, coeff in nf.terms.items():
                if any(mm[:n]):
                    rows.setdefault((side, mm), {})[(0, m)] = coeff
    sols = nullspace(list(rows.values()), trunc.columns, ring.field)
    rs = RowSpace(ring.field, trunc.rank)
    for v in sols:
        rs.insert(v)
    for piv, row in zip(rs.pivots, rs.rows):
        el = ring.element([Polynomial(pr, {m: c for (_, m), c in row.items()})])
        trunc._add_row(el, sum(piv[1]))
    return trunc


def verify_pushout_diagram(gens1, gens2, corner_gens, d: int,
                           budget=None) -> PushoutReport:
    """Test a claimed push-out square of subalgebras of one polynomial ring.

    A push-out corner must be exactly the intersection of the two sides:
    every corner generator must lie in both subalgebras, and through degree
    ``d`` the intersection must be spanned by the corner algebra.  The
    witness for a failed span is the first intersection basis element (in
    canonical order) outside the corner's span.
    """
    pr = corner_gens[0].ring
    checks = []
    ok1, wit1 = True, None
    for sieve_gens in (gens1, gens2):
        sieve = MembershipSieve(pr, list(sieve_gens), budget=budget)
        for g in corner_gens:
            if not sieve.tag_only(sieve.reduce(g)):
                ok1, wit1 = False, AmbientRing.quotient(pr, ()).embed(0, g)
                break
        if not ok1:
            break
    checks.append(("corner generators lie in both sides", ok1, wit1))

    inter = subalgebra_intersection_trunc(gens1, gens2, d, budget=budget)
    corner_space, _ = _span_closure(pr, list(corner_gens), d, [],
                                    pr.field)
    ok2, wit2 = True, None
    for b in inter.basis():
        if not corner_space.contains(dict(b.parts[0].terms)):
            ok2, wit2 = False, b
            break
    checks.append(
        ("intersection spanned by the corner through the degree bound",
         ok2, wit2)
    )
    return PushoutReport(checks, d)
