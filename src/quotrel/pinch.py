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

from .groebner import MembershipSieve
from .linalg import Descending, FnRank, RowSpace, condition_rows, nullspace
from .poly import Polynomial
from .quotient import (
    TruncatedSubalgebra,
    ordered_columns,
    product_closure,
    vector_to_element,
)
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


def _flat_space(ring: AmbientRing) -> RowSpace:
    """An empty row space over the monomials of a one-component ring, ranked
    by degree first, then the monomial order, both descending, so rows with
    pivot degree <= e span exactly the degree-<= e filtered piece."""
    key = ring.poly_ring(0).order.key
    return RowSpace(ring.field, FnRank(lambda m: Descending((sum(m), key(m)))))


def _product_span(ring: AmbientRing, gens, d: int):
    """The span of all products of ``gens`` (elements of a one-component
    ring) whose normal forms stay within degree ``d``, starting from 1, and
    the products that enlarged it."""
    space = _flat_space(ring)
    kept = product_closure(
        gens, [ring.one], d,
        lambda el: space.insert(dict(el.parts[0].terms)) is not None,
    )
    return space, kept


class PinchInput:
    """Gluing data: ring, locus ideal, target subalgebra, finiteness witness.

    ``iz_gens`` generate the ideal of the locus being glued, ``s_lifts`` are
    lifts of algebra generators of the target subalgebra of the residue ring,
    and ``module_gens`` (together with 1) must generate the residue ring as a
    module over that subalgebra — checked degree by degree in
    :meth:`validate`.  ``flat`` and ``residue`` are the ring and its residue
    ring R/I_Z as one-component rings on the flat model's polynomial ring.
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
        P = self.model.poly_ring
        self.flat = AmbientRing.quotient(P, self.model.relations, self.budget)
        self.residue = AmbientRing.quotient(
            P, self.model.relations + self.iz_polys, self.budget)
        self._sieves: dict[tuple, MembershipSieve] = {}

    def sieve(self, gens, locus: bool = False) -> MembershipSieve:
        """The sieve of the subalgebra generated by the ring elements
        ``gens``, over the ring or, with ``locus``, over its residue ring
        R/I_Z; built on first use and shared by the pinch and its push-out
        check."""
        key = (tuple(gens), locus)
        if key not in self._sieves:
            self._sieves[key] = self.model.sieve(
                gens, self.iz_polys if locus else (), self.budget)
        return self._sieves[key]

    def validate(self, d: int):
        """Check that {1} and the module generators span the residue ring
        over the subalgebra in every degree <= d.

        Returns ``(True, None)`` or ``(False, witness)`` with a monomial
        element whose residue is missed.
        """
        # Listed first: the monomial budget rejects a degree bound too
        # large to enumerate before any product is formed.
        monomials = [
            (c, m)
            for c in range(self.ring.ncomponents)
            for m in self.ring.poly_ring(c).monomials_up_to_degree(d, self.budget)
        ]
        res = self.residue

        def to_res(el: RingElement) -> RingElement:
            return res.element([self.model.to_poly(el)])

        _, s_span = _product_span(res, [to_res(s) for s in self.s_lifts], d)
        mod_space = _flat_space(res)
        for r in [res.one] + [to_res(r) for r in self.module_gens]:
            for b in s_span:
                p = r * b
                if not p.is_zero() and p.degree() <= d:
                    mod_space.insert(dict(p.parts[0].terms))
        for c, m in monomials:
            mono = self.ring.poly_ring(c).monomial(m)
            nf = res.nf(0, self.model.lift(c, mono))
            if not nf.is_zero() and not mod_space.contains(dict(nf.terms)):
                return False, self.ring.embed(c, mono)
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
    res_sieve = inp.sieve(inp.s_lifts, locus=True)
    certs = []
    for g in gens:
        member, cert = res_sieve.query(inp.model.to_poly(g))
        if not member:
            raise ValueError(
                f"residue of {g.render()} is not in the target subalgebra"
            )
        certs.append(cert)
    pres_ring, pres_ideal = inp.sieve(gens).presentation(names)
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
    for h in inp.iz_gens:
        hp = inp.model.to_poly(h)
        for c in range(inp.ring.ncomponents):
            pr = inp.ring.poly_ring(c)
            for m in pr.monomials_up_to_degree(d, inp.budget):
                p = inp.flat.nf(0, inp.model.lift(c, pr.monomial(m)) * hp)
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
    ok_c, wit_c = True, None
    for e in range(d + 1):
        rows = [row for piv, row in zip(space.pivots, space.rows)
                if sum(piv) <= e]
        conds = condition_rows(
            (j, inp.residue.nf(0, Polynomial(P, dict(row))).terms)
            for j, row in enumerate(rows)
        )
        # the witness search reads each combination as 1 at its last row,
        # ordered by that row
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
    sieves = [MembershipSieve(pr, list(gens), budget=budget)
              for gens in (gens1, gens2)]

    def member(el: RingElement) -> bool:
        return all(sieve.contains(el.parts[0]) for sieve in sieves)

    columns = ordered_columns(ring, d)
    rows = condition_rows(
        (col, {(side, mm): coeff
               for side, sieve in enumerate(sieves)
               for mm, coeff in sieve.residue(pr.monomial(col[1])).terms.items()})
        for col in columns
    )
    basis = [vector_to_element(ring, v)
             for v in nullspace(rows, columns, ring.field)]
    return TruncatedSubalgebra(ring, d, columns, basis, member)


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
    ring = AmbientRing.quotient(pr, ())
    checks = []
    ok1, wit1 = True, None
    for sieve_gens in (gens1, gens2):
        sieve = MembershipSieve(pr, list(sieve_gens), budget=budget)
        for g in corner_gens:
            if not sieve.contains(g):
                ok1, wit1 = False, ring.embed(0, g)
                break
        if not ok1:
            break
    checks.append(("corner generators lie in both sides", ok1, wit1))

    inter = subalgebra_intersection_trunc(gens1, gens2, d, budget=budget)
    corner_space, _ = _product_span(
        ring, [ring.element([g]) for g in corner_gens], d)
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
