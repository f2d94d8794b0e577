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

from itertools import chain

from .groebner import MembershipSieve
from .linalg import RowSpace, condition_rows, nullspace
from .poly import Polynomial
from .quotient import ProductSpan, TruncatedSubalgebra
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
    """An empty row space over the monomials of a one-component ring, keyed
    by degree first, then the monomial order.  Rows with pivot degree <= e
    come last and span exactly the degree-<= e filtered piece."""
    key = ring.poly_ring(0).order.key
    return RowSpace(ring.field, lambda m: (sum(m), key(m)))


def _product_span(ring: AmbientRing, gens, d: int):
    """The span of all products of ``gens`` (elements of a one-component
    ring) whose normal forms stay within degree ``d``, starting from 1, and
    the products that enlarged it."""
    space = _flat_space(ring)
    span = ProductSpan(ring, d, lambda el: space.insert(el.parts[0].terms) is not None, gens)
    return space, [b for b, _ in span.kept]


class PinchInput:
    """Gluing data: ring, locus ideal, target subalgebra, finiteness witness.

    ``iz_gens`` generate the ideal of the locus being glued, ``s_lifts`` are
    lifts of algebra generators of the target subalgebra of the residue ring,
    and ``module_gens`` (together with 1) must generate the residue ring as a
    module over that subalgebra — checked degree by degree in
    :meth:`validate`.  ``flat`` and ``residue`` are the ring and its residue
    ring R/I_Z as one-component rings on the flat model's polynomial ring.
    """

    def __init__(self, ring: AmbientRing, iz_gens, s_lifts, module_gens):
        self.ring = ring
        self.iz_gens = [g for g in iz_gens if not g.is_zero()]
        self.s_lifts = list(s_lifts)
        self.module_gens = list(module_gens)
        self.model = ring.model()
        self.iz_polys = [self.model.to_poly(g) for g in self.iz_gens]
        P = self.model.poly_ring
        self.flat = AmbientRing.quotient(P, self.model.relations)
        self.residue = AmbientRing.quotient(P, self.model.relations + self.iz_polys)
        self._sieves: dict[tuple, MembershipSieve] = {}

    def sieve(self, gens, locus: bool = False) -> MembershipSieve:
        """The sieve of the subalgebra generated by the ring elements
        ``gens``, over the ring or, with ``locus``, over its residue ring
        R/I_Z; built on first use and shared by the pinch and its push-out
        check."""
        key = (tuple(gens), locus)
        if key not in self._sieves:
            self._sieves[key] = self.model.sieve(
                gens, self.iz_polys if locus else ())
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
            for m in self.ring.poly_ring(c).monomials_up_to_degree(d)
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
                    mod_space.insert(p.parts[0].terms)
        for c, m in monomials:
            mono = self.ring.poly_ring(c).monomial(m)
            nf = res.nf(0, self.model.lift(c, mono))
            if not nf.is_zero() and not mod_space.contains(nf.terms):
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
            for m in pr.monomials_up_to_degree(d):
                p = inp.flat.nf(0, inp.model.lift(c, pr.monomial(m)) * hp)
                if p.is_zero() or p.total_degree() > d:
                    continue
                out.append((c, m, h, p))
    return out


def verify_pushout(inp: PinchInput, out: PinchResult, d: int) -> PushoutReport:
    """Degree-truncated verification that the output generates the glued ring.

    Three checks through degree ``d``: (a) every multiple of the locus ideal
    lies in the algebra generated by the output; (b) the output's residues
    and the target subalgebra generate each other; (c) in each degree e, the
    part of the generated algebra vanishing on the locus (the kernel of the
    residue map on the product rows of pivot degree <= e) equals the span of
    the ideal multiples, one span grown degree by degree.  An ideal multiple
    vanishes on the locus, so it lies in that kernel exactly when it lies in
    the product span: degree-first echelon rows of pivot degree <= e span
    the span's whole degree-<= e part.  So the kernel, of dimension rows less
    rank, is the ideal span if it has its dimension and every multiple lies
    in the product span; only a level where that fails is solved for a witness.
    """
    model, field = inp.model, inp.ring.field
    P = model.poly_ring

    gen_sieve = inp.sieve(out.generators)
    gen_polys = gen_sieve.gens
    space, _ = _product_span(
        inp.flat, [inp.flat.element([gp]) for gp in gen_polys], d)
    multiples = _ideal_multiples(inp, d)
    # whether each multiple lies in the product span, asked once for (a) and (c)
    spanned = [space.contains(p.terms) for _, _, _, p in multiples]
    # a multiple in the product span lies in the algebra: only others need the sieve
    wit_a = next((inp.ring.embed(c, inp.ring.poly_ring(c).monomial(m)) * h
                  for (c, m, h, p), inside in zip(multiples, spanned)
                  if not inside and not gen_sieve.contains(p)), None)

    sieve_s = inp.sieve(inp.s_lifts, locus=True)
    sieve_g = inp.sieve(out.generators, locus=True)
    # the first output residue outside the target, else the first target
    # generator outside the output's residues
    wit_b = next((el for sieve, els, polys in (
        (sieve_s, out.generators, gen_polys), (sieve_g, inp.s_lifts, sieve_s.gens))
        for el, p in zip(els, polys) if not sieve.contains(p)), None)

    pivots, rows = space.pivots, space.rows
    residues = [inp.residue.nf(0, Polynomial(P, row)).terms for row in rows]
    levels = [[] for _ in range(d + 1)]
    for (_, _, _, p), inside in zip(multiples, spanned):
        levels[p.total_degree()].append((p, inside))
    ideal_space, residue_space = _flat_space(inp.flat), _flat_space(inp.residue)

    def combination(v: dict, start: int) -> Polynomial:
        # the kernel element of the solution v on the rows from start on,
        # summed as one coefficient dict
        terms = {}
        for j, coeff in v.items():
            field.add_scaled(terms, rows[start + j], coeff)
        return Polynomial(P, terms)

    wit_c, start = None, len(rows)
    for e, level in enumerate(levels):
        for p, _ in level:
            ideal_space.insert(p.terms)
        # the rows of pivot degree <= e are a suffix of the space's rows
        while start and sum(pivots[start - 1]) <= e:
            start -= 1
            residue_space.insert(residues[start])
        # the ideal span lies in the kernel when its multiples lie in the
        # product span, and then equal dimensions make them equal
        if (len(rows) - start - residue_space.dim == ideal_space.dim
                and all(inside for _, inside in level)):
            continue
        # the witness search reads each combination as 1 at its last row,
        # ordered by that row
        sols = nullspace(condition_rows(enumerate(residues[start:])),
                         list(range(len(rows) - start))[::-1], field)[::-1]
        kernel = (combination(v, start) for v in sols)
        wit = next(chain((p for p in kernel if not ideal_space.contains(p.terms)),
                         (p for p, inside in level if not inside)), None)
        if wit is not None:
            wit_c = model.to_element(wit)
            break
    return PushoutReport([
        ("ideal multiples land in the glued algebra", wit_a is None, wit_a),
        ("residues generate the target subalgebra", wit_b is None, wit_b),
        ("kernel of the gluing equals the ideal in each degree", wit_c is None, wit_c),
    ], d)


def _side_sieves(gens1, gens2) -> list[MembershipSieve]:
    """The sieves of two subalgebras of one polynomial ring."""
    if not gens1 or not gens2:
        raise ValueError("need generators for both subalgebras")
    pr = gens1[0].ring
    if any(g.ring != pr for g in list(gens1) + list(gens2)):
        raise ValueError("generator lists must share one polynomial ring")
    return [MembershipSieve(pr, list(gens)) for gens in (gens1, gens2)]


def subalgebra_intersection_trunc(gens1, gens2, d: int) -> TruncatedSubalgebra:
    """Degree-truncated basis of the intersection of two subalgebras.

    Both generator lists live in one polynomial ring.  Membership in either
    subalgebra is a linear condition on the coefficients of a general element
    (vanishing of every non-tag term of its sieve normal form), so the
    intersection in each degree is an exact nullspace computation.
    """
    return _intersection_trunc(_side_sieves(gens1, gens2), d)


def _intersection_trunc(sieves: list[MembershipSieve], d: int) -> TruncatedSubalgebra:
    def condition(el: RingElement) -> dict:
        return {(side, m): coeff for side, sieve in enumerate(sieves)
                for m, coeff in sieve.residue(el.parts[0]).terms.items()}

    return TruncatedSubalgebra(AmbientRing.quotient(sieves[0].ring, ()), d, condition)


def verify_pushout_diagram(gens1, gens2, corner_gens, d: int) -> PushoutReport:
    """Test a claimed push-out square of subalgebras of one polynomial ring.

    A push-out corner must be exactly the intersection of the two sides:
    every corner generator must lie in both subalgebras, and through degree
    ``d`` the intersection must be spanned by the corner algebra.  The
    witness for a failed span is the first intersection basis element (in
    canonical order) outside the corner's span; an empty corner is the
    constants.
    """
    sieves = _side_sieves(gens1, gens2)
    inter = _intersection_trunc(sieves, d)
    ring = inter.ring
    # the first corner generator outside the first side, else the second
    wit1 = next((ring.embed(0, g) for sieve in sieves for g in corner_gens
                 if not sieve.contains(g)), None)
    corner_space, _ = _product_span(
        ring, [ring.element([g]) for g in corner_gens], d)
    wit2 = next((b for b in inter.basis()
                 if not corner_space.contains(b.parts[0].terms)), None)
    return PushoutReport([
        ("corner generators lie in both sides", wit1 is None, wit1),
        ("intersection spanned by the corner through the degree bound",
         wit2 is None, wit2),
    ], d)
