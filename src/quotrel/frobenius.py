"""Frobenius twists and factorization exponents in positive characteristic.

The twist raises coefficients to a q-th power while leaving monomials alone.
Because our positive-characteristic coefficients always form a prime field
(where a^q = a), the q-th powers of a subalgebra's generators already
generate its image under the q-power map; finding the least q = p^r pushing
one algebra into another therefore reduces to per-generator membership
tests, run modulo the ambient defining ideal so nilpotents collapse on
their own.
"""

from .poly import Polynomial
from .ring import subalgebra_sieve

__all__ = ["FrobeniusWitness", "frobenius_twist", "frobenius_exponent"]


def _check_char(field):
    p = field.characteristic
    if p == 0:
        raise ValueError("Frobenius operations need positive characteristic")
    return p


def frobenius_twist(f: Polynomial, q: int) -> Polynomial:
    """Raise every coefficient of ``f`` to the q-th power.

    ``q`` must be a power of the (positive) characteristic; over a prime
    field the twist is the identity, but it is kept explicit so formulas
    stay valid verbatim for any coefficient arithmetic satisfying the field
    interface.
    """
    field = f.ring.field
    p = _check_char(field)
    qq = q
    while qq % p == 0:
        qq //= p
    if qq != 1:
        raise ValueError(f"{q} is not a power of the characteristic {p}")
    terms = {m: field.pow(c, q) for m, c in f.terms.items()}
    return Polynomial(f.ring, terms)


class FrobeniusWitness:
    """Least q = p^r with every generator's q-th power in the subalgebra."""

    def __init__(self, p: int, r: int, certificates):
        self.p = p
        self.r = r
        self.q = p**r
        self.certificates = certificates

    def render(self) -> str:
        lines = [f"q = {self.p}^{self.r} = {self.q}"]
        for g, cert in self.certificates:
            lines.append(
                f"  {g.render()}^{self.q} = "
                f"{cert.ring.render(cert)} in the generators"
            )
        return "\n".join(lines)


def frobenius_exponent(sub_gens, alg_gens, r_max: int = 8,
                       budget=None):
    """Minimal r <= r_max with every ``alg_gens`` power b^(p^r) inside the
    subalgebra generated by ``sub_gens``, or None if r_max is exhausted.

    All elements live in one ambient ring; membership runs modulo its
    defining ideals, and each hit comes with a substitution certificate.
    """
    if not alg_gens:
        raise ValueError("need at least one algebra generator")
    ring = alg_gens[0].ring
    p = _check_char(ring.field)
    for g in list(sub_gens) + list(alg_gens):
        if g.ring != ring:
            raise ValueError("generators must live in one ambient ring")
    member = subalgebra_sieve(ring, list(sub_gens), budget)
    for r in range(r_max + 1):
        q = p**r
        certs = []
        for b in alg_gens:
            ok, cert = member(b**q)
            if not ok:
                certs = None
                break
            certs.append((b, cert))
        if certs is not None:
            return FrobeniusWitness(p, r, certs)
    return None
