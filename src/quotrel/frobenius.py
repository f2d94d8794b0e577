"""Frobenius factorization exponents in positive characteristic.

Because our positive-characteristic coefficients always form a prime field
(where a^q = a), the q-th powers of a subalgebra's generators already
generate its image under the q-power map; finding the least q = p^r pushing
one algebra into another therefore reduces to per-generator membership
tests, run modulo the ambient defining ideal so nilpotents collapse on
their own.  For the same reason (sum c*m)^q = sum c*m^q, which is how
:func:`frobenius_power` forms q-th powers without multiplying.

A normal form against a Groebner basis respects products, nf(ab) =
nf(nf(a) nf(b)), so the normal form of b^(p^(r+1)) is that of the p-th
power of b^(p^r)'s normal form.  Each generator's normal form is carried
from one r to the next, and each step divides a p-th power of a small
residue, not b^q itself.
"""

from .groebner import normal_form
from .poly import Polynomial

__all__ = ["FrobeniusWitness", "frobenius_exponent", "frobenius_power"]


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


def frobenius_power(f: Polynomial, q: int) -> Polynomial:
    """``f ** q`` for a polynomial over a prime field and a power ``q`` of
    its characteristic: the exponents times ``q``."""
    return Polynomial(f.ring, {tuple(q * e for e in m): c for m, c in f.terms.items()})


def frobenius_exponent(sub_gens, alg_gens, r_max: int = 8):
    """Minimal r <= r_max with every ``alg_gens`` power b^(p^r) inside the
    subalgebra generated by ``sub_gens``, or None if r_max is exhausted.

    All elements live in one ambient ring; membership runs modulo its
    defining ideals, and each hit comes with a substitution certificate.
    """
    if not alg_gens:
        raise ValueError("need at least one algebra generator")
    ring = alg_gens[0].ring
    p = ring.field.characteristic
    if p == 0:
        raise ValueError("Frobenius operations need positive characteristic")
    for g in list(sub_gens) + list(alg_gens):
        if g.ring != ring:
            raise ValueError("generators must live in one ambient ring")
    model = ring.model()
    sieve = model.sieve(sub_gens)
    # per generator, the last r its power was normal-formed at and that
    # normal form (at first b itself, not yet divided); a generator that an
    # earlier failure skipped catches up in one division
    latest = [(0, sieve.work.convert(model.to_poly(b))) for b in alg_gens]
    for r in range(r_max + 1):
        certs = []
        for n, (s, f) in enumerate(latest):
            f = normal_form(frobenius_power(f, p ** (r - s)), sieve.gb)
            latest[n] = (r, f)
            ok, cert = sieve.certify(f)
            if not ok:
                certs = None
                break
            certs.append((alg_gens[n], cert))
        if certs is not None:
            return FrobeniusWitness(p, r, certs)
    return None
