"""Frobenius factorization exponents in positive characteristic.

Because our positive-characteristic coefficients always form a prime field
(where a^q = a), the q-th powers of a subalgebra's generators already
generate its image under the q-power map; finding the least q = p^r pushing
one algebra into another therefore reduces to per-generator membership
tests, run modulo the ambient defining ideal so nilpotents collapse on
their own.
"""

__all__ = ["FrobeniusWitness", "frobenius_exponent"]


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
    p = ring.field.characteristic
    if p == 0:
        raise ValueError("Frobenius operations need positive characteristic")
    for g in list(sub_gens) + list(alg_gens):
        if g.ring != ring:
            raise ValueError("generators must live in one ambient ring")
    model = ring.model()
    sieve = model.sieve(sub_gens, budget=budget)
    for r in range(r_max + 1):
        q = p**r
        certs = []
        for b in alg_gens:
            ok, cert = sieve.query(model.to_poly(b**q))
            if not ok:
                certs = None
                break
            certs.append((b, cert))
        if certs is not None:
            return FrobeniusWitness(p, r, certs)
    return None
