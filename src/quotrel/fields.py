"""Exact coefficient fields: the rationals and prime fields.

Over QQ a coefficient is a plain int when it is integral and a reduced
`fractions.Fraction` otherwise, never a `Fraction` with denominator 1; over
FF(p) it is a plain int in ``range(p)``.  There is deliberately no floating
point anywhere; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Common interface for the two coefficient fields.

    Subclasses supply ``of_int``, ``of_fraction``, ``add``, ``sub``, ``mul``,
    ``neg``, ``inv``, ``is_zero`` and the nonnegative power ``_pow``; the
    interface derives ``div``, ``pow`` and ``add_scaled`` from them.  Both
    fields write 0 and 1 as the ints ``zero`` and ``one``.
    """

    characteristic: int
    zero = 0
    one = 1

    def of_int(self, n: int):
        raise NotImplementedError

    def of_fraction(self, num: int, den: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """``a`` to the integer power ``e``; ``pow(a, 0)`` is ``one``, also
        for a = 0.  A negative exponent inverts ``a`` first, so zero to a
        negative power raises `ZeroDivisionError` like `inv`."""
        if e < 0:
            return self._pow(self.inv(a), -e)
        return self._pow(a, e)

    def _pow(self, a, e: int):
        raise NotImplementedError

    def add_scaled(self, out: dict, w: dict, c) -> dict:
        """``out += c * w`` in place, for sparse vectors: dicts from labels
        to nonzero elements.  An entry that cancels is dropped; returns
        ``out``."""
        add, mul = self.add, self.mul
        for k, x in w.items():
            old = out.get(k)
            y = mul(c, x) if old is None else add(old, mul(c, x))
            if y:
                out[k] = y
            else:
                out.pop(k, None)
        return out

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def render(self, a) -> str:
        return str(a)


class RationalField(Field):
    """QQ: an integral value is a plain int, any other a reduced `Fraction`.

    Every operation returns its result in that form, so integral data, the
    common case, runs on int arithmetic; a `Fraction` result with
    denominator 1 is demoted to its numerator.  ``str``, ``==``, ``<`` and
    ``hash`` agree between ``n`` and ``Fraction(n)``, so rendering and
    polynomial equality do not see the representation.
    """

    characteristic = 0

    def of_int(self, n: int) -> int:
        return n

    def of_fraction(self, num: int, den: int):
        return _demote(Fraction(num, den))

    # add, sub, mul and neg inline _demote: an int result needs no check.
    # add and mul put a Fraction operand first: int + Fraction would take
    # Fraction.__radd__, whose numbers.Rational check is the slower path.
    def add(self, a, b):
        c = b + a if a.__class__ is int else a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = b * a if a.__class__ is int else a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        c = -a
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def inv(self, a):
        if a.__class__ is int and (a == 1 or a == -1):
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # an exact Fraction: 1 / a would be a float for an int a
        return _demote(Fraction(a.denominator, a.numerator))

    def _pow(self, a, e: int):
        return _demote(a**e)

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """FF(p): least nonnegative residues mod a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.characteristic = p

    def of_int(self, n: int) -> int:
        return n % self.p

    def of_fraction(self, num: int, den: int) -> int:
        return self.mul(self.of_int(num), self.inv(self.of_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def _pow(self, a, e: int):
        return pow(a, e, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self):
        return f"FF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("FF", self.p))


# Miller-Rabin on the first 13 primes as bases decides primality exactly
# below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime; `ValueError` where the bases do not decide."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= _PRIME_BOUND:
        raise ValueError(f"cannot certify that {n} is prime: the test is exact "
                         f"below {_PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d * 2^s with d odd; a base a proves n composite unless
    # a^d = 1 or a^(d * 2^r) = -1 for some r < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)


def _demote(c):
    """A QQ value in canonical form: the int when ``c`` is integral."""
    return c.numerator if c.denominator == 1 else c


QQ = RationalField()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field FF(p) (instances are cached)."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]
