"""Sparse multivariate polynomials with exact coefficients.

A polynomial is stored as a dict mapping exponent tuples to nonzero field
elements.  Rings carry a monomial order (lex, grevlex, or a block order built
from grevlex pieces); the order only affects leading terms, sorting and
rendering, never the arithmetic.

Each order also describes itself as a *weight matrix* (``weights``), whose
row products compare lexicographically as the order does.  From that matrix
a ring packs a monomial into one int (:class:`MonomialPacking`): the
exponents in the low fields (the *exponent word*), the row products above
them (the *order word*).  Division in :mod:`quotrel.groebner` runs on packed
ints; ``Polynomial.terms`` stays keyed by exponent tuples.

The text format accepted by :meth:`PolyRing.parse` and produced by
:meth:`PolyRing.render` is the usual one::

    2/3*x^3 + 1/2*x^2 - y*z + 4

Multiplication is written explicitly with ``*`` and powers with ``^``.
Rendering sorts terms in decreasing monomial order, so ``parse(render(f))``
returns ``f`` on the nose.

Open-ended searches (Buchberger runs, monomial enumerations) stop with
:class:`BudgetExceededError` past one *budget*, a context variable: ``with
budget(n):`` sets it for the enclosed code, :func:`current_budget` reads it,
and outside any scope it is ``DEFAULT_BUDGET``.
"""

from __future__ import annotations

import re
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from math import comb
from operator import add, mul, neg
from typing import Iterable, Sequence

from .fields import Field

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Raised when a polynomial or script fails to parse."""


DEFAULT_BUDGET = 100_000


class BudgetExceededError(RuntimeError):
    """A computation ran out of its resource budget before finishing."""


_BUDGET: ContextVar[int] = ContextVar("quotrel_budget", default=DEFAULT_BUDGET)


def current_budget() -> int:
    """The innermost :func:`budget` scope's limit, else ``DEFAULT_BUDGET``."""
    return _BUDGET.get()


@contextmanager
def budget(limit: int):
    """Cap the enclosed code's Groebner runs at ``limit`` S-pair reductions and
    basis elements, and its enumerations at ``limit`` monomials."""
    if not isinstance(limit, int):
        raise TypeError(f"a budget is an int, not {limit!r}")
    token = _BUDGET.set(limit)
    try:
        yield limit
    finally:
        _BUDGET.reset(token)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


def _grevlex_rows(n: int) -> list[Monomial]:
    """Grevlex as weight rows: the degree, then the partial sums
    S_{n-1}, ..., S_1 of the exponents (a smaller last exponent wins)."""
    return [(1,) * j + (0,) * (n - j) for j in range(n, 0, -1)]


class MonomialOrder:
    """A monomial order, exposed as a sort key (bigger key = bigger monomial)
    and as a weight matrix (``weights``) that orders monomials the same way."""

    name: str

    def key(self, m: Monomial):
        raise NotImplementedError

    def weights(self, nvars: int) -> list[Monomial]:
        """Rows of 0/1 weights, first row most significant: ``a`` is bigger
        than ``b`` iff the row products of ``a`` are lexicographically
        bigger.  The matrix is invertible."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class LexOrder(MonomialOrder):
    name = "lex"

    def key(self, m: Monomial):
        return m

    def weights(self, nvars: int) -> list[Monomial]:
        return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order.

    Monomials are compared first by total degree; ties are broken by the
    *smallest* exponent on the *last* variable winning, which the key encodes
    by negating the reversed exponent vector.
    """

    name = "grevlex"

    def key(self, m: Monomial):
        return (sum(m), tuple(map(neg, reversed(m))))

    def weights(self, nvars: int) -> list[Monomial]:
        return _grevlex_rows(nvars)


class BlockOrder(MonomialOrder):
    """Elimination order: the first ``front`` variables dominate the rest.

    Within each block the comparison is grevlex, so any monomial containing a
    front variable beats every monomial in the back variables alone.  Used to
    eliminate variables from ideals.
    """

    def __init__(self, front: int):
        self.front = front
        self.name = f"block({front})"

    def key(self, m: Monomial):
        f, b = m[: self.front], m[self.front :]
        return (
            sum(f),
            tuple(map(neg, reversed(f))),
            sum(b),
            tuple(map(neg, reversed(b))),
        )

    def weights(self, nvars: int) -> list[Monomial]:
        k = min(self.front, nvars)
        front = [row + (0,) * (nvars - k) for row in _grevlex_rows(k)]
        back = [(0,) * k + row for row in _grevlex_rows(nvars - k)]
        return front + back


LEX = LexOrder()
GREVLEX = GrevlexOrder()


def order_from_name(name: str) -> MonomialOrder:
    if name == "lex":
        return LEX
    if name == "grevlex":
        return GREVLEX
    m = re.fullmatch(r"block\((\d+)\)", name)
    if m:
        return BlockOrder(int(m.group(1)))
    raise ValueError(f"unknown monomial order {name!r}")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if the monomial with exponents ``a`` divides the one with ``b``."""
    return all(x <= y for x, y in zip(a, b))


class PackingOverflow(ArithmeticError):
    """A monomial does not fit the fields of a :class:`MonomialPacking`;
    the caller packs again at a wider field width."""


class MonomialPacking:
    """Monomials in ``nvars`` variables packed into single ints, for one
    weight matrix and one field ``width`` in bits.

    The low ``nvars`` fields hold the exponents, variable ``i`` in field
    ``i`` (the exponent word); the fields above ``shift`` hold the row
    products with the weight matrix, first row highest (the order word).
    A packed int is valid while every field is below 2^(width - 1), so the
    top bit of each field is a guard bit:

    * valid packed ints compare as the order does, since the order word
      decides and determines the monomial;
    * the product of two monomials is the sum of their packed ints, and
      it is valid iff ``sum & guard`` is 0: valid fields add without carry;
    * ``a`` divides ``b`` iff ``(b - a) & eguard`` is 0, since the lowest
      exponent field where ``b`` is smaller borrows into its guard bit;
      ``b - a`` is then the packed quotient.

    ``units[i]`` is the packed ``x_i``, so ``sum(map(mul, m, units))`` packs
    ``m`` with no overflow check.

    :meth:`unpack` reads 16-, 32- and 64-bit exponent fields with one
    little-endian ``struct`` call on the exponent word's bytes; other widths
    shift field by field.  A wider field would need an exponent past 2^63.
    """

    def __init__(self, nvars: int, weights: list[Monomial], width: int):
        self.width = width
        self.shift = nvars * width
        self._limit = 1 << (width - 1)
        self._offsets = range(0, self.shift, width)
        self._mask = (1 << width) - 1
        self.eguard = sum(self._limit << s for s in self._offsets)
        self._ones = self.eguard >> (width - 1)
        self._emask = (1 << self.shift) - 1
        self.guard = self.eguard | sum(
            self._limit << (self.shift + s) for s in range(0, len(weights) * width, width)
        )
        top = len(weights) - 1
        self.units = [
            (1 << (i * width))
            + (sum(row[i] << ((top - r) * width) for r, row in enumerate(weights)) << self.shift)
            for i in range(nvars)
        ]
        code = {16: "H", 32: "I", 64: "Q"}.get(width)
        self._fields = code and struct.Struct(f"<{nvars}{code}").unpack

    def pack(self, m: Monomial) -> int:
        # with 0/1 weights no field of m exceeds its degree
        if sum(m) >= self._limit:
            raise PackingOverflow(f"monomial {m} does not fit {self.width}-bit fields")
        return sum(map(mul, m, self.units))

    def support(self, k: int) -> int:
        """The guard bits of the nonzero exponent fields of the valid packed
        ``k``: two monomials are coprime iff their supports do not meet.

        Setting every exponent guard bit and subtracting 1 from every field
        clears exactly the guard bits of the zero fields, with no borrow."""
        eguard = self.eguard
        return ((k & self._emask | eguard) - self._ones) & eguard

    def unpack(self, k: int) -> Monomial:
        if self._fields:
            return self._fields((k & self._emask).to_bytes(self.shift // 8, "little"))
        mask = self._mask
        return tuple((k >> s) & mask for s in self._offsets)


def fresh_names(wanted: Iterable[str], taken: set[str]) -> list[str]:
    """Each wanted name, prefixed with ``_`` until it is not in ``taken``;
    the chosen names are added to ``taken``."""
    out = []
    for name in wanted:
        while name in taken:
            name = "_" + name
        taken.add(name)
        out.append(name)
    return out


def power(base, e: int):
    """``base ** e`` by square-and-multiply, for polynomials and ring
    elements alike (anything with ``ring.one`` and ``*``)."""
    if e < 0:
        raise ValueError("negative exponent")
    result = base.ring.one
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


class MonomialImages:
    """The substitution ``x_i -> images[i]`` into ``target``, as a linear map
    on monomials whose values are memoized.

    The image of a monomial ``m`` is ``T(m) = reduce(T(m') * P_i(e))``,
    where ``x_i`` is the last variable of ``m``, ``e`` its exponent and
    ``m'`` is ``m`` without it; ``P_i(e) = reduce(images[i] ** e)`` comes
    from :func:`power` and is cached per ``(i, e)``.  So each new monomial
    costs one product, and the recursion is at most ``nvars`` deep.
    ``reduce`` (default: none) maps a target polynomial to its normal form
    modulo an ideal, and must be linear and multiplicative modulo it, like
    a normal form against a Groebner basis.
    """

    def __init__(self, target: PolyRing, images: Sequence["Polynomial"], reduce=None):
        self.target = target
        self.images = list(images)
        self.reduce = reduce
        one = target.one
        self._table: dict[Monomial, Polynomial] = {
            (0,) * len(self.images): reduce(one) if reduce else one}
        self._powers: dict[tuple[int, int], Polynomial] = {}

    def power(self, i: int, e: int) -> "Polynomial":
        """``P_i(e)``: the reduced ``e``-th power of ``images[i]``."""
        p = self._powers.get((i, e))
        if p is None:
            p = power(self.images[i], e)
            if self.reduce:
                p = self.reduce(p)
            self._powers[i, e] = p
        return p

    def monomial(self, m: Monomial) -> "Polynomial":
        """``T(m)``, the image of the monomial with exponents ``m``."""
        t = self._table.get(m)
        if t is None:
            i = max(j for j, e in enumerate(m) if e)
            rest = m[:i] + (0,) * (len(m) - i)
            t = self.power(i, m[i])
            if any(rest):
                t = self.monomial(rest) * t
                if self.reduce:
                    t = self.reduce(t)
            self._table[m] = t
        return t

    def apply(self, f: "Polynomial") -> "Polynomial":
        """The image of ``f``: the sum of ``c * T(m)`` over its terms."""
        add_scaled, monomial = self.target.field.add_scaled, self.monomial
        terms: dict[Monomial, object] = {}
        for m, c in f.terms.items():
            add_scaled(terms, monomial(m).terms, c)
        return Polynomial(self.target, terms)


def embed(f: "Polynomial", target: "PolyRing",
          positions: Sequence[int | None]) -> "Polynomial":
    """``f`` rewritten in ``target``: source variable ``i`` becomes target
    variable ``positions[i]`` and coefficients are kept.

    A position may be ``None`` only for a variable that does not occur in
    ``f``; the placed positions must be distinct.  This is the one place
    where exponent tuples move between rings (doubled and tripled rings,
    flat models of products, renamed rings); :func:`unembed` inverts it.
    """
    n, k = target.nvars, len(positions)
    start = positions[0] if k else 0
    contiguous = start is not None and list(positions) == list(range(start, start + k))
    if contiguous and 0 <= start <= n - k:
        # one block: pad the exponent tuples
        if k == n:
            return Polynomial(target, dict(f.terms))
        pre, post = (0,) * start, (0,) * (n - start - k)
        return Polynomial(target, {pre + m + post: c for m, c in f.terms.items()})
    image = [j for j in positions if j is not None]
    if len(set(image)) != len(image) or image and (min(image) < 0 or max(image) >= n):
        raise ValueError(f"positions {list(positions)} do not fit {target!r} injectively")
    terms = {}
    for m, c in f.terms.items():
        e = [0] * n
        for i, x in enumerate(m):
            if x:
                j = positions[i]
                if j is None:
                    raise ValueError(f"variable {f.ring.names[i]!r} not in target ring")
                e[j] = x
        terms[tuple(e)] = c
    return Polynomial(target, terms)


def unembed(g: "Polynomial", source: "PolyRing",
            positions: Sequence[int | None]) -> "Polynomial":
    """The inverse of :func:`embed`: the ``f`` in ``source`` with
    ``embed(f, g.ring, positions) == g``.

    Raises ``ValueError`` when a term of ``g`` uses a target variable that
    no source variable is sent to.
    """
    image = set(positions) - {None}
    outside = [j for j in range(g.ring.nvars) if j not in image]
    terms = {}
    for m, c in g.terms.items():
        if any(m[j] for j in outside):
            raise ValueError(
                f"term {g.ring.render_monomial(m)} lies outside {source!r}"
            )
        terms[tuple(0 if j is None else m[j] for j in positions)] = c
    return Polynomial(source, terms)


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------


class PolyRing:
    """A polynomial ring ``field[names]`` with a monomial order."""

    def __init__(self, field: Field, names: Iterable[str], order: MonomialOrder = GREVLEX):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        if not all(map(self._name_re.fullmatch, self.names)):
            raise ValueError(f"invalid variable names in {self.names}")
        self.order = order
        self.nvars = len(self.names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._packings: dict[int, MonomialPacking] = {}
        # groebner_basis's memo: generator tuple -> (budget needed, basis)
        self._bases: dict[tuple, tuple[int, list]] = {}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}; {self.order!r}]"

    # -- constructors -------------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.of_int(n))

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, expts: Monomial, coeff=None) -> "Polynomial":
        c = self.field.one if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero
        return Polynomial(self, {tuple(expts): c})

    def convert(self, f: "Polynomial") -> "Polynomial":
        """Rebuild ``f`` in this ring.

        Variables are matched by name (only those that occur in ``f`` need
        exist here); the coefficient field may change (rationals reduce mod p
        when the denominator stays invertible).
        """
        src = f.ring
        g = embed(f, self, [self._index.get(n) for n in src.names])
        if src.field == self.field:
            return g
        field = self.field
        terms = {}
        for m, c in g.terms.items():
            if src.field.characteristic:
                c = field.of_int(int(c))
            elif field.characteristic and c.denominator % field.characteristic == 0:
                raise ZeroDivisionError(
                    f"denominator {c.denominator} not invertible in {field!r}"
                )
            else:
                c = field.of_fraction(c.numerator, c.denominator)
            if not field.is_zero(c):
                terms[m] = c
        return Polynomial(self, terms)

    def packing(self, width: int) -> MonomialPacking:
        """This ring's monomial encoding at field ``width`` (cached)."""
        pk = self._packings.get(width)
        if pk is None:
            pk = MonomialPacking(self.nvars, self.order.weights(self.nvars), width)
            self._packings[width] = pk
        return pk

    # -- monomial enumeration ------------------------------------------------

    def _check_monomial_count(self, count: int, what: str):
        limit = current_budget()
        if count > limit:
            raise BudgetExceededError(
                f"monomial enumeration exceeded budget: {count} monomials "
                f"{what} in {self.nvars} variables, budget {limit}"
            )

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All exponent tuples of total degree exactly ``d``, in decreasing order.

        Raises :class:`BudgetExceededError`, before enumerating any, when
        there are more of them than the budget in force.
        """
        out: list[Monomial] = []

        def rec(prefix: list[int], remaining: int, pos: int):
            if pos == self.nvars - 1:
                out.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining, -1, -1):
                rec(prefix + [e], remaining - e, pos + 1)

        if self.nvars == 0:
            return [()] if d == 0 else []
        self._check_monomial_count(
            comb(self.nvars + d - 1, d), f"of degree {d}")
        rec([], d, 0)
        out.sort(key=self.order.key, reverse=True)
        return out

    def monomials_up_to_degree(self, d: int) -> list[Monomial]:
        """All exponent tuples of total degree at most ``d``, degree by
        degree; the same budget check as :meth:`monomials_of_degree`, on the
        total count."""
        self._check_monomial_count(
            comb(self.nvars + d, d), f"up to degree {d}")
        out: list[Monomial] = []
        for k in range(d + 1):
            out.extend(self.monomials_of_degree(k))
        return out

    # -- parsing / rendering -------------------------------------------------

    _name_re = re.compile(r"[^\W\d]\w*")  # the script lexer's names without "-"
    # the first alternative that matches at a position wins
    _token_re = re.compile(
        rf"(?P<num>\d+(?:/\d+)?)|(?P<name>{_name_re.pattern})|(?P<op>[-+*^()])"
        r"|(?P<skip>\s+)|(?P<bad>.)"
    )

    def _tokenize(self, text: str) -> list[tuple[str, str]]:
        tokens = []
        for m in self._token_re.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r} in {text!r}")
            if kind != "skip":
                tokens.append((kind, m.group()))
        tokens.append(("end", ""))
        return tokens

    def parse(self, text: str) -> "Polynomial":
        """Parse a polynomial expression over this ring's variables."""
        tokens = self._tokenize(text)
        pos = 0

        def peek():
            return tokens[pos]

        def take(kind=None, value=None):
            nonlocal pos
            k, v = tokens[pos]
            if kind is not None and k != kind:
                raise ParseError(f"expected {kind}, found {v!r} in {text!r}")
            if value is not None and v != value:
                raise ParseError(f"expected {value!r}, found {v!r} in {text!r}")
            pos += 1
            return v

        def atom() -> Polynomial:
            k, v = peek()
            if k == "num":
                take()
                if "/" in v:
                    num, den = map(int, v.split("/"))
                    if self.field.is_zero(self.field.of_int(den)):
                        raise ParseError(
                            f"denominator {den} not invertible in {self.field!r}")
                    return self.constant(self.field.of_fraction(num, den))
                return self.from_int(int(v))
            if k == "name":
                take()
                if v not in self._index:
                    raise ParseError(
                        f"unknown variable {v!r}; ring variables are {', '.join(self.names)}"
                    )
                return self.var(self._index[v])
            if (k, v) == ("op", "("):
                take()
                inner = expr()
                take("op", ")")
                return inner
            raise ParseError(f"unexpected token {v!r} in {text!r}")

        def factor() -> Polynomial:
            sign = 1
            while peek() == ("op", "-"):
                take()
                sign = -sign
            base = atom()
            if peek() == ("op", "^"):
                take()
                e = take("num")
                if "/" in e:
                    raise ParseError(f"exponent must be an integer, found {e!r}")
                base = base ** int(e)
            return -base if sign < 0 else base

        def term() -> Polynomial:
            result = factor()
            while peek() == ("op", "*"):
                take()
                result = result * factor()
            return result

        def expr() -> Polynomial:
            k, v = peek()
            negate = False
            if (k, v) == ("op", "-"):
                take()
                negate = True
            result = term()
            if negate:
                result = -result
            while peek()[0] == "op" and peek()[1] in "+-":
                op = take()
                rhs = term()
                result = result - rhs if op == "-" else result + rhs
            return result

        result = expr()
        if peek()[0] != "end":
            raise ParseError(f"trailing input {peek()[1]!r} in {text!r}")
        return result

    def render_monomial(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def render(self, f: "Polynomial") -> str:
        """Deterministic text form: terms in decreasing monomial order."""
        if not f.terms:
            return "0"
        field = self.field
        pieces = []
        for i, m in enumerate(sorted(f.terms, key=self.order.key, reverse=True)):
            c = f.terms[m]
            negative = field.characteristic == 0 and c < 0
            mag = -c if negative else c
            mono = self.render_monomial(m)
            if mono == "1":
                body = field.render(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{field.render(mag)}*{mono}"
            if i == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)


class Polynomial:
    """Immutable sparse polynomial over a :class:`PolyRing`.

    Nothing mutates ``terms`` after construction, so the hash, the leading
    monomial and ``_packed``, the packed form that ``normal_form`` divides
    by, are computed once, on first use (a remainder or basis element that
    :mod:`quotrel.groebner` reads off packed terms has its leading monomial
    set).
    """

    __slots__ = ("ring", "terms", "_hash", "_lm", "_packed")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._lm = None
        self._packed = None

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree, with the convention deg 0 = -1."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> Monomial:
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=self.ring.order.key)
        return self._lm

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def coeff(self, m: Monomial):
        return self.terms.get(tuple(m), self.ring.field.zero)

    def constant_coeff(self):
        return self.coeff((0,) * self.ring.nvars)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        self._check(other)
        field = self.ring.field
        return Polynomial(self.ring, field.add_scaled(dict(self.terms), other.terms, field.one))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        add_scaled, terms = self.ring.field.add_scaled, {}
        for m1, c1 in self.terms.items():
            add_scaled(terms, {monomial_mul(m1, m2): c2 for m2, c2 in other.terms.items()}, c1)
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero
        return Polynomial(self.ring, {m: field.mul(c, v) for m, v in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.leading_coeff()))

    __pow__ = power

    def mul_monomial(self, m: Monomial, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero
        return Polynomial(
            self.ring,
            {monomial_mul(t, m): field.mul(c, v) for t, v in self.terms.items()},
        )

    # -- calculus and substitution -------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``i``.

        In characteristic p the exponent is reduced mod p, so d/dx of x^p is 0.
        """
        field = self.ring.field
        terms: dict[Monomial, object] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            c2 = field.mul(c, field.of_int(m[i]))
            if field.is_zero(c2):
                continue
            e = list(m)
            e[i] -= 1
            terms[tuple(e)] = c2
        return Polynomial(self.ring, terms)

    def substitute(self, target: PolyRing, images: list["Polynomial"]) -> "Polynomial":
        """Evaluate this polynomial at ``images`` inside ``target``.

        ``images[i]`` replaces variable ``i``; coefficients are taken as they
        are, so ``target`` must share this ring's field.  A one-shot
        :class:`MonomialImages` table; a caller that substitutes the same
        images again keeps the table instead.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("one image per variable required")
        return MonomialImages(target, images).apply(self)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return self.ring.render(self)
