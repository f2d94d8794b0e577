"""Finite groups acting by linear substitutions, and their invariants.

Provides the averaging (Reynolds) projection when the group order is
invertible, graded bases of invariants in any characteristic via the
fixed-point linear system, and the elementary-symmetric-function generators
that exhibit any element as integral over the invariant ring.

:class:`GroupAction` checks the group axioms when it is built, on the
closure of the generating set ``generators`` that it picks: the standard
enumeration of a group from generators (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005).  The fixed-point system needs only
those generators: invariance under a generating set is invariance under the
group (Derksen & Kemper, *Computational Invariant Theory*, sec. 3.1).  Its condition,
:meth:`GroupAction.fixed_point_condition`, also solves the kernel of the
action's orbit relation in :mod:`quotrel.quotient`, affine actions
included, and the graded bases read their rows off the same generator
tables.  The Reynolds projection and the orbit equations run over every
element.
"""

from __future__ import annotations

from .linalg import condition_rows, nullspace
from .poly import GREVLEX, PolyRing, Polynomial, fresh_names
from .ring import AmbientRing, RingMap


def _key(m: RingMap) -> tuple:
    return tuple(m.assignments[0][1])


class GroupAction:
    """A finite group of affine-linear substitutions on a free polynomial
    ring, given as an explicit list of maps (the identity included).

    The constructor checks the group axioms while it picks ``generators``,
    the indices of the maps that, walking the list in order, the maps kept
    before them do not generate.  It closes under the kept maps, forming
    each product ``x * k`` of a reached map ``x`` and a kept ``k`` once, and
    raises ``ValueError`` when a product leaves the list or a kept map has
    no left inverse among those products.  That suffices: every map is a
    word in the kept ones, so the list is closed under composition, and in
    a finite closed set a one-sided inverse is an inverse.
    """

    def __init__(self, ring: AmbientRing, maps: list[RingMap]):
        if ring.is_product or ring.q_gens(0):
            raise ValueError("group actions are supported on free polynomial rings only")
        if not maps:
            raise ValueError("a group action needs at least the identity map")
        for m in maps:
            if m.source != ring or m.target != ring:
                raise ValueError("every map must be an endomorphism of the ring")
            for im in m.assignments[0][1]:
                if im.total_degree() > 1:
                    raise ValueError(
                        f"non-linear substitution {ring.poly_ring(0).render(im)!r}"
                    )
        self.ring = ring
        self.maps = list(maps)
        # the ring is free, so two maps are equal iff their images are
        index: dict[tuple, int] = {}
        for i, g in enumerate(self.maps):
            if index.setdefault(_key(g), i) != i:
                raise ValueError("duplicate group element in action")
        ident = index.get(_key(RingMap.identity(ring)))
        if ident is None:
            raise ValueError("action does not contain the identity")
        self.generators: list[int] = []
        generated, inverted = {ident}, set()
        for i in range(self.order):
            if i in generated:
                continue
            self.generators.append(i)
            # a pair (x, k) forms x * k: each map reached so far with the
            # new kept map, then each newly reached map with every kept one
            pairs = [(x, i) for x in generated]
            while pairs:
                x, k = pairs.pop()
                y = index.get(_key(self.maps[x].compose(self.maps[k])))
                if y is None:
                    raise ValueError("action is not closed under composition")
                if y == ident:
                    inverted.add(k)
                if y not in generated:
                    generated.add(y)
                    pairs += [(y, kept) for kept in self.generators]
        if len(inverted) < len(self.generators):
            raise ValueError("a group element has no inverse in the list")

    @property
    def order(self) -> int:
        return len(self.maps)

    def generator_tables(self) -> list:
        """The image tables of the maps of ``generators``; the ring is
        free, so a table holds each image as it is."""
        return [self.maps[i].table(0) for i in self.generators]

    def fixed_point_condition(self):
        """The linear map ``f -> {(j, m): c}``, ``c`` the coefficient of
        ``m`` in ``g(f) - f`` for the ``j``-th map ``g`` of
        ``generators``: it vanishes exactly on the invariants."""
        tables, field = self.generator_tables(), self.ring.field
        add_scaled, minus_one = field.add_scaled, field.neg(field.one)
        # ``apply`` builds a fresh dict, so it is updated in place
        return lambda f: {(j, m): c for j, table in enumerate(tables) for m, c in
                          add_scaled(table.apply(f).terms, f.terms, minus_one).items()}


def reynolds_project(f: Polynomial, action: GroupAction) -> Polynomial:
    """Average of the orbit of ``f``: the projection onto invariants.

    Needs the group order to be invertible in the field.
    """
    field = action.ring.field
    n = action.order
    if field.characteristic and n % field.characteristic == 0:
        raise ValueError(
            f"group order {n} is not invertible in characteristic {field.characteristic}"
        )
    total = sum((g.apply_poly(f) for g in action.maps), action.ring.poly_ring(0).zero)
    return total.scale(field.inv(field.of_int(n)))


def invariant_basis(action: GroupAction, d: int) -> list[list[Polynomial]]:
    """Canonical basis of the degree-``e`` invariants for every ``e <= d``.

    Solves the fixed-point system ``g(f) = f``, so it works in every
    characteristic (no averaging involved): the kernel of
    :meth:`GroupAction.fixed_point_condition`, built from the same tables
    without forming a polynomial per column.  It is solved one degree at a
    time, so every map must be linear: an affine map mixes degrees, and
    raises ``ValueError``.
    """
    pr = action.ring.poly_ring(0)
    for g in action.maps:
        for name, im in zip(pr.names, g.assignments[0][1]):
            if any(sum(m) != 1 for m in im.terms):
                raise ValueError(
                    f"invariant bases need linear maps, but {name} -> "
                    f"{pr.render(im)} is not homogeneous of degree 1; the "
                    "kernel-basis of the action's orbit relation (from-action) "
                    "finds the invariants of an affine action")
    out: list[list[Polynomial]] = [[pr.one]]
    tables = action.generator_tables()
    by_degree: list[list] = [[] for _ in range(d + 1)]
    for m in pr.monomials_up_to_degree(d):
        by_degree[sum(m)].append(m)
    for e in range(1, d + 1):
        columns = by_degree[e]
        rows = []
        for table in tables:
            rows += condition_rows(
                (m, pr.field.add_scaled(dict(table.monomial(m).terms), {m: 1}, pr.field.neg(1)))
                for m in columns)
        # the printed normalization: each invariant is 1 at its least
        # significant monomial, ordered by that monomial, most significant
        # first
        basis = nullspace(rows, columns[::-1], pr.field)[::-1]
        out.append([Polynomial(pr, v) for v in basis])
    return out


def orbit_symmetric_generators(
    r: Polynomial, action: GroupAction
) -> tuple[list[Polynomial], Polynomial]:
    """Elementary symmetric functions of the orbit of ``r`` and the monic
    equation they furnish.

    Returns ``(sigmas, equation)`` where ``equation`` is the expansion of
    ``prod_g (T - g(r))`` in a ring with one extra leading variable ``T``:
    a monic degree-``|G|`` polynomial in ``T`` with invariant coefficients
    ``(-1)^j sigma_j`` that vanishes at ``T = r`` (checked by substitution).
    """
    pr = action.ring.poly_ring(0)
    (t_name,) = fresh_names(["T"], set(pr.names))
    W = PolyRing(pr.field, (t_name,) + tuple(pr.names), GREVLEX)
    T = W.var(0)
    product = W.one
    orbit = [g.apply_poly(r) for g in action.maps]
    for val in orbit:
        product = product * (T - W.convert(val))
    n = action.order
    # split by powers of T: coefficient of T^(n-j) is (-1)^j sigma_j
    by_power: dict[int, dict] = {}
    for m, c in product.terms.items():
        by_power.setdefault(m[0], {})[m[1:]] = c
    sigmas = []
    minus_one = pr.field.neg(pr.field.one)
    for j in range(1, n + 1):
        coeffs = by_power.get(n - j, {})
        sign = pr.field.one if j % 2 == 0 else minus_one
        sigmas.append(
            Polynomial(pr, {m: pr.field.mul(c, sign) for m, c in coeffs.items()})
        )
    check = product.substitute(pr, [r] + list(pr.gens()))
    if not check.is_zero():
        raise RuntimeError("internal error: orbit equation fails at T = r")
    return sigmas, product
