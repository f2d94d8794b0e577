"""Finite equivalence relations on an affine scheme, presented by ideals.

A relation on ``X = Spec A[x]/Q`` is an ideal ``I`` in a doubled polynomial
ring: one block of variables for each of the two projections.  A
:class:`RelationPresentation` is built once and keeps what it is built from:
explicit gluing generators (``gens``), the polynomials of a finite map
``f : X -> Y`` (``maps``; the relation is ``X x_Y X``), or a finite group
action (``action``; the orbit relation).  ``full_gens`` adds both copies of
the ambient ideal ``Q`` to ``gens``.  The module checks the four
equivalence-relation axioms — reflexivity, symmetry, transitivity,
finiteness — in either of two modes:

* ``scheme``: ideal-theoretic containments (the strict reading);
* ``set``: the same containments up to radicals, which only sees the
  underlying point sets.

Transitivity in set mode uses radical membership of each generator; this is
equivalent to factoring through the reduction of the composed correspondence
and is taken as given here rather than re-proved.

Finiteness asks whether the relation's coordinate ring is a finite module
over the first projection; this is a property of the scheme structure, so it
is checked identically in both modes.
"""

from __future__ import annotations

import string

from .groebner import (
    finite_over_block,
    groebner_basis,
    ideal_intersect,
    ideal_member,
    radical_member,
)
from .invariants import GroupAction
from .poly import BlockOrder, GREVLEX, PolyRing, Polynomial, embed
from .ring import AmbientRing


def copy_names(names, copies: int) -> list[list[str]]:
    """Names for ``copies`` disjoint copies of a variable list.

    Plain names get a copy index appended (``x, y`` doubles to
    ``x1, y1, x2, y2``).  If every name is already a single letter plus an
    index (``x1, x2``), the letter is rotated instead — the first copy keeps
    the original names and later copies become ``y1, y2``, ``z1, z2``, … —
    so indices keep meaning "coordinate number".  Anything else falls back to
    ``name_c1, name_c2``, … suffixes.
    """
    names = list(names)
    if all(not n[-1].isdigit() for n in names):
        return [[f"{n}{i + 1}" for n in names] for i in range(copies)]
    letters = {n[0] for n in names}
    if len(letters) == 1 and all(
        len(n) >= 2 and n[0] in string.ascii_letters and n[1:].isdigit() for n in names
    ):
        base = names[0][0]
        pool = [c for c in "xyzuvwabcdefghijklmnopqrst" if c != base]
        out = [names]
        for i in range(copies - 1):
            out.append([pool[i] + n[1:] for n in names])
        return out
    return [[f"{n}_c{i + 1}" for n in names] for i in range(copies)]


def copy_positions(nvars: int, *copies: int) -> list[int]:
    """:func:`~quotrel.poly.embed` positions sending the ``k``-th block of
    ``nvars`` variables to copy ``copies[k]`` of a doubled or tripled ring:
    ``copy_positions(n, 1)`` puts an ambient polynomial in the second copy,
    ``copy_positions(n, 0, 2)`` turns I(x,y) into I(x,z)."""
    return [c * nvars + i for c in copies for i in range(nvars)]


def copy_difference(f: Polynomial, doubled: PolyRing) -> Polynomial:
    """``f(x) - f(y)``: the ambient polynomial ``f`` in the first copy of the
    doubled ring minus ``f`` in the second."""
    n = f.ring.nvars
    return embed(f, doubled, copy_positions(n, 0)) - embed(f, doubled, copy_positions(n, 1))


class RelationPresentation:
    """An equivalence-relation candidate: an ideal in the doubled ring, built
    from one of ``gens`` (doubled-ring polynomials or text, kept verbatim for
    witness reports), ``maps`` (generated by the ``f(x) - f(y)``) or
    ``action`` (the reduced intersection of the graph ideals
    ``(y - g(x))``); with none, the indiscrete relation (0).
    """

    def __init__(self, ambient: AmbientRing, gens=(), maps: list[Polynomial] | None = None,
                 action: GroupAction | None = None):
        if action is not None and not isinstance(action, GroupAction):
            raise TypeError("expected a GroupAction")
        if bool(gens) + (maps is not None) + (action is not None) > 1:
            raise ValueError("a relation is built from one of gens, maps or action")
        if ambient.is_product:
            raise ValueError(
                "relation presentations require a connected ambient scheme; "
                "encode disjoint unions as a pair of maps instead"
            )
        self.ambient = ambient
        pr = ambient.poly_ring(0)
        self.nvars = n = pr.nvars
        self.copies = copy_names(pr.names, 3)
        self.doubled = D = PolyRing(pr.field, self.copies[0] + self.copies[1], GREVLEX)
        self.tripled = PolyRing(pr.field, sum(self.copies, []), GREVLEX)
        # second block in front: finiteness over the first projection
        self.swapped = PolyRing(pr.field, self.copies[1] + self.copies[0], BlockOrder(n))
        self.fibre = PolyRing(pr.field, self.copies[1], GREVLEX)
        self.maps, self.action = maps, action
        if maps is not None:
            self.maps = [f if f.ring == pr else pr.convert(f) for f in maps]
            gens = [copy_difference(f, D) for f in self.maps]
        elif action is not None:
            if action.ring != ambient:
                raise ValueError("the action is on another ring")
            graphs = [[D.var(n + i) - embed(im, D, copy_positions(n, 0))
                       for i, im in enumerate(g.assignments[0][1])] for g in action.maps]
            current = graphs[0]
            for nxt in graphs[1:]:
                current = ideal_intersect(current, nxt)
            gens = groebner_basis(current)
        self.gens = [D.parse(g) if isinstance(g, str) else g if g.ring == D
                     else D.convert(g) for g in gens]
        self.full_gens = self.gens + [embed(q, D, copy_positions(n, copy))
                                      for copy in (0, 1) for q in ambient.q_gens(0)]

    def gb(self) -> list[Polynomial]:
        return groebner_basis(self.full_gens)

    def swap(self, f: Polynomial) -> Polynomial:
        """Exchange the two variable blocks."""
        return embed(f, self.doubled, copy_positions(self.nvars, 1, 0))

    def to_tripled(self, f: Polynomial, *copies: int) -> Polynomial:
        """A doubled-ring polynomial ``f(x, y)`` on the given two copies of
        the tripled ring: ``to_tripled(f, 0, 2)`` is ``f(x, z)``."""
        return embed(f, self.tripled, copy_positions(self.nvars, *copies))

    def composed_gens(self) -> list[Polynomial]:
        """Generators of I(x,y) + I(y,z) in the tripled ring, the ambient
        copies included."""
        return [self.to_tripled(g, *copies) for copies in ((0, 1), (1, 2))
                for g in self.full_gens]

    def defect(self, h: Polynomial) -> Polynomial:
        """h(x,y) + h(y,z) - h(x,z) in the tripled ring."""
        return self.to_tripled(h, 0, 1) + self.to_tripled(h, 1, 2) - self.to_tripled(h, 0, 2)

    def graded_degree(self) -> int | None:
        """The largest degree of ``full_gens`` if all are homogeneous."""
        if all(g.is_homogeneous() for g in self.full_gens):
            return max((g.total_degree() for g in self.full_gens), default=0)
        return None

    def unbounded(self) -> list[Polynomial]:
        """The second-block variables with no monic equation over the first
        block, read off a block-order basis with the second block in front:
        empty exactly when the relation's coordinate ring is a finite module
        over the first projection.

        A homogeneous I is read in its fibre over the origin (graded
        Nakayama; Eisenbud, *Commutative Algebra*, ch. 4), in grevlex on the
        second block: y_i^N leads an element of I in the block order iff it
        leads one of the fibre, since a homogeneous element's terms with a
        first-block variable have lower second-block degree than its image
        in the fibre, which lifts back with the same leading monomial."""
        n = self.nvars
        if self.graded_degree() is None:
            gens = [self.swapped.convert(g) for g in self.full_gens]
        else:
            gens = [Polynomial(self.fibre, {m[n:]: c for m, c in g.terms.items()
                                            if not any(m[:n])}) for g in self.full_gens]
        return [self.swapped.var(i) for i in finite_over_block(n, groebner_basis(gens))[1]]

    def render(self) -> str:
        return "(" + ", ".join(self.doubled.render(g) for g in self.gens) + ")"


def relation_from_map(ambient: AmbientRing, fs: list[Polynomial]) -> RelationPresentation:
    """The relation identifying points with equal values under ``fs``; an
    empty list yields the indiscrete relation (0)."""
    return RelationPresentation(ambient, maps=fs)


def relation_from_group_action(action: GroupAction) -> RelationPresentation:
    """The relation "same orbit" on the action's free ring."""
    return RelationPresentation(getattr(action, "ring", None), action=action)


class AxiomReport:
    """Outcome of the four equivalence-relation axioms, with witnesses.

    Each witness is a polynomial that fails the defining membership of its
    axiom (for finiteness: a first-block variable with no monic equation over
    the second block).
    """

    AXES = ("reflexivity", "symmetry", "transitivity", "finiteness")

    def __init__(self, mode: str):
        self.mode = mode
        self.verdicts: dict[str, bool] = {}
        self.witnesses: dict[str, Polynomial | None] = {a: None for a in self.AXES}

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def render(self) -> str:
        lines = [f"equivalence-relation check (mode={self.mode})"]
        width = max(len(a) for a in self.AXES) + 1
        for a in self.AXES:
            ok = self.verdicts[a]
            line = f"  {a + ':':<{width}} {'pass' if ok else 'FAIL'}"
            w = self.witnesses[a]
            if w is not None:
                line += f"   witness: {w.ring.render(w)}"
            lines.append(line)
        return "\n".join(lines)


def verify_relation(rel: RelationPresentation, mode: str = "scheme") -> AxiomReport:
    """Check reflexivity, symmetry, transitivity and finiteness.

    In scheme mode every containment is ideal membership; in set mode the
    memberships are relaxed to radical membership (finiteness is structural
    and checked the same way in both modes).  The reported witness is the
    first failing generator in the presentation's own order, untouched.
    """
    if mode not in ("scheme", "set"):
        raise ValueError("mode must be 'scheme' or 'set'")
    report = AxiomReport(mode)

    def member(f, gens, degree):
        if mode == "scheme":
            return ideal_member(f, groebner_basis(gens, degree))
        return radical_member(f, gens)

    def check(axis, candidates, gens, degree=None):
        # the first candidate outside the ideal of ``gens`` is the witness
        witness = next((f for f in candidates if not member(f, gens, degree)), None)
        report.verdicts[axis] = witness is None
        report.witnesses[axis] = witness

    # reflexivity: I vanishes on the diagonal
    diag = [copy_difference(v, rel.doubled) for v in rel.ambient.poly_ring(0).gens()]
    check("reflexivity", rel.gens, diag + rel.full_gens[len(rel.gens):])

    # symmetry: the block swap preserves I.  Since swapping is an involution,
    # one containment forces equality.
    check("symmetry", map(rel.swap, rel.gens), rel.full_gens)

    # transitivity: I(1,3) inside I(1,2) + I(2,3) in the tripled ring; for
    # homogeneous I a basis truncated at I's degree decides it
    I13 = (rel.to_tripled(g, 0, 2) for g in rel.full_gens)
    check("transitivity", I13, rel.composed_gens(), rel.graded_degree())

    # finiteness: O(R) is a finite module over the first block
    unbounded = rel.unbounded()
    report.verdicts["finiteness"] = not unbounded
    report.witnesses["finiteness"] = unbounded[0] if unbounded else None
    return report
