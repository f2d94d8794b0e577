"""Finite equivalence relations on an affine scheme, presented by ideals.

A relation on ``X = Spec A[x]/Q`` is an ideal ``I`` in a doubled polynomial
ring: one block of variables for each of the two projections.  The module
builds such presentations (from explicit generators, from a list of
polynomials defining a finite map, or from a finite group action) and checks
the four equivalence-relation axioms — reflexivity, symmetry, transitivity,
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
    normal_form,
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
    """An equivalence-relation candidate: an ideal in the doubled ring.

    ``gens`` is the user-supplied generator list, kept verbatim (witness
    reporting refers to it); the presented ideal always also contains both
    copies of the ambient defining ideal, collected in ``full_gens``.
    """

    def __init__(
        self,
        ambient: AmbientRing,
        gens: list[Polynomial],
        source: str = "explicit",
    ):
        if ambient.is_product:
            raise ValueError(
                "relation presentations require a connected ambient scheme; "
                "encode disjoint unions as a pair of maps instead"
            )
        self.ambient = ambient
        pr = ambient.poly_ring(0)
        self.nvars = pr.nvars
        self.copies = copy_names(pr.names, 3)
        self.doubled = PolyRing(pr.field, self.copies[0] + self.copies[1], GREVLEX)
        self.tripled = PolyRing(pr.field, sum(self.copies, []), GREVLEX)
        # second block in front: finiteness over the first projection
        self.swapped = PolyRing(pr.field, self.copies[1] + self.copies[0],
                                BlockOrder(self.nvars))
        self.gens = [g if g.ring == self.doubled else self.doubled.convert(g) for g in gens]
        self.full_gens = list(self.gens)
        for copy in (0, 1):
            for q in ambient.q_gens(0):
                self.full_gens.append(
                    embed(q, self.doubled, copy_positions(self.nvars, copy))
                )
        self.source = source

    def gb(self) -> list[Polynomial]:
        return groebner_basis(self.full_gens)

    def swap(self, f: Polynomial) -> Polynomial:
        """Exchange the two variable blocks."""
        return embed(f, self.doubled, copy_positions(self.nvars, 1, 0))

    def to_tripled(self, f: Polynomial, *copies: int) -> Polynomial:
        """A doubled-ring polynomial ``f(x, y)`` on the given two copies of
        the tripled ring: ``to_tripled(f, 0, 2)`` is ``f(x, z)``."""
        return embed(f, self.tripled, copy_positions(self.nvars, *copies))

    def unbounded(self) -> list[Polynomial]:
        """The second-block variables with no monic equation over the first
        block, read off a block-order basis with the second block in front:
        empty exactly when the relation's coordinate ring is a finite module
        over the first projection."""
        W = self.swapped
        gb = groebner_basis([W.convert(g) for g in self.full_gens])
        return [W.var(i) for i in finite_over_block(self.nvars, gb)[1]]

    def contains_diagonal_ideal(self) -> bool:
        """Sanity check: both copies of the defining ideal lie in I."""
        gb = self.gb()
        return all(
            normal_form(g, gb).is_zero() for g in self.full_gens[len(self.gens):]
        )

    def render(self) -> str:
        return "(" + ", ".join(self.doubled.render(g) for g in self.gens) + ")"


def relation_from_map(ambient: AmbientRing, fs: list[Polynomial]) -> RelationPresentation:
    """The relation identifying points with equal values under ``fs``:
    generated by ``f(x-block) - f(y-block)`` for each given polynomial.

    An empty list yields the indiscrete relation (0).
    """
    pr = ambient.poly_ring(0)
    rel = RelationPresentation(ambient, [], source="map")
    gens = []
    for f in fs:
        g = f if f.ring == pr else pr.convert(f)
        gens.append(copy_difference(g, rel.doubled))
    rel.gens = gens
    rel.full_gens = gens + rel.full_gens
    return rel


def relation_from_group_action(action) -> RelationPresentation:
    """The relation "same orbit": the intersection over all group elements of
    the graph ideals ``(y-block - g(x-block)) + Q``."""
    if not isinstance(action, GroupAction):
        raise TypeError("expected a GroupAction")
    action.validate()
    ambient = action.ring
    rel = RelationPresentation(ambient, [], source="action")
    pr = ambient.poly_ring(0)
    n = rel.nvars
    D = rel.doubled
    q_copies = [embed(q, D, copy_positions(n, c)) for c in (0, 1) for q in ambient.q_gens(0)]
    graphs = []
    for g in action.maps:
        gens = [
            embed(pr.var(i), D, copy_positions(n, 1))
            - embed(g.assignments[0][1][i], D, copy_positions(n, 0))
            for i in range(n)
        ]
        graphs.append(gens + q_copies)
    current = graphs[0]
    for nxt in graphs[1:]:
        current = ideal_intersect(current, nxt)
    rel.gens = groebner_basis(current)
    rel.full_gens = rel.gens + q_copies
    return rel


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

    def member(f, gens):
        if mode == "scheme":
            return ideal_member(f, groebner_basis(gens))
        return radical_member(f, gens)

    def check(axis, candidates, gens):
        # the first candidate outside the ideal of ``gens`` is the witness
        witness = next((f for f in candidates if not member(f, gens)), None)
        report.verdicts[axis] = witness is None
        report.witnesses[axis] = witness

    # reflexivity: I vanishes on the diagonal
    diag = [copy_difference(v, rel.doubled) for v in rel.ambient.poly_ring(0).gens()]
    check("reflexivity", rel.gens, diag + rel.full_gens[len(rel.gens):])

    # symmetry: the block swap preserves I.  Since swapping is an involution,
    # one containment forces equality.
    check("symmetry", map(rel.swap, rel.gens), rel.full_gens)

    # transitivity: I(1,3) inside I(1,2) + I(2,3) in the tripled ring
    I12 = [rel.to_tripled(g, 0, 1) for g in rel.full_gens]
    I23 = [rel.to_tripled(g, 1, 2) for g in rel.full_gens]
    I13 = (rel.to_tripled(g, 0, 2) for g in rel.full_gens)
    check("transitivity", I13, I12 + I23)

    # finiteness: O(R) is a finite module over the first block
    unbounded = rel.unbounded()
    report.verdicts["finiteness"] = not unbounded
    report.witnesses["finiteness"] = unbounded[0] if unbounded else None
    return report
