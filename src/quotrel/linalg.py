"""Exact sparse linear algebra over the coefficient fields.

Vectors are dicts mapping a hashable column label (a monomial, or a
``(component, monomial)`` pair) to a nonzero field element.  A
:class:`RowSpace` keeps a row space in reduced echelon form with respect to a
fixed significance order on the labels; because the reduced echelon form of a
subspace is unique, the resulting rows are canonical no matter in which order
vectors were inserted.

Kernels follow the same convention.  :func:`nullspace` takes its columns
listed most significant first and returns the reduced echelon basis of the
kernel: each vector is 1 at its leading (most significant) label and 0 at
every other vector's leading label, and the vectors come most significant
leading label first.  That basis is unique, so callers use it as is.
:func:`condition_rows` turns a linear map, given as one image vector per
column, into the condition rows whose common kernel is the map's kernel.
"""

from __future__ import annotations

from .fields import Field

Vector = dict


def vec_scale(field: Field, v: Vector, c) -> Vector:
    if field.is_zero(c):
        return {}
    return {k: field.mul(x, c) for k, x in v.items()}


def vec_sub_scaled(field: Field, v: Vector, w: Vector, c) -> Vector:
    """v - c*w, dropping zero entries."""
    out = dict(v)
    for k, x in w.items():
        y = field.sub(out.get(k, field.zero), field.mul(c, x))
        if field.is_zero(y):
            out.pop(k, None)
        else:
            out[k] = y
    return out


class RowSpace:
    """A subspace held in reduced row-echelon form.

    ``rank`` maps column labels to integers; smaller rank means more
    significant (pivots are chosen at the minimum-rank nonzero entry).
    """

    def __init__(self, field: Field, rank: dict):
        self.field = field
        self.rank = rank
        self.rows: list[Vector] = []
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "RowSpace":
        other = RowSpace(self.field, self.rank)
        other.rows = [dict(r) for r in self.rows]
        other.pivots = list(self.pivots)
        return other

    def _pivot_of(self, v: Vector):
        return min(v, key=self.rank.__getitem__)

    def reduce(self, v: Vector) -> Vector:
        """Residue of ``v`` modulo the row space."""
        field = self.field
        out = dict(v)
        for piv, row in zip(self.pivots, self.rows):
            c = out.get(piv)
            if c is not None:
                out = vec_sub_scaled(field, out, row, c)
        return out

    def coords(self, v: Vector):
        """Coefficients expressing ``v`` over the rows, or ``None``."""
        field = self.field
        out = dict(v)
        cs = []
        for piv, row in zip(self.pivots, self.rows):
            c = out.get(piv, field.zero)
            cs.append(c)
            if not field.is_zero(c):
                out = vec_sub_scaled(field, out, row, c)
        return cs if not out else None

    def contains(self, v: Vector) -> bool:
        return not self.reduce(v)

    def insert(self, v: Vector):
        """Add ``v`` to the space.  Returns the new pivot label if the
        dimension grew, else ``None``."""
        field = self.field
        res = self.reduce(v)
        if not res:
            return None
        piv = self._pivot_of(res)
        res = vec_scale(field, res, field.inv(res[piv]))
        for i, row in enumerate(self.rows):
            c = row.get(piv)
            if c is not None:
                self.rows[i] = vec_sub_scaled(field, row, res, c)
        at = 0
        r = self.rank[piv]
        while at < len(self.pivots) and self.rank[self.pivots[at]] < r:
            at += 1
        self.pivots.insert(at, piv)
        self.rows.insert(at, res)
        return piv


def rank_map(columns: list) -> dict:
    """Significance map from an ordered column list (first = most)."""
    return {c: i for i, c in enumerate(columns)}


class Descending:
    """Comparison-reversing wrapper, for ranks built from sort keys where the
    largest key should count as most significant."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


class FnRank:
    """Rank backed by a key function, for column universes too large to list."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, label):
        return self.fn(label)


def condition_rows(images) -> list[Vector]:
    """The rows of a linear map given as ``(column, image vector)`` pairs:
    one row per image label, holding that label's coefficient in the image
    of each column.  Its kernel, by :func:`nullspace`, is the map's."""
    rows: dict = {}
    for col, image in images:
        for label, c in image.items():
            rows.setdefault(label, {})[col] = c
    return list(rows.values())


def nullspace(rows: list[Vector], columns: list, field: Field) -> list[Vector]:
    """Reduced echelon basis of the common kernel of linear conditions.

    ``rows`` are condition functionals over the labels in ``columns``, which
    are listed most significant first.  Each basis vector is 1 at its
    leading label and 0 at every other vector's leading label, and the
    vectors come most significant leading label first.
    """
    # Echelonizing the conditions from the least significant end leaves the
    # leading labels of the kernel free.
    space = RowSpace(field, rank_map(columns[::-1]))
    for r in rows:
        space.insert(r)
    pivot_set = set(space.pivots)
    basis = []
    for free in columns:
        if free in pivot_set:
            continue
        v = {free: field.one}
        for piv, row in zip(space.pivots, space.rows):
            c = row.get(free)
            if c is not None:
                v[piv] = field.neg(c)
        basis.append(v)
    return basis
