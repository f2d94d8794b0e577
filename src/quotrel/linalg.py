"""Exact sparse linear algebra over the coefficient fields.

Vectors are dicts mapping a hashable column label (a monomial, or a
``(component, monomial)`` pair) to a nonzero field element.  Significance
has one convention throughout: a ``key`` function maps each label to a sort
key, and the label with the larger key is the more significant, as with
:meth:`~quotrel.poly.MonomialOrder.key`.  :func:`significance` builds such a
key from a column list written most significant first.  A :class:`RowSpace`
keeps a row space in reduced echelon form with respect to its key; because
the reduced echelon form of a subspace is unique, the resulting rows are
canonical no matter in which order vectors were inserted.  It holds one row
per pivot, in the dict ``row``: each row is 1 at its pivot and 0 at every
other pivot, and a row once stored is never mutated, so callers may wrap it
without copying.  ``pivots`` and ``rows`` are views sorted by the key, most
significant first, computed on each read.  ``holders`` maps each label to
the pivots whose rows hold it away from their own pivot, so an insert
back-substitutes into those rows only.

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


class RowSpace:
    """A subspace in reduced row-echelon form: ``row`` maps each pivot, the
    entry of its row with the largest ``key``, to that row."""

    def __init__(self, field: Field, key):
        self.field = field
        self.key = key
        self.row: dict = {}
        self.holders: dict = {}

    @property
    def dim(self) -> int:
        return len(self.row)

    @property
    def pivots(self) -> list:
        return sorted(self.row, key=self.key, reverse=True)

    @property
    def rows(self) -> list[Vector]:
        return [self.row[piv] for piv in self.pivots]

    def reduce(self, v: Vector) -> Vector:
        """Residue of ``v`` modulo the row space.  Each row is 0 at every
        other pivot, so clearing one pivot entry leaves the others as is."""
        field, row = self.field, self.row
        out = dict(v)
        for label, c in v.items():
            if label in row:
                field.add_scaled(out, row[label], field.neg(c))
        return out

    def contains(self, v: Vector) -> bool:
        return not self.reduce(v)

    def insert(self, v: Vector):
        """Add ``v`` to the space.  Returns the new pivot label if the
        dimension grew, else ``None``."""
        field, row, holders = self.field, self.row, self.holders
        res = self.reduce(v)
        if not res:
            return None
        piv = max(res, key=self.key)
        new = field.add_scaled({}, res, field.inv(res[piv]))
        for p in holders.pop(piv, ()):
            r = row[p]
            row[p] = s = field.add_scaled(dict(r), new, field.neg(r[piv]))
            for label in s.keys() - r.keys():
                holders.setdefault(label, set()).add(p)
            for label in r.keys() - s.keys() - {piv}:
                holders[label].discard(p)
        row[piv] = new
        for label in new.keys() - {piv}:
            holders.setdefault(label, set()).add(piv)
        return piv


def significance(columns: list):
    """The key of an ordered column list, first column most significant."""
    return {c: -i for i, c in enumerate(columns)}.__getitem__


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
    # Echelonizing the conditions with the last column most significant
    # leaves the leading labels of the kernel free.
    space = RowSpace(field, {c: i for i, c in enumerate(columns)}.__getitem__)
    for r in sorted(rows, key=len):  # the same echelon form, built cheaper
        space.insert(r)
    row, neg = space.row, field.neg
    return [{free: field.one, **{p: neg(row[p][free]) for p in space.holders.get(free, ())}}
            for free in columns if free not in row]
