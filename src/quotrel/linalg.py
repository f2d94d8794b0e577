"""Exact sparse linear algebra over the coefficient fields.

Vectors are dicts mapping a hashable column label (a monomial, or a
``(component, monomial)`` pair) to a nonzero field element.  Significance
has one convention throughout: a ``key`` function maps each label to a sort
key, and the label with the larger key is the more significant, as with
:meth:`~quotrel.poly.MonomialOrder.key`.  :func:`significance` builds such a
key from a column list written most significant first.  A :class:`RowSpace`
keeps a row space in reduced echelon form with respect to its key; because
the reduced echelon form of a subspace is unique, the resulting rows are
canonical no matter in which order vectors were inserted.

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

    Each row's pivot is its entry with the largest ``key``; the rows are
    kept most significant pivot first.
    """

    def __init__(self, field: Field, key):
        self.field = field
        self.key = key
        self.rows: list[Vector] = []
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> Vector:
        """Residue of ``v`` modulo the row space."""
        field = self.field
        out = dict(v)
        for piv, row in zip(self.pivots, self.rows):
            c = out.get(piv)
            if c is not None:
                out = vec_sub_scaled(field, out, row, c)
        return out

    def contains(self, v: Vector) -> bool:
        return not self.reduce(v)

    def insert(self, v: Vector):
        """Add ``v`` to the space.  Returns the new pivot label if the
        dimension grew, else ``None``."""
        field = self.field
        res = self.reduce(v)
        if not res:
            return None
        key = self.key
        piv = max(res, key=key)
        res = vec_scale(field, res, field.inv(res[piv]))
        for i, row in enumerate(self.rows):
            c = row.get(piv)
            if c is not None:
                self.rows[i] = vec_sub_scaled(field, row, res, c)
        at = 0
        k = key(piv)
        while at < len(self.pivots) and key(self.pivots[at]) > k:
            at += 1
        self.pivots.insert(at, piv)
        self.rows.insert(at, res)
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
