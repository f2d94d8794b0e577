import random
from fractions import Fraction

import pytest

from quotrel.fields import GF, QQ
from quotrel.linalg import RowSpace, condition_rows, nullspace, significance

import oracles


def test_significance_orders_columns():
    key = significance(["a", "b", "c"])
    assert sorted("bca", key=key, reverse=True) == ["a", "b", "c"]


def test_rowspace_insert_and_contains():
    rs = RowSpace(QQ, significance(["x", "y", "z"]))
    assert rs.insert({"x": Fraction(2), "y": Fraction(4)}) == "x"
    assert rs.insert({"x": Fraction(1), "y": Fraction(2)}) is None  # dependent
    assert rs.insert({"z": Fraction(3)}) == "z"
    assert rs.dim == 2
    assert rs.contains({"x": Fraction(3), "y": Fraction(6), "z": Fraction(-1)})
    assert not rs.contains({"x": Fraction(1)})


def test_rowspace_rows_are_canonical():
    """The reduced echelon form of a subspace is unique, so the rows must not
    depend on insertion order."""
    vectors = [
        {"a": Fraction(2), "b": Fraction(2)},
        {"b": Fraction(3), "c": Fraction(1)},
        {"a": Fraction(1), "c": Fraction(5)},
    ]
    key = significance(["a", "b", "c"])
    seen = []
    for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [2, 0, 1]):
        rs = RowSpace(QQ, key)
        for i in perm:
            rs.insert(dict(vectors[i]))
        seen.append([(piv, sorted(r.items())) for piv, r in zip(rs.pivots, rs.rows)])
    assert all(s == seen[0] for s in seen)


def test_rowspace_coordinates_are_pivot_entries():
    """A reduced row space's rows are 0 at each other's pivots, so a member's
    coordinate on a row is its entry at that row's pivot."""
    rs = RowSpace(QQ, significance(["a", "b", "c"]))
    rs.insert({"a": Fraction(1), "b": Fraction(1), "c": Fraction(2)})
    rs.insert({"b": Fraction(2), "c": Fraction(1)})
    v = {"a": Fraction(3), "b": Fraction(5), "c": Fraction(7)}
    assert rs.reduce(dict(v)) == {}
    assert all(piv not in other for piv, row in zip(rs.pivots, rs.rows)
               for other in rs.rows if other is not row)
    acc: dict = {}
    for piv, row in zip(rs.pivots, rs.rows):
        for k, w in row.items():
            acc[k] = acc.get(k, Fraction(0)) + v[piv] * w
    assert {k: w for k, w in acc.items() if w} == v


def test_rowspace_against_oracle_rref():
    rng = random.Random(23)
    labels = [(i,) for i in range(6)]
    key = significance(labels)
    arith = oracles.Arith()
    for _ in range(50):
        rows = []
        for _ in range(4):
            r = {
                labels[rng.randrange(6)]: Fraction(rng.randint(-3, 3))
                for _ in range(3)
            }
            rows.append({k: v for k, v in r.items() if v})
        rs = RowSpace(QQ, key)
        for r in rows:
            rs.insert(dict(r))
        assert rs.dim == oracles.span_dim([dict(r) for r in rows], arith)
        probe = {k: v for k, v in rows[0].items()}
        oracle_basis = oracles.rref([dict(r) for r in rows], arith)
        assert rs.contains(dict(probe)) == oracles.span_contains(
            oracle_basis, dict(probe), arith
        )


def test_nullspace_hand_example():
    F = GF(3)
    sols = nullspace([{"x": 1, "y": 1}], ["x", "y"], F)
    assert len(sols) == 1
    (v,) = sols
    assert v["x"] == 1  # normalized at the leading (most significant) label
    assert F.add(v.get("x", 0), v.get("y", 0)) == 0


def test_nullspace_solutions_satisfy_conditions():
    rng = random.Random(5)
    cols = list("abcde")
    for _ in range(30):
        rows = []
        for _ in range(3):
            r = {c: Fraction(rng.randint(-2, 2)) for c in rng.sample(cols, 3)}
            rows.append({k: v for k, v in r.items() if v})
        sols = nullspace(rows, cols, QQ)
        rs = RowSpace(QQ, significance(cols))
        for r in rows:
            rs.insert(dict(r))
        assert len(sols) == len(cols) - rs.dim
        for v in sols:
            for r in rows:
                s = sum((r.get(c, Fraction(0)) * v.get(c, Fraction(0)) for c in cols),
                        Fraction(0))
                assert s == 0


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_nullspace_is_the_reduced_echelon_kernel(field):
    """Random conditions on 4-8 labels: the output is a basis of the
    kernel, and relabelling each label by its significance index leaves it
    unchanged under the independent RREF, so it is the unique reduced echelon
    basis, most significant first."""
    rng = random.Random(41)
    arith = oracles.arith_for(field)
    for _ in range(40):
        cols = [f"c{i}" for i in rng.sample(range(20), rng.randint(4, 8))]
        rows = []
        for _ in range(rng.randint(0, len(cols))):
            r = {c: field.of_int(rng.randint(-2, 2))
                 for c in rng.sample(cols, rng.randint(1, len(cols)))}
            rows.append({k: v for k, v in r.items() if not field.is_zero(v)})
        sols = nullspace(rows, cols, field)
        for v in sols:
            for r in rows:
                s = field.zero
                for c, x in r.items():
                    s = field.add(s, field.mul(x, v.get(c, field.zero)))
                assert field.is_zero(s)
        assert len(sols) == len(cols) - oracles.span_dim(rows, arith)
        index = {c: i for i, c in enumerate(cols)}
        relabelled = [{index[c]: x for c, x in v.items()} for v in sols]
        assert oracles.rref(relabelled, arith) == relabelled


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_nullspace_does_not_depend_on_the_row_order(field):
    """Sparse conditions on 6-12 labels, given as listed, reversed and in 5
    seeded shuffles: the basis is the same each time, and it is the RREF
    oracle's reduced echelon kernel."""
    rng = random.Random(29)
    arith = oracles.arith_for(field)
    for _ in range(25):
        cols = [f"c{i}" for i in range(rng.randint(6, 12))]
        rows = []
        for _ in range(rng.randint(1, len(cols))):
            r = {c: field.of_int(rng.randint(-3, 3)) for c in rng.sample(cols, rng.randint(1, 3))}
            rows.append({k: v for k, v in r.items() if not field.is_zero(v)})
        sols = nullspace(rows, cols, field)
        orders = [rows[::-1]]
        for seed in range(5):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            assert nullspace(order, cols, field) == sols
        assert len(sols) == len(cols) - oracles.span_dim(rows, arith)
        index = {c: i for i, c in enumerate(cols)}
        relabelled = [{index[c]: x for c, x in v.items()} for v in sols]
        assert oracles.rref(relabelled, arith) == relabelled
        for v in sols:
            for r in rows:
                s = field.zero
                for c, x in r.items():
                    s = field.add(s, field.mul(x, v.get(c, field.zero)))
                assert field.is_zero(s)


def test_condition_rows_transpose_images():
    images = [("a", {"u": 1, "v": 2}), ("b", {"v": 3}), ("c", {})]
    assert condition_rows(images) == [{"a": 1}, {"a": 2, "b": 3}]


def test_rowspace_takes_a_key_function():
    # the larger key is the more significant: here the total degree, without
    # listing columns
    rs = RowSpace(QQ, sum)
    rs.insert({(2,): Fraction(1), (0,): Fraction(1)})
    assert rs.pivots == [(2,)]
    rs.insert({(3,): Fraction(1)})
    assert rs.pivots[0] == (3,)
