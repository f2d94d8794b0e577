"""Finite linear group actions: averaging, graded invariants, orbit equations."""

import re

import pytest

from quotrel.fields import GF, QQ
from quotrel.invariants import (
    GroupAction,
    invariant_basis,
    orbit_symmetric_generators,
    reynolds_project,
)
from quotrel.poly import PolyRing
from quotrel.ring import AmbientRing, RingMap

import oracles


def plane(field=QQ):
    return AmbientRing.free(field, ("x", "y"))


def swap_action(field=QQ):
    A = plane(field)
    pr = A.poly_ring(0)
    swap = RingMap.on_polys(A, A, [pr.parse("y"), pr.parse("x")])
    return A, GroupAction(A, [RingMap.identity(A), swap])


def sign_action():
    A = plane()
    pr = A.poly_ring(0)
    neg = RingMap.on_polys(A, A, [pr.parse("-x"), pr.parse("-y")])
    return A, GroupAction(A, [RingMap.identity(A), neg])


# -- construction and validation -------------------------------------------


def test_action_requires_free_ring():
    pr = PolyRing(QQ, ("x",))
    fat = AmbientRing.quotient(pr, [pr.parse("x^2")])
    with pytest.raises(ValueError):
        GroupAction(fat, [RingMap.identity(fat)])


def test_action_requires_maps():
    with pytest.raises(ValueError):
        GroupAction(plane(), [])


def test_action_rejects_nonlinear_substitution():
    A = plane()
    pr = A.poly_ring(0)
    sq = RingMap.on_polys(A, A, [pr.parse("x^2"), pr.parse("y")])
    with pytest.raises(ValueError, match="non-linear"):
        GroupAction(A, [RingMap.identity(A), sq])


def test_action_rejects_foreign_maps():
    A, B = plane(), AmbientRing.free(QQ, ("u", "v"))
    to_b = RingMap.on_polys(A, B, [B.poly_ring(0).var(0), B.poly_ring(0).var(1)])
    with pytest.raises(ValueError):
        GroupAction(A, [RingMap.identity(A), to_b])


def test_validate_group_axioms():
    A = plane()
    pr = A.poly_ring(0)
    ident = RingMap.identity(A)
    neg = RingMap.on_polys(A, A, [pr.parse("-x"), pr.parse("-y")])
    rot = RingMap.on_polys(A, A, [pr.parse("-y"), pr.parse("x")])

    GroupAction(A, [ident, neg]).validate()

    with pytest.raises(ValueError, match="duplicate"):
        GroupAction(A, [ident, neg, neg]).validate()
    with pytest.raises(ValueError, match="identity"):
        GroupAction(A, [neg]).validate()
    with pytest.raises(ValueError, match="closed"):
        GroupAction(A, [ident, rot]).validate()  # missing rot^2, rot^3
    crush = RingMap.on_polys(A, A, [pr.zero, pr.zero])
    with pytest.raises(ValueError, match="inverse"):
        GroupAction(A, [ident, crush]).validate()


@pytest.mark.parametrize("images, message", [
    ([("x",), ("-x",), ("-x",)], "duplicate group element in action"),
    ([("-x",)], "action does not contain the identity"),
    ([("x",), ("2*x",)], "action is not closed under composition"),
    ([("x",), ("0",)], "a group element has no inverse in the list"),
])
def test_validate_messages(images, message):
    A = AmbientRing.free(QQ, ("x",))
    pr = A.poly_ring(0)
    maps = [RingMap.on_polys(A, A, [pr.parse(t) for t in im]) for im in images]
    with pytest.raises(ValueError) as err:
        GroupAction(A, maps).validate()
    assert str(err.value) == message


def square_action(reflection_first=False):
    """D4 permuting the corners of a square, as in the bench script
    ``d4-invariants.qs``: four rotations, then four reflections."""
    A = AmbientRing.free(QQ, ("a", "b", "c", "d"))
    pr = A.poly_ring(0)
    perms = ["abcd", "bcda", "cdab", "dabc", "dcba", "badc", "adcb", "cbad"]
    if reflection_first:
        perms = ["abcd", "dcba"] + [p for p in perms if p not in ("abcd", "dcba")]
    maps = [RingMap.on_polys(A, A, [pr.parse(v) for v in p]) for p in perms]
    return GroupAction(A, maps)


def test_generators():
    A = plane()
    pr = A.poly_ring(0)
    rot = RingMap.on_polys(A, A, [pr.parse("-y"), pr.parse("x")])
    c4 = [RingMap.identity(A)]
    for _ in range(3):
        c4.append(rot.compose(c4[-1]))
    assert GroupAction(A, c4).generators() == [1]
    signs = [RingMap.on_polys(A, A, [pr.parse(u), pr.parse(v)])
             for u, v in (("x", "y"), ("-x", "y"), ("x", "-y"), ("-x", "-y"))]
    assert GroupAction(A, signs).generators() == [1, 2]
    # a rotation, then the first reflection the rotations miss
    assert square_action().generators() == [1, 4]
    assert square_action(reflection_first=True).generators() == [1, 2]


def test_order_and_apply():
    A, act = swap_action()
    pr = A.poly_ring(0)
    assert act.order == 2
    moved = {pr.render(act.maps[i].apply_poly(pr.parse("x^2*y"))) for i in range(2)}
    assert moved == {"x^2*y", "x*y^2"}


# -- Reynolds averaging ------------------------------------------------------


def test_reynolds_values():
    A, act = swap_action()
    pr = A.poly_ring(0)
    assert pr.render(reynolds_project(pr.parse("x"), act)) == "1/2*x + 1/2*y"
    assert pr.render(reynolds_project(pr.parse("x^2"), act)) == "1/2*x^2 + 1/2*y^2"


def test_reynolds_is_a_projection():
    A, act = swap_action()
    pr = A.poly_ring(0)
    f = pr.parse("x^3 + 2*x*y - y")
    once = reynolds_project(f, act)
    assert reynolds_project(once, act) == once
    inv = pr.parse("x*y")
    assert reynolds_project(inv, act) == inv


def test_reynolds_needs_invertible_order():
    _, act = swap_action(GF(2))
    pr = act.ring.poly_ring(0)
    with pytest.raises(ValueError, match="not invertible"):
        reynolds_project(pr.parse("x"), act)


# -- graded invariant bases --------------------------------------------------


def test_swap_invariants():
    A, act = swap_action()
    pr = A.poly_ring(0)
    layers = invariant_basis(act, 3)
    rendered = [[pr.render(f) for f in layer] for layer in layers]
    assert rendered == [
        ["1"],
        ["x + y"],
        ["x*y", "x^2 + y^2"],
        ["x^2*y + x*y^2", "x^3 + y^3"],
    ]


def test_sign_invariants_live_in_even_degrees():
    A, act = sign_action()
    pr = A.poly_ring(0)
    layers = invariant_basis(act, 3)
    rendered = [[pr.render(f) for f in layer] for layer in layers]
    assert rendered == [["1"], [], ["x^2", "x*y", "y^2"], []]


def test_invariant_basis_works_in_characteristic_two():
    # no averaging available, but the fixed-point system still solves
    A, act = swap_action(GF(2))
    pr = A.poly_ring(0)
    layers = invariant_basis(act, 2)
    rendered = [[pr.render(f) for f in layer] for layer in layers]
    assert rendered == [["1"], ["x + y"], ["x*y", "x^2 + y^2"]]


@pytest.mark.parametrize("field, names, images, message", [
    (GF(2), ("x",), ["x + 1"], "x -> x + 1"),
    (QQ, ("x", "y"), ["-x", "-y + 1"], "y -> -y + 1"),
])
def test_invariant_basis_refuses_affine_maps(field, names, images, message):
    """The fixed-point system is solved one degree at a time, which loses
    the invariants of an affine action (x^2 + x over FF(2), y^2 - y over
    QQ); it names the first affine image instead."""
    A = AmbientRing.free(field, names)
    pr = A.poly_ring(0)
    act = GroupAction(A, [RingMap.identity(A),
                          RingMap.on_polys(A, A, [pr.parse(t) for t in images])])
    with pytest.raises(ValueError, match=re.escape(f"{message} is not homogeneous")):
        invariant_basis(act, 4)
    # the averaging and the orbit equations still accept the action
    if field == QQ:
        assert pr.render(reynolds_project(pr.parse("x*y"), act)) == "x*y - 1/2*x"
    assert orbit_symmetric_generators(pr.parse("x"), act)[0]


def test_invariant_basis_members_are_fixed():
    A = plane()
    pr = A.poly_ring(0)
    rot = RingMap.on_polys(A, A, [pr.parse("-y"), pr.parse("x")])
    maps = [RingMap.identity(A)]
    for _ in range(3):
        maps.append(rot.compose(maps[-1]))
    act = GroupAction(A, maps)
    layers = invariant_basis(act, 4)
    assert [len(layer) for layer in layers] == [1, 0, 1, 0, 3]
    for layer in layers:
        for f in layer:
            for i in range(act.order):
                assert act.maps[i].apply_poly(f) == f


def test_invariants_on_generators_match_all_elements():
    """The system on a generating set has the kernel of the system on every
    element, whichever elements the list happens to start with."""
    expected = oracles.naive_invariant_basis(square_action(), 4)
    for action in (square_action(), square_action(reflection_first=True)):
        assert invariant_basis(action, 4) == expected
    assert [len(layer) for layer in expected] == [1, 1, 3, 4, 8]


def test_d4_invariants_apply_two_maps(monkeypatch):
    """Through degree 6 the fixed-point conditions are read off the image
    tables of the two generators only, with no ``apply_poly`` call: each
    of the two tables holds the 210 monomials of degree <= 6 in four
    variables.  The other six maps' tables hold only the 5 monomials of
    degree <= 1 that the compositions of ``validate`` read."""

    def refused(self, f):
        raise AssertionError("invariant_basis called apply_poly")

    act = square_action()
    monkeypatch.setattr(RingMap, "apply_poly", refused)
    invariant_basis(act, 6)
    held = [set(g._tables[0]._table) for g in act.maps]
    every = set(act.ring.poly_ring(0).monomials_up_to_degree(6))
    assert len(every) == 210
    assert [i for i, ms in enumerate(held) if ms == every] == act.generators() == [1, 4]
    assert all(len(ms) == 5 and max(map(sum, ms)) == 1
               for i, ms in enumerate(held) if i not in (1, 4))


# -- orbit equations ---------------------------------------------------------


def test_orbit_symmetric_generators():
    A, act = swap_action()
    pr = A.poly_ring(0)
    sigmas, eq = orbit_symmetric_generators(pr.parse("x"), act)
    assert [pr.render(s) for s in sigmas] == ["x + y", "x*y"]
    assert eq.ring.names == ("T", "x", "y")
    assert eq.ring.render(eq) == "T^2 - T*x - T*y + x*y"
    # the equation vanishes on the whole orbit
    for root in ("x", "y"):
        vals = [pr.parse(root), pr.var(0), pr.var(1)]
        assert eq.substitute(pr, vals).is_zero()


def test_orbit_equation_avoids_name_collision():
    A = AmbientRing.free(QQ, ("T", "U"))
    pr = A.poly_ring(0)
    swap = RingMap.on_polys(A, A, [pr.parse("U"), pr.parse("T")])
    act = GroupAction(A, [RingMap.identity(A), swap])
    _, eq = orbit_symmetric_generators(pr.parse("T"), act)
    assert eq.ring.names == ("_T", "T", "U")
