"""The coboundary/cocycle obstruction for homogeneous descent data."""

import pytest

import quotrel.effectivity
from quotrel.effectivity import (
    CocycleData,
    change_field,
    check_cocycle,
    effectivity_test,
)
from quotrel.fields import GF, QQ
from quotrel.linalg import nullspace
from quotrel.poly import PolyRing
from quotrel.ring import AmbientRing


@pytest.fixture
def counterexample():
    """The degree-5 candidate that is a cocycle but no coboundary."""
    A = AmbientRing.free(QQ, ("x1", "x2"))
    pr = A.poly_ring(0)
    return CocycleData(
        A,
        [pr.parse("x1^2"), pr.parse("x1*x2 - x2^2"), pr.parse("x2^3")],
        "(x1*y2 - x2*y1)*y2^3",
    )


def line_data(cocycle):
    B = AmbientRing.free(QQ, ("x",))
    pb = B.poly_ring(0)
    return CocycleData(B, [pb.parse("x^2"), pb.parse("x^3")], cocycle)


def test_constructor_conventions(counterexample):
    assert counterexample.doubled.names == ("x1", "x2", "y1", "y2")
    assert counterexample.degree == 5
    zero = line_data(None)
    assert zero.cocycle.is_zero() and zero.degree == 0


def test_ambient_must_be_free():
    pr = PolyRing(QQ, ("x",))
    fat = AmbientRing.quotient(pr, [pr.parse("x^2")])
    with pytest.raises(ValueError):
        CocycleData(fat, [pr.parse("x^2")], None)


def test_validate_homogeneity():
    B = AmbientRing.free(QQ, ("x",))
    pb = B.poly_ring(0)
    with pytest.raises(ValueError, match="homogeneous"):
        CocycleData(B, [pb.parse("x^2 + x")], None).validate()
    with pytest.raises(ValueError, match="homogeneous"):
        CocycleData(B, [pb.parse("x^2")], "x1^2 + x2").validate()


def test_validate_finiteness():
    A = AmbientRing.free(QQ, ("x1", "x2"))
    pr = A.poly_ring(0)
    with pytest.raises(ValueError, match="not finite over the map subring"):
        CocycleData(A, [pr.parse("x1^2")], None).validate()


def test_coboundaries_have_zero_defect(counterexample):
    D = counterexample.doubled
    dif = D.parse("x1^3*x2^2 - y1^3*y2^2")
    assert counterexample.defect(dif).is_zero()
    assert not counterexample.defect(D.parse("x1*y1^4")).is_zero()


def test_check_cocycle(counterexample):
    assert check_cocycle(counterexample)
    bad = CocycleData(
        counterexample.ambient, counterexample.map_polys, "x1*y1^4"
    )
    assert not check_cocycle(bad)
    with pytest.raises(ValueError, match="cocycle condition"):
        effectivity_test(bad)


def test_noneffective_counterexample(counterexample):
    rep = effectivity_test(counterexample)
    assert (rep.dim_v, rep.dim_w, rep.dim_quotient) == (4, 5, 1)
    assert rep.verdict == "noneffective"
    assert [QQ.render(c) for c in rep.class_coords] == ["-1"]
    assert [g.ring.render(g) for g in rep.complement_basis] == [
        "x2*y1*y2^3 - x1*y2^4"
    ]


def test_cocycle_condition_is_solved_on_standard_monomials(counterexample, monkeypatch):
    # J_5 lies in the kernel of the defect: the condition is solved on the
    # 13 standard monomials of J, not on all 56 monomials of degree 5
    widths = []

    def recording(rows, columns, field):
        widths.append(len(columns))
        return nullspace(rows, columns, field)

    monkeypatch.setattr(quotrel.effectivity, "nullspace", recording)
    rep = effectivity_test(counterexample)
    assert len(counterexample.doubled.monomials_of_degree(5)) == 56
    assert widths == [13]
    assert rep.dim_w == 5


def test_report_render(counterexample):
    text = effectivity_test(counterexample).render()
    assert text.splitlines() == [
        "effectivity test in degree 5 over QQ",
        "  coboundary space V: dim 4",
        "  cocycle space    W: dim 5",
        "  obstruction   W/V: dim 1",
        "  W/V basis:",
        "    x2*y1*y2^3 - x1*y2^4",
        "  class of candidate: [-1]",
        "  verdict: noneffective",
    ]


def test_counterexample_is_universal(counterexample):
    for p in (2, 3, 5):
        moved = change_field(counterexample, GF(p))
        assert moved.doubled.field is GF(p)
        rep = effectivity_test(moved)
        assert rep.verdict == "noneffective"
        assert rep.dim_quotient == 1


def test_coboundary_candidate_is_effective(counterexample):
    eff = CocycleData(
        counterexample.ambient, counterexample.map_polys, "x1^5 - y1^5"
    )
    rep = effectivity_test(eff)
    assert rep.verdict == "effective"
    assert (rep.dim_v, rep.dim_w) == (4, 5)
    assert all(QQ.is_zero(c) for c in rep.class_coords)
    assert "class of candidate: [0]" in rep.render()


def test_zero_candidate_is_effective():
    rep = effectivity_test(line_data(None))
    assert rep.verdict == "effective"
    assert rep.dim_quotient == 0


def test_coboundaries_are_cocycles(counterexample):
    # V sits inside W degreewise
    rep = effectivity_test(counterexample)
    assert rep.dim_v <= rep.dim_w
