"""Truncated kernel algebras: bases, generators, growth, presentations."""

import pytest

from quotrel import quotient
from quotrel.eqrel import relation_from_group_action, relation_from_map
from quotrel.fields import QQ
from quotrel.groebner import MembershipSieve
from quotrel.invariants import GroupAction
from quotrel.poly import BudgetExceededError, PolyRing, budget
from quotrel.quotient import (
    coequalizer_kernel_basis,
    element_to_vector,
    noetherian_probe,
    ordered_columns,
    present_subalgebra,
    vector_to_element,
)
from quotrel.ring import AmbientRing, RingElement, RingMap

import oracles
from oracles import arith_for, span_dim


@pytest.fixture
def cusp_rel():
    A = AmbientRing.free(QQ, ("t",))
    pr = A.poly_ring(0)
    return relation_from_map(A, [pr.parse("t^2"), pr.parse("t^3")])


@pytest.fixture
def glued_lines():
    """A point of one line glued to a point of another: two maps from A^1."""
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    Z = AmbientRing.free(QQ, ("s",))
    zero = Z.poly_ring(0).zero
    return X, RingMap(X, Z, [(0, [zero])]), RingMap(X, Z, [(1, [zero])])


def test_ordered_columns_most_significant_first():
    B = AmbientRing.free(QQ, ("x", "y"))
    assert ordered_columns(B, 2) == [
        (0, (2, 0)),
        (0, (1, 1)),
        (0, (0, 2)),
        (0, (1, 0)),
        (0, (0, 1)),
        (0, (0, 0)),
    ]


def test_vector_round_trip():
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    el = X.element([X.poly_ring(0).parse("u^2 - 3"), X.poly_ring(1).parse("v")])
    v = element_to_vector(el)
    assert v[(0, (2,))] == QQ.one and (1, (1,)) in v
    assert vector_to_element(X, v) == el


def test_cusp_kernel_basis(cusp_rel):
    tr = coequalizer_kernel_basis(cusp_rel, 6)
    assert tr.dims() == [1, 1, 2, 3, 4, 5, 6]
    assert [f.render() for f in tr.basis()] == ["1", "t^2", "t^3", "t^4", "t^5", "t^6"]
    assert tr.render_basis().splitlines()[:2] == ["degree 0: 1", "degree 2: t^2"]


def test_cusp_kernel_membership(cusp_rel):
    tr = coequalizer_kernel_basis(cusp_rel, 6)
    pr = tr.ring.poly_ring(0)
    inside = tr.ring.embed(0, pr.parse("t^4 + 2*t^2 - 5"))
    outside = tr.ring.embed(0, pr.parse("t^2 + t"))
    assert tr.contains(inside)
    assert not tr.contains(outside)
    # the defining condition agrees, checked directly on the relation ideal
    assert tr.defining_membership(inside)
    assert not tr.defining_membership(outside)


def test_cusp_minimal_generators(cusp_rel):
    tr = coequalizer_kernel_basis(cusp_rel, 6)
    assert [(g.render(), e) for g, e in tr.minimal_generators()] == [
        ("t^2", 2),
        ("t^3", 3),
    ]
    assert tr.new_generator_counts() == [0, 0, 1, 1, 0, 0, 0]


def test_kernel_layers_match_independent_rank(cusp_rel):
    # cross-check each filtration dimension against a from-scratch echelon
    tr = coequalizer_kernel_basis(cusp_rel, 5)
    rows = [element_to_vector(f) for f in tr.basis()]
    assert span_dim(rows, arith_for(QQ)) == tr.dims()[-1]


def test_degree_bound_validation(cusp_rel):
    with pytest.raises(ValueError):
        coequalizer_kernel_basis(cusp_rel, -1)


def test_pair_kernel_glues_the_lines(glued_lines):
    X, s1, s2 = glued_lines
    tr = coequalizer_kernel_basis((s1, s2), 3)
    assert tr.dims() == [1, 3, 5, 7]
    assert [f.render() for f in tr.basis()] == [
        "(1, 1)",
        "(u, 0)",
        "(0, v)",
        "(u^2, 0)",
        "(0, v^2)",
        "(u^3, 0)",
        "(0, v^3)",
    ]
    # constants must agree across the pieces
    assert tr.contains(X.one)
    assert not tr.contains(X.element([X.poly_ring(0).one, X.poly_ring(1).zero]))


def test_pair_kernel_generators_present_the_node(glued_lines):
    X, s1, s2 = glued_lines
    tr = coequalizer_kernel_basis((s1, s2), 3)
    gens = tr.minimal_generators()
    assert [(g.render(), e) for g, e in gens] == [("(u, 0)", 1), ("(0, v)", 1)]
    ring, rels = present_subalgebra([g for g, _ in gens])
    assert ring.names == ("w1", "w2")
    assert [ring.render(r) for r in rels] == ["w1*w2"]


def test_pair_source_validation(glued_lines):
    X, s1, _ = glued_lines
    with pytest.raises(TypeError):
        coequalizer_kernel_basis((s1, "other"), 2)
    Y = AmbientRing.free(QQ, ("w",))
    foreign = RingMap(Y, Y, [(0, [Y.poly_ring(0).var(0)])])
    with pytest.raises(ValueError):
        coequalizer_kernel_basis((s1, foreign), 2)


def test_pair_kernel_is_the_equalizer_and_builds_no_sieve(monkeypatch):
    """u -> s^2 and v -> s^3 from QQ[u] x QQ[v]: the kernel is the pairs
    (f, g) with f(s^2) = g(s^3), solved jointly over both pieces without
    any subalgebra sieve."""
    builds = []
    init = MembershipSieve.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MembershipSieve, "__init__", counted)
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    Z = AmbientRing.free(QQ, ("s",))
    s = Z.poly_ring(0).var(0)
    s1, s2 = RingMap(X, Z, [(0, [s ** 2])]), RingMap(X, Z, [(1, [s ** 3])])
    tr = coequalizer_kernel_basis((s1, s2), 8)
    assert [f.render() for f in tr.basis()] == ["(1, 1)", "(u^3, v^2)", "(u^6, v^4)"]
    assert all(s1.apply(f) == s2.apply(f) for f in tr.basis())
    assert all(tr.defining_membership(f) for f in tr.basis())
    u3, v2 = X.embed(0, X.poly_ring(0).parse("u^3")), X.embed(1, X.poly_ring(1).parse("v^2"))
    assert not tr.defining_membership(u3) and not tr.defining_membership(v2)
    assert not builds


def test_pair_kernel_equates_pullbacks_across_pieces():
    """QQ[u] x QQ[v] -> QQ[a] x QQ[b]: on the b piece both maps use v
    (v -> b against v -> b^2), on the a piece they use different source
    pieces (u -> a^2 against v -> a^3); only the constants agree."""
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    Y = AmbientRing([(PolyRing(QQ, ("a",)), []), (PolyRing(QQ, ("b",)), [])])
    a, b = Y.poly_ring(0).var(0), Y.poly_ring(1).var(0)
    s1 = RingMap(X, Y, [(0, [a ** 2]), (1, [b])])
    s2 = RingMap(X, Y, [(1, [a ** 3]), (1, [b ** 2])])
    tr = coequalizer_kernel_basis((s1, s2), 6)
    assert [f.render() for f in tr.basis()] == ["(1, 1)"]
    assert all(s1.apply(f) == s2.apply(f) for f in tr.basis())
    assert all(tr.defining_membership(f) for f in tr.basis())
    u, v = X.embed(0, X.poly_ring(0).var(0)), X.embed(1, X.poly_ring(1).var(0))
    assert not any(tr.defining_membership(el) for el in (u, v, u * u * u + v))


def test_identity_pair_kernel_is_the_whole_product():
    """The trivial relation on QQ[u] x QQ[v]: every function, idempotents
    included, is in the kernel."""
    X = AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])])
    identity = RingMap.identity(X)
    tr = coequalizer_kernel_basis((identity, identity), 2)
    assert [f.render() for f in tr.basis()] == [
        "(1, 0)", "(0, 1)", "(u, 0)", "(0, v)", "(u^2, 0)", "(0, v^2)"]
    assert tr.dims() == [2, 4, 6]


def test_glued_lines_recheck_needs_equal_constants(glued_lines):
    X, s1, s2 = glued_lines
    tr = coequalizer_kernel_basis((s1, s2), 2)
    idempotent = X.embed(0, X.poly_ring(0).one)
    assert not tr.defining_membership(idempotent)
    assert not tr.contains(idempotent)
    assert tr.defining_membership(X.one)


def test_pair_kernel_on_one_piece_equates_the_pullbacks():
    """t -> 0 and t -> 1 from QQ[t] to QQ[s]/(s): both maps use the one
    source piece, so the kernel is the functions with f(0) = f(1)."""
    X = AmbientRing.free(QQ, ("t",))
    P = PolyRing(QQ, ("s",))
    Z = AmbientRing.quotient(P, [P.var(0)])
    tr = coequalizer_kernel_basis(
        (RingMap.on_polys(X, Z, [P.zero]), RingMap.on_polys(X, Z, [P.one])), 6)
    assert [f.render() for f in tr.basis()] == [
        "1", "t^2 - t", "t^3 - t", "t^4 - t", "t^5 - t", "t^6 - t"]
    assert tr.dims() == [1, 1, 2, 3, 4, 5, 6]
    assert [(g.render(), e) for g, e in tr.minimal_generators()] == [
        ("t^2 - t", 2), ("t^3 - t", 3)]
    assert all(tr.defining_membership(f) for f in tr.basis())
    assert not tr.defining_membership(X.embed(0, X.poly_ring(0).var(0)))


def test_pair_kernel_columns_are_not_normal_formed_again(monkeypatch):
    """(x, y) -> (t^2, t^3) and (t^2, -t^3) on QQ[x, y]/(y^2 - x^3) at
    degree 10: the 30 column monomials are standard, so already normal
    forms, and so are the 16 basis vectors over them: none goes through
    ``normal_form``."""
    from quotrel import ring as ring_module

    calls = []
    nf = ring_module.normal_form

    def counted(f, *args):
        calls.append(f)
        return nf(f, *args)

    P = PolyRing(QQ, ("x", "y"))
    X = AmbientRing.quotient(P, [P.parse("y^2 - x^3")])
    Z = AmbientRing.free(QQ, ("t",))
    t = Z.poly_ring(0).var(0)
    s1 = RingMap.on_polys(X, Z, [t ** 2, t ** 3])
    s2 = RingMap.on_polys(X, Z, [t ** 2, -t ** 3])
    monkeypatch.setattr(ring_module, "normal_form", counted)
    tr = coequalizer_kernel_basis((s1, s2), 10)
    assert tr.dims() == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16]
    assert len(ordered_columns(X, 10)) == 30
    assert len(calls) == 0


def test_relation_table_restarts_wider_with_the_same_kernel(monkeypatch, cusp_rel):
    """With 4-bit fields (exponents below 8) the cusp's column t^8 does not
    fit, but the table is built for degree 8: it starts at 8 bits, never
    restarts while the kernel is solved, and the kernel is solved once,
    equal to the one at 16 bits.  A recheck of t^40000 restarts the table
    at 32 bits."""
    from quotrel import groebner

    expected = coequalizer_kernel_basis(cusp_rel, 8)
    widths, solves = [], []
    start, solve = groebner.NormalFormTable._start, quotient.TruncatedSubalgebra.__init__

    def recorded(table, degree):
        start(table, degree)
        widths.append(table.pk.width)

    def counted(trunc, *args):
        solves.append(args)
        solve(trunc, *args)

    monkeypatch.setattr(groebner, "_WIDTH", 4)
    monkeypatch.setattr(groebner.NormalFormTable, "_start", recorded)
    monkeypatch.setattr(quotient.TruncatedSubalgebra, "__init__", counted)
    tr = coequalizer_kernel_basis(cusp_rel, 8)
    assert widths == [8] and len(solves) == 1
    assert tr.layers == expected.layers
    assert tr.minimal_generators() == expected.minimal_generators()
    pr = tr.ring.poly_ring(0)
    assert tr.defining_membership(tr.ring.embed(0, pr.parse("t^40000 - 2*t^3")))
    assert not tr.defining_membership(tr.ring.embed(0, pr.parse("t^40000 + t")))
    assert widths == [8, 32]


@pytest.mark.parametrize("ring", [
    # nf(x * x) = y: a product of degree 1 from two factors of degree 1
    AmbientRing.quotient(PolyRing(QQ, ("x", "y")), [PolyRing(QQ, ("x", "y")).parse("x^2 - y")]),
    # (u, 0) * (0, v) = 0 and (1, 0) * (u, 0) = (u, 0)
    AmbientRing([(PolyRing(QQ, ("u",)), []), (PolyRing(QQ, ("v",)), [])]),
])
def test_products_that_drop_degree_are_formed(ring):
    """Minimal generators of a quotient ambient or a product ring, where a
    product can have lower degree than its factors', match those found by
    rebuilding the span of every product from 1 at each step."""
    identity = RingMap.identity(ring)
    tr = coequalizer_kernel_basis((identity, identity), 4)
    ours = tr.minimal_generators()
    assert ours == oracles.naive_minimal_generators(tr)
    if not ring.is_product:
        assert [(g.render(), e) for g, e in ours] == [("x", 1)]


def test_products_past_the_bound_are_not_formed(monkeypatch, cusp_rel):
    """In one free polynomial ring a product's degree is the sum of its
    factors': at degree 6 the span of the cusp's generators t^2 and t^3
    forms only the products of degree at most 6."""
    tr = coequalizer_kernel_basis(cusp_rel, 6)
    t2, t3 = (g for g, _ in tr.minimal_generators())
    formed = []
    mul = RingElement.__mul__

    def counted(a, b):
        formed.append((a.degree(), b.degree()))
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    seen = []

    def insert(p):
        if p in seen:
            return False
        seen.append(p)
        return True

    span = quotient.ProductSpan(tr.ring, 6, insert, [t2, t3])
    assert [e for _, e in span.kept] == [0, 2, 3, 4, 5, 6]
    assert all(a + b <= 6 for a, b in formed)
    assert len(formed) == 7


def test_grown_span_forms_each_product_once(monkeypatch):
    """``minimal_generators`` grows one span of products: for the S3 orbit
    relation at degree 14 it multiplies each pair of a kept element and a
    generator at most once, in either order, and finds the generators the
    rebuilt spans find."""
    A = AmbientRing.free(QQ, ("x", "y", "z"))
    pr = A.poly_ring(0)
    maps = [RingMap.on_polys(A, A, [pr.parse(v) for v in images]) for images in (
        "xyz", "yxz", "zyx", "xzy", "yzx", "zxy")]
    tr = coequalizer_kernel_basis(relation_from_group_action(GroupAction(A, maps)), 14)
    pairs = []
    mul = RingElement.__mul__

    def counted(a, b):
        pairs.append(frozenset((id(a), id(b))))
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    gens = tr.minimal_generators()
    monkeypatch.undo()
    assert pairs and len(set(pairs)) == len(pairs)
    assert gens == oracles.naive_minimal_generators(tr)
    assert [e for _, e in gens] == [1, 2, 3]


def test_relation_kernel_runs_under_the_budget(cusp_rel):
    with budget(1):
        with pytest.raises(BudgetExceededError):
            coequalizer_kernel_basis(cusp_rel, 12)
        with pytest.raises(BudgetExceededError):
            noetherian_probe(cusp_rel, 12)


def test_probe_stabilized(cusp_rel):
    rep = noetherian_probe(cusp_rel, 4)
    assert not rep.not_stabilized
    lines = rep.render().splitlines()
    assert lines[0] == "degree | basis dim | new generators"
    assert lines[-1] == "no new generators at degree 4"
    assert rep.rows()[2] == (2, 2, 1)


def test_probe_flags_fresh_generators_at_the_bound(cusp_rel):
    rep = noetherian_probe(cusp_rel, 2)
    assert rep.not_stabilized
    assert rep.render().splitlines()[-1] == "generation NOT stabilized through degree 2"


def test_probe_accepts_a_precomputed_truncation(cusp_rel):
    tr = coequalizer_kernel_basis(cusp_rel, 4)
    assert noetherian_probe(tr, 4).rows() == noetherian_probe(cusp_rel, 4).rows()


def test_probe_needs_room(cusp_rel):
    with pytest.raises(ValueError):
        noetherian_probe(cusp_rel, 1)


# -- presentations -----------------------------------------------------------


def test_present_cusp_coordinates():
    A = AmbientRing.free(QQ, ("t",))
    pr = A.poly_ring(0)
    ring, rels = present_subalgebra(
        [A.embed(0, pr.parse("t^2")), A.embed(0, pr.parse("t^3"))]
    )
    assert ring.names == ("w1", "w2")
    assert [ring.render(r) for r in rels] == ["w1^3 - w2^2"]


def test_present_veronese():
    B = AmbientRing.free(QQ, ("x", "y"))
    pb = B.poly_ring(0)
    gens = [B.embed(0, pb.parse(s)) for s in ("x^2", "x*y", "y^2")]
    ring, rels = present_subalgebra(gens)
    assert [ring.render(r) for r in rels] == ["w2^2 - w1*w3"]
    named_ring, named = present_subalgebra(gens, names=["a", "b", "c"])
    assert named_ring.names == ("a", "b", "c")
    assert [named_ring.render(r) for r in named] == ["b^2 - a*c"]


def test_present_free_generators():
    B = AmbientRing.free(QQ, ("x", "y"))
    pb = B.poly_ring(0)
    ring, rels = present_subalgebra([B.embed(0, pb.parse("x")), B.embed(0, pb.parse("y"))])
    assert rels == []
    assert ring.names == ("w1", "w2")


def test_present_validation():
    B = AmbientRing.free(QQ, ("x",))
    C = AmbientRing.free(QQ, ("y",))
    x = B.embed(0, B.poly_ring(0).var(0))
    with pytest.raises(ValueError):
        present_subalgebra([])
    with pytest.raises(ValueError):
        present_subalgebra([x, C.embed(0, C.poly_ring(0).var(0))])
    with pytest.raises(ValueError):
        present_subalgebra([x], names=["a", "b"])


def test_present_avoids_variable_capture():
    B = AmbientRing.free(QQ, ("w1", "w2"))
    pb = B.poly_ring(0)
    ring, rels = present_subalgebra([B.embed(0, pb.parse("w1 + w2"))])
    assert ring.names == ("_w1",)
    assert rels == []
