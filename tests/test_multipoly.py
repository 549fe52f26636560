import pytest
from hypothesis import given, settings, strategies as st

from simplexconn.backend import R, ONE
from simplexconn.multipoly import (
    DimensionMismatch,
    SparsePoly,
    grevlex_key,
    homogenize,
    mul_terms,
    substitute_homogeneous,
)

coefs = st.builds(R, st.integers(-9, 9), st.integers(1, 4))


def polys(d, max_deg=3, max_terms=5):
    exps = st.tuples(*([st.integers(0, max_deg)] * d))
    return st.dictionaries(exps, coefs, max_size=max_terms).map(
        lambda t: SparsePoly(d, t)
    )


def test_grevlex_order():
    # degree first, then reversed-exponent tiebreak
    assert grevlex_key((2, 0)) < grevlex_key((0, 3))
    assert sorted([(0, 2), (1, 1), (2, 0)], key=grevlex_key) == [(2, 0), (1, 1), (0, 2)]


def test_constructors_and_degree():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = x * x + y.scale(R(3)) - SparsePoly.constant(2, ONE)
    assert p.degree() == 2
    assert p.eval((R(2), R(5))) == 4 + 15 - 1
    assert SparsePoly.zero(2).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        SparsePoly.variable(2, 0) + SparsePoly.variable(3, 0)


@given(polys(2), polys(2), polys(2))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == SparsePoly.zero(2)


@given(polys(2), st.tuples(coefs, coefs))
@settings(max_examples=60, deadline=None)
def test_mul_eval_homomorphism(a, point):
    b = SparsePoly.variable(2, 0) + SparsePoly.constant(2, ONE)
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)


def test_subst_composition():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = x * x + y
    q = p.subst([y, x])  # swap variables
    assert q == y * y + x


def test_mul_terms_takes_integer_coefficients_and_keeps_no_zero():
    # (x + 1)(x - 1) = x^2 - 1: the x terms cancel and are dropped
    assert mul_terms({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}) == {(2,): 1, (0,): -1}
    assert mul_terms({(1, 0): 2}, {}) == {}


def test_substitute_homogeneous_binomial():
    # sum_k C(n,k) lin^k hom^(n-k) == (lin + hom)^n
    lin = SparsePoly.variable(2, 0)
    hom = SparsePoly.variable(2, 1)
    n = 4
    coeffs = [R(1), R(4), R(6), R(4), R(1)]
    assert substitute_homogeneous(coeffs, lin, hom, n) == (lin + hom) ** n


@given(polys(2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_homogenize_is_homogeneous_and_gives_back_p(p, extra):
    m = max(p.degree(), 0) + extra
    h = homogenize(p, m)
    assert h.d == 3 and all(sum(e) == m for e in h.terms)
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert h.subst([x, y, SparsePoly.constant(2, ONE) - x - y]) == p


def test_homogenize_rejects_degree_above_m():
    p = SparsePoly.variable(2, 0) * SparsePoly.variable(2, 1)
    with pytest.raises(ValueError, match="degree-2 polynomial to degree 1"):
        homogenize(p, 1)


def test_leading_and_sorted_terms():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = x * x + x * y + y
    exp, c = p.leading()
    assert exp == (1, 1) and c == ONE
    degrees = [sum(e) for e, _ in p.sorted_terms()]
    assert degrees == sorted(degrees)


def test_json_roundtrip():
    x = SparsePoly.variable(3, 1)
    p = x * x.scale(R(-5, 3)) + SparsePoly.constant(3, R(7))
    assert SparsePoly.from_json(p.to_json()) == p
