import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from oracles import loop_substitute_homogeneous
from simplexconn.backend import R, ZERO, ONE
from simplexconn.multipoly import (
    DimensionMismatch,
    SparsePoly,
    grevlex_key,
    homogenize,
    mul_terms,
    substitute_homogeneous,
)

coefs = st.builds(R, st.integers(-9, 9), st.integers(1, 4))


def evaluate(p, point):
    """p at a point, term by term: sum_e c_e prod_i x_i^e_i."""
    total = ZERO
    for exp, c in p.terms.items():
        for x, e in zip(point, exp):
            c *= x**e
        total += c
    return total


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
    assert evaluate(p, (R(2), R(5))) == 4 + 15 - 1
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
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


def test_subst_composition():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = x * x + y
    q = p.subst([y, x])  # swap variables
    assert q == y * y + x


def test_mul_terms_takes_integer_coefficients_and_keeps_no_zero():
    # (x + 1)(x - 1) = x^2 - 1: the x terms cancel and are dropped, whether the
    # keys are exponent tuples or integer exponents that add
    def add_tuples(e1, e2):
        return tuple(a + b for a, b in zip(e1, e2))

    assert mul_terms({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}, add_tuples) == {(2,): 1, (0,): -1}
    assert mul_terms({1: 1, 0: 1}, {1: 1, 0: -1}, add) == {2: 1, 0: -1}
    assert mul_terms({(1, 0): 2}, {}, add_tuples) == {}


def test_substitute_homogeneous_binomial():
    # sum_k C(n,k) lin^k hom^(n-k) == (lin + hom)^n
    lin = SparsePoly.variable(2, 0)
    hom = SparsePoly.variable(2, 1)
    n = 4
    coeffs = [R(1), R(4), R(6), R(4), R(1)]
    power = SparsePoly.constant(2, ONE)
    for _ in range(n):
        power = power * (lin + hom)
    assert substitute_homogeneous(coeffs, lin, hom, n) == power


def test_substitute_homogeneous_matches_the_loop():
    # hom carries x_d^2, which multilinear rand_poly terms cannot cancel, so hom != 1
    rng = random.Random(20261019)

    def rand_poly(d):
        return SparsePoly(d, {tuple(rng.randint(0, 1) for _ in range(d)): R(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(3)})

    for d in (1, 2, 3):
        for n in range(5):
            for _ in range(4):
                lin = rand_poly(d)
                hom = rand_poly(d) + SparsePoly(d, {(0,) * (d - 1) + (2,): ONE})
                coeffs = [R(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, n + 1))]
                if coeffs and rng.random() < 0.5:
                    coeffs[-1] = ZERO  # a trailing zero
                assert substitute_homogeneous(coeffs, lin, hom, n) == loop_substitute_homogeneous(coeffs, lin, hom, n)
            too_long = [ONE] * (n + 2)
            for rule in (substitute_homogeneous, loop_substitute_homogeneous):
                with pytest.raises(ValueError, match="longer than degree"):
                    rule(too_long, lin, hom, n)


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
