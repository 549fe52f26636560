import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from simplexconn.backend import R, ZERO, ONE, rat_from_str, rat_str
from simplexconn.exact_arith import (
    BottomPole,
    QSqrt,
    fold_at,
    fold_terminating,
    folded_series,
    hyp_terminating,
    hyp_with_prefactor,
    least_top,
    pochhammer,
    qsqrt_sums_equal,
)
from simplexconn import exact_arith

rationals = st.builds(R, st.integers(-30, 30), st.integers(1, 12))
small_n = st.integers(0, 12)


def test_rat_roundtrip():
    for text in ("3/4", "-7/2", "5", "0"):
        assert rat_str(rat_from_str(text)) == text


def test_pochhammer_values():
    assert pochhammer(R(3), 0) == 1
    assert pochhammer(R(3), 4) == 3 * 4 * 5 * 6
    assert pochhammer(R(-2), 3) == 0
    assert pochhammer(R(1, 2), 2) == R(3, 4)


@given(st.integers(-60, 60), st.integers(0, 8), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_rising_is_a_scaled_pochhammer(x, k, step):
    # the integer rising product of exact_arith, not this module's rational oracle below
    assert exact_arith.rising(x, k, step) == step**k * pochhammer(R(x, step), k)


def test_rising_needs_a_nonnegative_order():
    assert exact_arith.rising(5, 0, 3) == 1
    with pytest.raises(ValueError, match="k >= 0"):
        exact_arith.rising(5, -1, 3)
    # the series with its bottom Pochhammers folded in names its order too
    assert hyp_with_prefactor([R(1, 2)], [R(3)], 0) == ONE
    for m in (-1, -3):
        with pytest.raises(ValueError, match=f"series order m must be >= 0, got {m}"):
            hyp_with_prefactor([R(1, 2)], [R(3)], m)


@given(rationals, small_n, small_n)
@settings(max_examples=100, deadline=None)
def test_pochhammer_addition_law(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


@given(rationals, small_n)
@settings(max_examples=100, deadline=None)
def test_pochhammer_reflection(a, n):
    sign = -ONE if n % 2 else ONE
    assert pochhammer(a, n) == sign * pochhammer(-a - n + 1, n)


def test_hyp_terminating_is_finite_sum():
    # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n  (Chu-Vandermonde)
    for n in range(6):
        b, c = R(1, 3), R(7, 2)
        lhs = hyp_terminating([R(-n), b], [c], ONE)
        assert lhs == pochhammer(c - b, n) / pochhammer(c, n)


def test_hyp_terminating_picks_minimal_termination_order():
    # with two nonpositive-integer tops the series stops at the smaller one
    val = hyp_terminating([R(-2), R(-5)], [R(3)], ONE)
    direct = sum(
        pochhammer(R(-2), k) * pochhammer(R(-5), k) / (pochhammer(R(3), k) * pochhammer(ONE, k))
        for k in range(3)
    )
    assert val == direct


def test_hyp_terminating_bottom_pole():
    with pytest.raises(BottomPole):
        hyp_terminating([R(-4), R(2)], [R(-2)], ONE)


def test_fold_terminating_folds_at_the_least_top_and_consumes_it():
    # over step 3: the tops -15 and -6 are -5 and -2 steps, -4 is no multiple of 3 and 7 is positive
    tops = [-15, -4, -6, 7]
    assert least_top(tops, 3) == 2
    assert fold_terminating(tops, [5, -20], 3, 2, 7) == folded_series([-15, -4, 7], [5, -20], 2, 3, 2, 7)
    assert tops == [-15, -4, 7]
    # fold_at folds at the order its caller found: here the lesser least top of two parts of the tops
    assert fold_at([-15, -6, -4, 7], [5, -20], min(least_top([-15, -4], 3), least_top([-6, 7], 3)), 3, 2, 7) \
        == fold_terminating([-15, -4, -6, 7], [5, -20], 3, 2, 7)
    # equal least tops: one is folded, the other summed
    tops = [-2, 4, -2]
    assert fold_terminating(tops, [3]) == folded_series([4, -2], [3], 2)
    assert tops == [4, -2]
    assert fold_terminating([0, -3], [-1]) == (1, 1)


def test_fold_terminating_raises_with_the_series_messages():
    for tops, bottoms, step, message in (
        ([-4, 2], [-2], 1, "bottom parameter -2 poles at k=3"),
        ([-4, 1], [-3, -1], 1, "bottom parameter -1 poles at k=2"),
        ([-12, 1], [-6, -4], 3, "bottom parameter -2 poles at k=3"),
    ):
        with pytest.raises(BottomPole, match=f"^{message}$"):
            fold_terminating(tops, bottoms, step)
    for tops, step in (([], 1), ([1, 2], 1), ([-4, -2], 3), ([3], 3)):
        with pytest.raises(ValueError, match="^series does not terminate: no nonpositive-integer top parameter$"):
            fold_terminating(tops, [1], step)
    # hyp_terminating folds over the lcm of its parameters' denominators
    with pytest.raises(BottomPole, match="^bottom parameter -3 poles at k=4$"):
        hyp_terminating([R(-5), R(-7, 3)], [R(-2, 3), R(-3)], ONE)
    with pytest.raises(ValueError, match="^series does not terminate"):
        hyp_terminating([R(1, 2), R(3)], [R(-2)], ONE)


def test_hyp_with_prefactor_matches_series_when_regular():
    # prefactored value equals prod (b)_m * pFq when no bottom pole occurs
    top = [R(1, 2), R(-7, 3)]
    bottom = [R(9, 4), R(11, 2)]
    for m in range(5):
        plain = hyp_terminating([R(-m)] + top, bottom, ONE)
        pref = pochhammer(bottom[0], m) * pochhammer(bottom[1], m) * plain
        assert hyp_with_prefactor(top, bottom, m) == pref


def rising(a, k):
    out = ONE
    for i in range(k):
        out *= a + i
    return out


def series_by_definition(top, bottom, z):
    """sum_k prod (a)_k / prod (b)_k z^k / k! up to the minimal order m with -m among the tops.

    None when a bottom factor (b)_k vanishes at some k <= m.
    """
    m = min(-int(a) for a in top if a.denominator == 1 and a <= 0)
    total = ZERO
    for k in range(m + 1):
        den = math.factorial(k)
        for b in bottom:
            den *= rising(b, k)
        if den == 0:
            return None
        num = z**k
        for a in top:
            num *= rising(a, k)
        total += num / den
    return total


def folded_term(top, bottom, m, z, k):
    """(-m)_k prod (a)_k prod (b+k)_{m-k} z^k / k!."""
    num = rising(R(-m), k) * z**k / math.factorial(k)
    for a in top:
        num *= rising(a, k)
    for b in bottom:
        num *= rising(b + k, m - k)
    return num


def folded_by_definition(top, bottom, m, z):
    """sum_k (-m)_k prod (a)_k prod (b+k)_{m-k} z^k / k!, term by term."""
    return sum((folded_term(top, bottom, m, z, k) for k in range(m + 1)), ZERO)


# nonpositive-integer tops and bottoms, from inside the order to beyond it
params = st.one_of(rationals, st.builds(R, st.integers(-12, 0)))
series_args = (st.integers(0, 7), st.lists(params, max_size=3), st.lists(params, max_size=3),
               st.one_of(st.just(ONE), rationals))


@given(*series_args)
@settings(max_examples=300, deadline=None)
def test_hyp_terminating_matches_the_definition(m, top, bottom, z):
    top = top + [R(-m)]
    expect = series_by_definition(top, bottom, z)
    if expect is None:
        with pytest.raises(BottomPole):
            hyp_terminating(top, bottom, z)
    else:
        assert hyp_terminating(top, bottom, z) == expect


@given(*series_args)
@settings(max_examples=300, deadline=None)
def test_hyp_with_prefactor_matches_the_definition(m, top, bottom, z):
    value = hyp_with_prefactor(top, bottom, m, z)
    assert value == folded_by_definition(top, bottom, m, z)
    prefactor = ONE
    for b in bottom:
        prefactor *= rising(b, m)
    if prefactor != 0:
        assert value == prefactor * series_by_definition(top + [R(-m)], bottom, z)


# integer parameters over step > 1, with p != q tops and bottoms, at z = zp/zq != 1
integer_params = st.lists(st.integers(-40, 40), max_size=3)
kernel_args = (
    st.integers(0, 7),
    st.integers(2, 6),
    st.tuples(integer_params, integer_params).filter(lambda tb: len(tb[0]) != len(tb[1])),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).filter(lambda z: z[0] != z[1]),
)


@given(*kernel_args)
@settings(max_examples=300, deadline=None)
def test_folded_series_matches_the_definition_term_by_term(m, step, tops_bottoms, z):
    # T_k = step^{pk+q(m-k)} zq^m t_k with t_k the folded term at a = A/step, b = B/step, z = zp/zq
    tops, bottoms = tops_bottoms
    zp, zq = z
    p, q = len(tops), len(bottoms)
    top = [R(a, step) for a in tops]
    bottom = [R(b, step) for b in bottoms]
    expect = sum(
        (step ** (p * k + q * (m - k)) * zq**m * folded_term(top, bottom, m, R(zp, zq), k) for k in range(m + 1)),
        ZERO,
    )
    prefactor = ONE
    for b in bottom:
        prefactor *= rising(b, m)
    assert folded_series(tops, bottoms, m, step, zp, zq) == (expect, step ** (q * m) * zq**m * prefactor)


def test_hyp_with_prefactor_is_pole_free():
    # bottom hits a nonpositive integer inside the summation range; the
    # prefactored form must still produce a finite rational
    val = hyp_with_prefactor([R(5)], [R(-3)], 5)
    assert val is not None


def test_whipple_identity_random():
    rng = random.Random(20240817)
    for _ in range(100):
        m = rng.randint(0, 6)
        X = R(rng.randint(-20, 20), rng.randint(1, 5))
        Y = R(rng.randint(-20, 20), rng.randint(1, 5))
        Z = R(rng.randint(-20, 20), rng.randint(1, 5))
        U = R(rng.randint(1, 20), rng.randint(1, 5))
        V = R(rng.randint(1, 20), rng.randint(1, 5))
        W = 1 - m + X + Y + Z - U - V
        lhs = hyp_with_prefactor([X, Y, Z], [U, V, W], m)
        rhs = hyp_with_prefactor(
            [U - X, U - Y, Z], [1 - V + Z - m, 1 - W + Z - m, U], m
        )
        assert lhs == rhs


class TestQSqrt:
    def test_signed_takes_the_sign_of_its_first_argument(self):
        assert QSqrt.signed(R(-3, 4), R(2)) == QSqrt(-1, R(2))
        assert QSqrt.signed(5, R(2)) == QSqrt(1, R(2))
        assert QSqrt.signed(ZERO, R(2)).sign == 0
        assert QSqrt.signed(R(1, 2), ZERO) == QSqrt(0, ZERO)

    def test_of_rational_and_square(self):
        q = QSqrt.signed(R(-3, 4), R(9, 16))
        assert q == QSqrt(-1, R(9, 16))
        assert q.square() == R(9, 16)

    def test_zero(self):
        z = QSqrt.signed(ZERO, ZERO)
        assert z.sign == 0 and z.radicand == ZERO
        assert z == QSqrt(0, ZERO) == QSqrt(1, ZERO)

    @given(rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_square(self, a, b):
        qa, qb = QSqrt.signed(a, a * a), QSqrt.signed(b, b * b)
        prod = qa * qb
        assert prod.square() == qa.square() * qb.square()
        assert prod == QSqrt.signed(a * b, (a * b) * (a * b))

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_neg_and_scale(self, a):
        q = QSqrt.signed(a, a * a)
        assert -q == QSqrt.signed(-a, a * a)
        assert q.scale(R(3)) == QSqrt.signed(3 * a, 9 * a * a)
        assert q * QSqrt(1, R(9, 4)) == QSqrt.signed(a, R(9, 4) * a * a)

    def test_sign_is_the_int_minus_one_zero_or_one(self):
        for sign in (-1, 0, 1):
            assert QSqrt(sign, R(1, 4)).sign == sign
        # 2 sqrt(1/4) would equal QSqrt(1, 1) with another pair; a float or rational sign is no int
        for sign in (2, -2, 0.5, 1.0, R(1), True):
            with pytest.raises(ValueError, match="sign must be the int -1, 0 or 1"):
                QSqrt(sign, R(1, 4))

    def test_json(self):
        assert QSqrt(-1, R(5, 3)).to_json() == {"sign": -1, "radicand": "5/3"}

    def test_radicand_is_a_rational_kept_as_given(self):
        r = R(5, 3)
        assert QSqrt(1, r).radicand is r
        for raw, want in ((4, R(4)), (0, ZERO)):
            q = QSqrt(1, raw)
            assert type(q.radicand) is type(ONE) and q.radicand == want
        assert QSqrt(1, 0).sign == 0 and QSqrt(0, 7).radicand == ZERO
        for raw in (R(-1, 3), -2):
            with pytest.raises(ValueError, match="radicand must be nonnegative"):
                QSqrt(1, raw)
        # the radicand is an exact rational, not a string to parse
        for raw in ("0", "5/3"):
            with pytest.raises(TypeError):
                QSqrt(1, raw)


def test_equal_sums_in_one_class():
    # sqrt(8) = sqrt(2) + sqrt(2)
    assert qsqrt_sums_equal([QSqrt(1, 8)], [QSqrt(1, 2), QSqrt(1, 2)])
    # sqrt(1/2) = (1/2) sqrt(2), written as two quarters sqrt(1/8)
    assert qsqrt_sums_equal([QSqrt(1, R(1, 2))], [QSqrt(1, R(1, 8)), QSqrt(1, R(1, 8))])
    assert qsqrt_sums_equal([QSqrt(1, R(1, 2))], [QSqrt(1, 2).scale(R(1, 2))])


def test_unequal_sums_across_classes():
    # sqrt(2) + sqrt(3) != sqrt(5)
    assert not qsqrt_sums_equal([QSqrt(1, 2), QSqrt(1, 3)], [QSqrt(1, 5)])
    assert not qsqrt_sums_equal([QSqrt(1, 2)], [QSqrt(-1, 2)])


def test_zero_terms_and_cancellation():
    assert qsqrt_sums_equal([QSqrt(0, 0), QSqrt(1, 3), QSqrt(-1, 3)], [])
    assert qsqrt_sums_equal([QSqrt(1, 12), QSqrt(-1, 3)], [QSqrt(1, 3)])



def test_R_keeps_a_backend_rational_and_takes_only_rationals():
    r = R(5, 3)
    assert R(r) is r
    assert R(r, 2) == R(5, 6) and R(4) == 4 and type(R(4)) is type(ONE)
    # a float or a string is not an exact rational input: R(x) stays R(x, 1)
    for bad in (0.1, "1/2"):
        with pytest.raises(TypeError):
            R(bad)
