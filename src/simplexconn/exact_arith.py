"""Scalar kernel: Pochhammer symbols, terminating hypergeometric series,
exact sign*sqrt(rational) values (QSqrt) and the exact comparison of their
sums (qsqrt_sums_equal).

The series functions take and return exact rationals (Fraction); no
floating point is ever used.  Every terminating series, here, in the local
rules of closed_forms and discrete and in the Racah product formula, is
summed in Python integers by one kernel, folded_series, with its parameters
over one denominator (over_lcm), and fold_terminating folds it at its least
top -m: least_top finds m and fold_at folds there, and a caller that knows
its least top calls fold_at itself; rising is the integer Pochhammer
product, and pochhammer its rational view.
"""

import math
from fractions import Fraction

from .backend import R, ZERO, ONE, rat_str


class BottomPole(ArithmeticError):
    """A bottom Pochhammer vanished before the series terminated."""


def rising(x, k, step=1):
    """prod_{i<k} (x + i step), that is step^k (x/step)_k, for integers x and step."""
    if k < 0:
        raise ValueError("rising needs k >= 0")
    out = 1
    for _ in range(k):
        out *= x
        x += step
    return out


def pochhammer(a, n):
    """Rising factorial (a)_n = a(a+1)...(a+n-1), (a)_0 = 1: rising over the denominator q of a, over q^n."""
    q = a.denominator
    return R(rising(a.numerator, n, q), q**n)


def _ratio(v):
    """(numerator, denominator) of a rational that is not a Fraction, an int say; AttributeError for a float."""
    q = v.denominator
    return v.numerator, q


def over_lcm(values):
    """(ints, D): the rationals values as integers over D, the lcm of their denominators.

    A Fraction gives its numerator and denominator in one read; any other
    value is read by its two properties, so a float, which has
    as_integer_ratio but no denominator, is still refused.
    """
    pairs = [v.as_integer_ratio() if type(v) is Fraction else _ratio(v) for v in values]
    D = math.lcm(*[q for _, q in pairs])
    return [p * (D // q) for p, q in pairs], D


def folded_series(tops, bottoms, m, step=1, zp=1, zq=1):
    """(sum_k T_k, T_0) in integers, for tops a = A/step, bottoms b = B/step and z = zp/zq.

    T_k = step^{pk+q(m-k)} zq^m t_k for the folded term
    t_k = (-m)_k prod_a (a)_k prod_b (b+k)_{m-k} z^k / k! of p tops and q
    bottoms, each (a)_k being prod_{i<k} (A + i step) / step^k.  With p = q
    every term carries step^{qm}, so sum T_k / T_0 = sum t_k / prod_b (b)_m;
    a caller with p != q folds step^{p-q} into z.  The tails are built from
    k = m down and the heads up, so the O(m) loop's one division, by k + 1,
    is exact: the head of order k is (-1)^k C(m, k) times integers.
    """
    tails = [1] * (m + 1)
    for k in range(m - 1, -1, -1):
        tail, shift = tails[k + 1] * zq, k * step
        for b in bottoms:
            tail *= b + shift
        tails[k] = tail
    total, head = tails[0], 1
    for k in range(m):
        head, shift = head * (k - m) * zp, k * step
        for a in tops:
            head *= a + shift
        head //= k + 1
        total += head * tails[k + 1]
    return total, tails[0]


def least_top(tops, step=1):
    """The least m with -m step among tops, the order at which the series terminates.

    ValueError if no top is a nonpositive multiple of step.
    """
    m = None
    for a in tops:
        if a <= 0 and a % step == 0 and (m is None or -a < m * step):
            m = -a // step
    if m is None:
        raise ValueError("series does not terminate: no nonpositive-integer top parameter")
    return m


def fold_at(tops, bottoms, m, step=1, zp=1, zq=1):
    """folded_series at order m, with one top -m step taken out of tops, a fresh list.

    BottomPole, naming the bottom that vanishes, if prod_b (b)_m = 0.  A
    caller that knows the least top of its tops (least_top) passes it as m.
    """
    tops.remove(-m * step)
    total, bottom = folded_series(tops, bottoms, m, step, zp, zq)
    if bottom == 0:
        b = max(b // step for b in bottoms if b % step == 0 and -m * step < b <= 0)
        raise BottomPole(f"bottom parameter {b} poles at k={1 - b}")
    return total, bottom


def fold_terminating(tops, bottoms, step=1, zp=1, zq=1):
    """fold_at the least top of tops: ValueError if there is none, BottomPole if prod_b (b)_m = 0."""
    return fold_at(tops, bottoms, least_top(tops, step), step, zp, zq)


def _over_step(top, bottom, z, excess):
    """top + bottom over one step D, and z = zp/zq with D^excess folded in: folded_series' arguments."""
    ints, D = over_lcm(list(top) + list(bottom))
    zp, zq = z.numerator * D ** max(-excess, 0), z.denominator * D ** max(excess, 0)
    return ints[: len(top)], ints[len(top):], D, zp, zq


def hyp_terminating(top, bottom, z):
    """Exact value of a terminating pFq at argument z.

    Terminates at the minimal m with a top parameter equal to -m.  Raises
    BottomPole if a bottom Pochhammer vanishes at or before that order,
    that is exactly when prod_b (b)_m = 0: fold_terminating over step D.
    """
    tops, bottoms, D, zp, zq = _over_step(top, bottom, z, len(top) - 1 - len(bottom))
    return R(*fold_terminating(tops, bottoms, D, zp, zq))


def hyp_with_prefactor(top, bottom, m, z=ONE):
    """Exact value of prod_b (b)_m * pFq(-m, top; bottom; z).

    The product of the bottom Pochhammers up to m is folded into each term,
    so the combination is a polynomial in the bottom parameters and stays
    finite even where the bare series has a pole: the k-th term carries
    (b)_m/(b)_k = (b+k)_{m-k}.  Used by the Tratnik-style product formulas
    whose prefactors are exactly these bottom Pochhammers.  ValueError for m < 0.
    """
    if m < 0:
        raise ValueError(f"series order m must be >= 0, got {m}")
    tops, bottoms, D, zp, zq = _over_step(top, bottom, z, len(top) - len(bottom))
    return R(folded_series(tops, bottoms, m, D, zp, zq)[0], (D ** len(bottoms) * zq) ** m)


class QSqrt:
    """Exact value sign * sqrt(radicand) with rational radicand >= 0.

    Two QSqrt values are equal iff their (sign, radicand) pairs are equal,
    which coincides with value equality since sqrt is injective on [0, oo).
    A radicand that is already a Fraction is kept as given; any other
    exact rational (an int) is converted by R.  ValueError unless the sign is the int -1, 0 or 1.
    """

    __slots__ = ("sign", "radicand")

    def __init__(self, sign, radicand):
        if type(sign) is not int or sign not in (-1, 0, 1):
            raise ValueError(f"sign must be the int -1, 0 or 1, got {sign!r}")
        radicand = R(radicand)
        top = radicand.numerator
        if top <= 0:
            if top:
                raise ValueError("radicand must be nonnegative")
            sign = 0
        elif sign == 0:
            radicand = ZERO
        self.sign = sign
        self.radicand = radicand

    @classmethod
    def signed(cls, s, radicand):
        """sign(s) * sqrt(radicand), for a rational s."""
        return cls((s > 0) - (s < 0), radicand)

    def square(self):
        return self.radicand if self.sign != 0 else ZERO

    def __mul__(self, other):
        if isinstance(other, QSqrt):
            return QSqrt(self.sign * other.sign, self.radicand * other.radicand)
        return NotImplemented

    def scale(self, x):
        """Multiply by a rational x (exact; folds x^2 into the radicand)."""
        return QSqrt.signed(self.sign * x, self.radicand * x * x)

    def __neg__(self):
        return QSqrt(-self.sign, self.radicand)

    def __eq__(self, other):
        if isinstance(other, QSqrt):
            return self.sign == other.sign and self.radicand == other.radicand
        return NotImplemented

    def __hash__(self):
        return hash((self.sign, self.radicand))

    def __repr__(self):
        return f"QSqrt({self.sign}, {rat_str(self.radicand)})"

    def to_json(self):
        return {"sign": self.sign, "radicand": rat_str(self.radicand)}


def _rational_root(x):
    """sqrt(x) for a rational x > 0 when it is rational, else None."""
    p, q = x.numerator, x.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    return R(sp, sq) if sp * sp == p and sq * sq == q else None


def qsqrt_sums_equal(left, right):
    """Exact equality of two sums of QSqrt values.

    Two radicands r, r' fall in one class when r/r' is the square of a
    rational; then sign*sqrt(r) is a rational multiple of sqrt(r').  Square
    roots from distinct classes are linearly independent over the rationals,
    so two sums are equal iff, in every class, the rational coefficients of
    the difference add up to zero.
    """
    classes = []  # [representative radicand, coefficient of its square root]
    for side, values in ((1, left), (-1, right)):
        for q in values:
            if q.sign == 0:
                continue
            for cls in classes:
                root = _rational_root(q.radicand / cls[0])
                if root is not None:
                    cls[1] += side * q.sign * root
                    break
            else:
                classes.append([q.radicand, side * q.sign])
    return all(coef == 0 for _, coef in classes)
