"""Scalar kernel: Pochhammer symbols, terminating hypergeometric series,
and exact sign*sqrt(rational) values (QSqrt).

All inputs and outputs are exact rationals from the selected backend; no
floating point is ever used.
"""

import math

from .backend import R, ZERO, ONE, numer, denom, rat_str


class BottomPole(ArithmeticError):
    """A bottom Pochhammer vanished before the series terminated."""


def pochhammer(a, n):
    """Rising factorial (a)_n = a(a+1)...(a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = ONE
    for k in range(n):
        out *= a + k
    return out


def _termination_order(top):
    """Minimal m with a top parameter equal to -m, or None."""
    m = None
    for a in top:
        if a.denominator == 1 and a.numerator <= 0:
            k = -int(a.numerator)
            if m is None or k < m:
                m = k
    return m


def _folded_series(top, bottom, m, z):
    """(sum_k t_k, prod_b (b)_m) for t_k = (-m)_k prod_a (a)_k prod_b (b+k)_{m-k} z^k / k!.

    The bottom tails prod_b (b+k)_{m-k} are built from k = m downward and
    the heads (-m)_k prod_a (a)_k z^k / k! upward, so the sum takes O(m)
    products and divides by nothing but k + 1.  The k = 0 tail is
    prod_b (b)_m.
    """
    tails = [ONE] * (m + 1)
    for k in range(m - 1, -1, -1):
        tail = tails[k + 1]
        for b in bottom:
            tail *= b + k
        tails[k] = tail
    total = tails[0]
    head = ONE
    for k in range(m):
        for a in top:
            head *= a + k
        head = head * (k - m) * z / (k + 1)
        total += head * tails[k + 1]
    return total, tails[0]


def hyp_terminating(top, bottom, z):
    """Exact value of a terminating pFq at argument z.

    Terminates at the minimal m with a top parameter equal to -m.  Raises
    BottomPole if a bottom Pochhammer vanishes at or before that order,
    that is exactly when prod_b (b)_m = 0.
    """
    m = _termination_order(top)
    if m is None:
        raise ValueError("series does not terminate: no nonpositive-integer top parameter")
    rest = list(top)
    rest.remove(-m)
    total, bottom_m = _folded_series(rest, bottom, m, z)
    if bottom_m == 0:
        raise bottom_pole(bottom, m)
    return total / bottom_m


def bottom_pole(bottom, m):
    """The BottomPole for a series folded at order m whose prod_b (b)_m is 0."""
    b = max(b for b in bottom if b.denominator == 1 and -m < b <= 0)
    return BottomPole(f"bottom parameter {rat_str(b)} poles at k={1 - int(b)}")


def hyp_with_prefactor(top, bottom, m, z=ONE):
    """Exact value of prod_b (b)_m * pFq(-m, top; bottom; z).

    The product of the bottom Pochhammers up to m is folded into each term,
    so the combination is a polynomial in the bottom parameters and stays
    finite even where the bare series has a pole: the k-th term carries
    (b)_m/(b)_k = (b+k)_{m-k}.  Used by the Tratnik-style product formulas
    whose prefactors are exactly these bottom Pochhammers.
    """
    return _folded_series(top, bottom, m, z)[0]


class QSqrt:
    """Exact value sign * sqrt(radicand) with rational radicand >= 0.

    Two QSqrt values are equal iff their (sign, radicand) pairs are equal,
    which coincides with value equality since sqrt is injective on [0, oo).
    """

    __slots__ = ("sign", "radicand")

    def __init__(self, sign, radicand):
        radicand = R(radicand)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if radicand == 0:
            sign = 0
        elif sign == 0:
            radicand = R(0)
        self.sign = sign
        self.radicand = radicand

    @classmethod
    def signed(cls, s, radicand):
        """sign(s) * sqrt(radicand), for a rational s."""
        return cls((s > 0) - (s < 0), radicand)

    @classmethod
    def of_rational(cls, x):
        """QSqrt equal to the rational x (radicand x^2)."""
        return cls.signed(x, x * x)

    @classmethod
    def sqrt(cls, x):
        """Principal square root of a nonnegative rational."""
        return cls(1 if x > 0 else 0, x)

    def square(self):
        return self.radicand if self.sign != 0 else ZERO

    def __mul__(self, other):
        if isinstance(other, QSqrt):
            return QSqrt(self.sign * other.sign, self.radicand * other.radicand)
        return NotImplemented

    def scale(self, x):
        """Multiply by a rational x (exact; folds x^2 into the radicand)."""
        return QSqrt.signed(self.sign * x, self.radicand * x * x)

    def scale_sqrt(self, x):
        """Multiply by sqrt(x) for a nonnegative rational x."""
        if x < 0:
            raise ValueError("radicand must be nonnegative")
        return QSqrt(self.sign if x > 0 else 0, self.radicand * x)

    def __neg__(self):
        return QSqrt(-self.sign, self.radicand)

    def is_zero(self):
        return self.sign == 0

    def as_rational(self):
        """Exact rational value, or None when the radicand is not a perfect square."""
        p, q = numer(self.radicand), denom(self.radicand)
        sp = math.isqrt(p)
        sq = math.isqrt(q)
        if sp * sp != p or sq * sq != q:
            return None
        return self.sign * R(sp, sq)

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
