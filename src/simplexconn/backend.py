"""Exact rationals.

Everything in this package computes with fractions.Fraction, the one
rational type: the hot loops run in Python integers and make one Fraction
per result.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def R(p, q=1):
    """Exact rational p/q; p itself when q = 1 and p is a Fraction already."""
    return p if q == 1 and type(p) is Fraction else Fraction(p, q)


def rat_from_str(s):
    """Parse 'p/q' or 'p' into a rational.  Raises ValueError on junk or q = 0."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def rat_str(r):
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(r)
