"""Rational arithmetic backend.

Everything in this package computes with exact rationals.  Two
interchangeable backends are supported: gmpy2.mpq (fast, C-backed) and
fractions.Fraction (pure Python, always available).  The backend is chosen
at import time; set SIMPLEXCONN_BACKEND=fraction or =gmpy2 to force one.
"""

import os

_choice = os.environ.get("SIMPLEXCONN_BACKEND", "").strip().lower()

if _choice in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as _mpq

        BACKEND = "gmpy2"
    except ImportError:
        if _choice == "gmpy2":
            raise
        BACKEND = "fraction"
else:
    if _choice != "fraction":
        raise ValueError("SIMPLEXCONN_BACKEND must be 'gmpy2' or 'fraction'")
    BACKEND = "fraction"

if BACKEND == "gmpy2":
    _make = _mpq
else:
    from fractions import Fraction as _make

ZERO = _make(0)
ONE = _make(1)
RAT = type(ONE)  # the backend's rational type


def R(p, q=1):
    """Exact rational p/q; p itself when q = 1 and p is a backend rational already."""
    return p if q == 1 and type(p) is RAT else _make(p, q)


def rat_from_str(s):
    """Parse 'p/q' or 'p' into a rational.  Raises ValueError on junk or q = 0."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return _make(int(p), int(q))
    return _make(int(s))


def rat_str(r):
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(r)


def numer(r):
    return int(r.numerator)


def denom(r):
    return int(r.denominator)
