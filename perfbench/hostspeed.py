"""Host speed, measured with a fixed loop, for speed-normalized times.

The benchmark runs on a shared host whose speed changes by up to 1.7x
from one second to the next, for every kind of Python work alike. So every
timed operation is bracketed by two runs of this loop, and its time is
scaled to a host on which the loop takes REF_S:

    normalized = wall time * REF_S / mean(loop time before, loop time after)

The loop uses only the standard library, never simplexconn, so a change
to the program moves the normalized time by the same ratio as it moves
the wall time on a steady host.
"""

from fractions import Fraction
from time import perf_counter

REF_S = 0.003
"""The loop's time, in seconds, on the reference host speed."""


def loop():
    """Fixed work like simplexconn's: Fraction products and sums, tuple-keyed dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc = acc * Fraction(i % 7 + 1, i % 11 + 3) + Fraction(3, i % 5 + 2)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 999983 + 1)
        table[(i, i % 3)] = acc
    return len(table)


def calibration_s():
    """Wall time of one run of the fixed loop."""
    start = perf_counter()
    loop()
    return perf_counter() - start


def scale(before, after):
    """Factor that turns a wall time bracketed by two loop times into reference seconds."""
    return 2 * REF_S / (before + after)
