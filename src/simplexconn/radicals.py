"""Exact comparison of sums of square roots of rationals.

Two radicands r, r' fall in one class when r/r' is the square of a rational;
then sign*sqrt(r) = (sign*sqrt(r/r')) * sqrt(r') is a rational multiple of
sqrt(r').  Square roots from distinct classes are linearly independent over
the rationals, so two sums are equal iff, in every class, the rational
coefficients of the difference add up to zero.
"""

from .exact_arith import QSqrt


def qsqrt_sums_equal(left, right):
    """Exact equality of two sums of QSqrt values."""
    classes = []  # [representative radicand, coefficient of its square root]
    for side, values in ((1, left), (-1, right)):
        for q in values:
            if q.sign == 0:
                continue
            for cls in classes:
                root = QSqrt.sqrt(q.radicand / cls[0]).as_rational()
                if root is not None:
                    cls[1] += side * q.sign * root
                    break
            else:
                classes.append([q.radicand, side * q.sign])
    return all(coef == 0 for _, coef in classes)
