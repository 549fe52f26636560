"""Rational reference computations of the simplex basis, independent of the package's integer code.

The Jacobi coefficients come from the ratio recurrence of the 2F1 series, a_j
from rational sums, and the basis from SparsePoly products of
substitute_homogeneous factors.  Tests compare the package's integer
definitions (simplex.jacobi_core, a_core and the basis product) with these.
"""

from simplexconn.backend import R, ZERO, ONE
from simplexconn.multipoly import SparsePoly, substitute_homogeneous


def top_part(p, n):
    """The degree-n part of the SparsePoly p."""
    return SparsePoly(p.d, {e: c for e, c in p.terms.items() if sum(e) == n})


def recurrence_jacobi_1d(n, a, b):
    """P_n^{(a,b)}(2z - 1) in z, ascending, from the ratio of consecutive terms of
    (-1)^n (b+1)_n/n! 2F1(-n, n+a+b+1; b+1; z): one rational division per term."""
    a, b = R(a), R(b)
    term = (-ONE) ** n
    for i in range(n):
        term = term * (b + 1 + i) / (i + 1)
    coeffs = [term]
    for k in range(1, n + 1):
        term = term * (k - 1 - n) * (n + a + b + k) / ((b + k) * k)
        coeffs.append(term)
    return coeffs


def summed_a_coeffs(nu, kappa):
    """a_j = |kappa^{j+1}| + 2|nu^{j+1}| + d - j as rational sums."""
    d = len(nu)
    return [sum((R(k) for k in kappa[j:]), ZERO) + 2 * sum(nu[j:]) + d - j for j in range(1, d + 1)]


def loop_basis(nu, kappa):
    """prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 x_j / hom_j - 1) by SparsePoly products.

    hom_j = 1 - x_1 - ... - x_{j-1}, and each factor is substitute_homogeneous of the recurrence.
    """
    d = len(nu)
    aj = summed_a_coeffs(nu, kappa)
    result = hom = SparsePoly.constant(d, ONE)
    for j in range(d):
        x = SparsePoly.variable(d, j)
        result = result * substitute_homogeneous(recurrence_jacobi_1d(nu[j], aj[j], kappa[j]), x, hom, nu[j])
        hom = hom - x
    return result
