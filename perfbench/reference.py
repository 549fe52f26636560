"""Computations made apart from simplexconn, used to check its results.

Nothing here imports the package under test: the Jacobi basis on the simplex
is evaluated at a point from its product formula, with fractions.Fraction.
"""

import math
from fractions import Fraction

POINT_DENOM = 97


def frac(x):
    """Any exact rational (Fraction or gmpy2.mpq) as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None when irrational."""
    x = frac(x)
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if p * p != x.numerator or q * q != x.denominator:
        return None
    return Fraction(p, q)


def compositions(n, d):
    """All d-tuples of nonnegative integers summing to n, sorted."""
    if d == 1:
        return [(n,)]
    return sorted((k,) + rest for k in range(n + 1) for rest in compositions(n - k, d - 1))


def act_params(img, kappa):
    """tau.kappa: entry i becomes kappa[tau(i)]."""
    return tuple(kappa[t - 1] for t in img)


def act_point(img, x):
    """Image tau.x of a point: coordinate i becomes the barycentric slot tau(i)."""
    bary = tuple(x) + (1 - sum(x),)
    return tuple(bary[img[i] - 1] for i in range(len(x)))


def simplex_points(rng, d, count):
    """Seeded rational points strictly inside the d-simplex."""
    top = (POINT_DENOM - 1) // (d + 1)
    return [
        tuple(Fraction(rng.randint(1, top), POINT_DENOM) for _ in range(d))
        for _ in range(count)
    ]


def _jacobi_1d(n, a, b, t):
    """P_n^{(a,b)}(t), normalized by P_n^{(a,b)}(1) = (a+1)_n / n!."""
    u = (1 - t) / 2
    term = Fraction(1)
    total = Fraction(1)
    for k in range(n):
        term = term * (k - n) * (n + a + b + 1 + k) / ((a + 1 + k) * (k + 1)) * u
        total += term
    lead = Fraction(1)
    for k in range(n):
        lead = lead * (a + 1 + k) / (k + 1)
    return lead * total


def jacobi_value(nu, kappa, x):
    """Value at x of the simplex Jacobi basis polynomial P_nu^kappa.

    P_nu(x) = prod_j h_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}((2 x_j - h_j) / h_j)
    with h_j = 1 - x_1 - ... - x_{j-1} and
    a_j = |kappa^{j+1}| + 2 |nu^{j+1}| + d - j (1-based j).
    """
    d = len(nu)
    kappa = [frac(k) for k in kappa]
    val = Fraction(1)
    for j in range(d):
        h = 1 - sum(x[:j], Fraction(0))
        a = sum(kappa[j + 1:], Fraction(0)) + 2 * sum(nu[j + 1:]) + d - j - 1
        val *= h ** nu[j] * _jacobi_1d(nu[j], a, kappa[j], (2 * x[j] - h) / h)
    return val


def expansion_error(img, kappa, order, rows, points, nus=None):
    """Check P_nu^{tau.kappa}(tau.x) = sum_mu c[nu][mu] P_mu^kappa(x) at each point.

    Columns are indexed by `order`, and so are the rows unless `nus` names
    the multi-indices of the rows given. Returns None when every identity
    holds, else a message naming the first row that fails.
    """
    d = len(img) - 1
    nus = order if nus is None else nus
    if sorted(order) != compositions(sum(order[0]), d) or not set(nus) <= set(order):
        return "multi-index order is not the set of degree-n compositions"
    if len(rows) != len(nus) or any(len(row) != len(order) for row in rows):
        return "matrix shape does not match the multi-index order"
    tk = act_params(img, kappa)
    for x in points:
        y = act_point(img, x)
        basis = [jacobi_value(mu, kappa, x) for mu in order]
        for nu, row in zip(nus, rows):
            lhs = jacobi_value(nu, tk, y)
            rhs = sum((frac(c) * b for c, b in zip(row, basis)), Fraction(0))
            if lhs != rhs:
                return f"expansion fails for nu={nu} at x={x}"
    return None


def p_factor(nu, kappa):
    """Value at 1 of the product of one-variable Jacobi factors of P_nu^kappa."""
    d = len(nu)
    kappa = [frac(k) for k in kappa]
    val = Fraction(1)
    for j in range(d):
        a = sum(kappa[j + 1:], Fraction(0)) + 2 * sum(nu[j + 1:]) + d - j - 1
        for k in range(nu[j]):
            val = val * (a + 1 + k) / (k + 1)
    return val
