"""Racah polynomials: one-variable and two multivariable product families.

The multivariable families live on lattice points 0 <= x_1 <= ... <= x_d <= N
with a parameter vector beta of length d+2.  Each product factor is computed
with its Pochhammer prefactor folded into the series, so the value is a
polynomial in all parameters and no intermediate bottom-parameter pole can
occur.

The first family R_nu is prefix-indexed and the only product formula: the
second, suffix-indexed R'_nu is R_nu at the reflection conj_map, and
dual2_map is conj_map after dual_map.  Both multivariable squared norms are
closed products of Pochhammer symbols.  The multivariable weight cancels
the common factors of each beta_j before it divides, so it has none of the
ratio form's 0/0 (beta_j = 0, for one); the one-variable weight is
pole-free at c + dlt + 1 = 0, where
(b)_m ((b+2)/2)_x / (b/2)_x is a finite product.  The one-variable family,
with its norm summed over the support, is the classical oracle that the
d=1 product family is checked against through param_bridge_1d.
"""

import itertools

from .backend import R, ZERO, ONE
from .exact_arith import hyp_terminating, hyp_with_prefactor, pochhammer


def racah_1d(n, x, a, b, c, dlt):
    """R_n(lambda(x); a, b, c, dlt) as a terminating 4F3 at z=1."""
    a, b, c, dlt = R(a), R(b), R(c), R(dlt)
    return hyp_terminating(
        [R(-n), n + a + b + 1, R(-x), R(x) + c + dlt + 1],
        [a + 1, b + dlt + 1, c + 1],
        ONE,
    )


def _doubled_pair(b, m, x):
    """(b)_m ((b+2)/2)_x / (b/2)_x for m >= x, written so that b = 0 gives no 0/0."""
    return pochhammer(b + 1, m - 1) * (b + 2 * x) if x else pochhammer(b, m)


def racah_weight_1d(x, a, b, c, dlt):
    a, b, c, dlt = R(a), R(b), R(c), R(dlt)
    s = c + dlt + 1
    num = _doubled_pair(s, x, x) * pochhammer(a + 1, x) * pochhammer(b + dlt + 1, x) * pochhammer(c + 1, x)
    den = pochhammer(ONE, x) * pochhammer(s - a, x) * pochhammer(c - b + 1, x) * pochhammer(dlt + 1, x)
    return num / den


def racah_norm_1d(n, a, b, c, dlt, N):
    """Squared norm by direct summation over the support 0..N."""
    return sum(
        (racah_weight_1d(x, a, b, c, dlt) * racah_1d(n, x, a, b, c, dlt) ** 2 for x in range(N + 1)),
        ZERO,
    )


def lattice_points(d, N):
    """All (x_1,...,x_d) with 0 <= x_1 <= ... <= x_d <= N."""
    return [tuple(c) for c in itertools.combinations_with_replacement(range(N + 1), d)]


def _prefix(nu, j):
    """nu_1 + ... + nu_j."""
    return sum(nu[:j])


def racah_multi(nu, x, beta, N):
    """Multivariable Racah polynomial R_nu(x; beta, N).

    nu, x have length d; beta has length d+2 (indices 0..d+1); the
    convention x_0 = 0, x_{d+1} = N is applied internally.
    """
    d = len(nu)
    beta = [R(b) for b in beta]
    xx = [0] + list(x) + [N]
    val = ONE
    for j in range(1, d + 1):
        s = _prefix(nu, j - 1)
        top = [
            R(nu[j - 1]) + 2 * s + beta[j + 1] - beta[0] - 1,
            R(s - xx[j]),
            R(s) + beta[j] + xx[j],
        ]
        bottom = [
            R(2 * s) + beta[j] - beta[0],
            R(s) + beta[j + 1] + xx[j + 1],
            R(s - xx[j + 1]),
        ]
        val *= hyp_with_prefactor(top, bottom, nu[j - 1])
    return val


def racah_weight_multi(x, beta, N):
    """Weight of the first family at x, as one numerator over one denominator.

    The beta_j factors (beta_j)_{x_{j-1}+x_j} ((beta_j+2)/2)_{x_j} /
    ((beta_j/2)_{x_j} (beta_j+1)_{x_j+x_{j+1}}) cancel to 1 / prod (beta_j + t)
    over t = x_{j-1}+x_j .. x_j+x_{j+1}, t != 2 x_j.
    """
    d = len(x)
    beta = [R(b) for b in beta]
    xx = [0] + list(x) + [N]
    num = pochhammer(beta[d + 1], xx[d] + N)
    den = pochhammer(beta[0] + 1, xx[1])
    for j in range(d + 1):
        gap = xx[j + 1] - xx[j]
        num *= pochhammer(beta[j + 1] - beta[j], gap)
        den *= pochhammer(ONE, gap)
    for j in range(1, d + 1):
        for t in range(xx[j - 1] + xx[j], xx[j] + xx[j + 1] + 1):
            if t != 2 * xx[j]:
                den *= beta[j] + t
    return num / den


def racah_norm_sq(nu, beta, N):
    """Squared norm of R_nu(.; beta, N), in closed form."""
    d = len(nu)
    beta = [R(b) for b in beta]
    n = sum(nu)
    val = (
        pochhammer(beta[d + 1], N + n)
        * pochhammer(R(-N), n)
        * pochhammer(R(-N) - beta[0], n)
        * pochhammer(R(2 * n) + beta[d + 1] - beta[0], N - n)
        / (pochhammer(ONE, N) * pochhammer(beta[0] + 1, N))
    )
    for k in range(1, d + 1):
        s_prev = _prefix(nu, k - 1)
        s_cur = _prefix(nu, k)
        val *= (
            pochhammer(ONE, nu[k - 1])
            * pochhammer(beta[k + 1] - beta[k], nu[k - 1])
            * pochhammer(R(2 * s_prev) + beta[k] - beta[0], nu[k - 1])
            * pochhammer(R(s_cur + s_prev) + beta[k + 1] - beta[0] - 1, nu[k - 1])
        )
    return val


def dual_map(x, nu, beta, N):
    """Dual variables/indices/parameters of a rational beta; an involution together with N."""
    d = len(nu)
    xx = [0] + list(x) + [N]
    x_t = tuple(N - _prefix(nu, d + 1 - j) for j in range(1, d + 1))
    nu_t = tuple(xx[d + 2 - j] - xx[d + 1 - j] for j in range(1, d + 1))
    beta_t = [beta[0]] + [beta[0] - beta[d + 2 - j] - 2 * N + 1 for j in range(1, d + 2)]
    return x_t, nu_t, tuple(beta_t)


def duality_normalizer(nu, beta, N):
    """(-N)_{|nu|} (-N-beta_0)_{|nu|} prod_j (beta_{j+1}-beta_j)_{nu_j}."""
    d = len(nu)
    beta = [R(b) for b in beta]
    n = sum(nu)
    val = pochhammer(R(-N), n) * pochhammer(R(-N) - beta[0], n)
    for j in range(1, d + 1):
        val *= pochhammer(beta[j + 1] - beta[j], nu[j - 1])
    return val


def conj_map(x, nu, beta, N):
    """Reflected variables/indices/parameters of a rational beta; an involution."""
    d = len(nu)
    x_c = tuple(N - x[d - j] for j in range(1, d + 1))
    nu_c = tuple(nu[d - j] for j in range(1, d + 1))
    beta_c = tuple(-R(2 * N) - beta[d + 1 - j] for j in range(d + 2))
    return x_c, nu_c, beta_c


def racah_second(nu, x, beta, N):
    """Second family R'_nu(x; beta, N) = R_{nu_c}(x_c; beta_c), with (x_c, nu_c, beta_c) = conj_map."""
    x_c, nu_c, beta_c = conj_map(x, nu, beta, N)
    return racah_multi(nu_c, x_c, beta_c, N)


def racah_second_norm_sq(nu, beta, N):
    """Squared norm of R'_nu under the weight of beta, in closed form.

    The reflection conj_map sends R'_nu(x; beta) to R_{nu_c}(x_c; beta_c),
    and the weight ratio w(x_c; beta_c) / w(x; beta) is the same at every
    lattice point.  So the norm is the first family's closed norm at
    (nu_c, beta_c) divided by that ratio, read off at the corner x = 0,
    where both weights must be finite and non-zero.
    """
    d = len(nu)
    corner = (0,) * d
    x_c, nu_c, beta_c = conj_map(corner, nu, beta, N)
    return (
        racah_norm_sq(nu_c, beta_c, N)
        * racah_weight_multi(corner, beta, N)
        / racah_weight_multi(x_c, beta_c, N)
    )


def dual2_map(x, nu, beta, N):
    """Dual map landing in the second family: conj_map after dual_map."""
    return conj_map(*dual_map(x, nu, beta, N), N)


def param_bridge_1d(beta, N):
    """One-variable parameters (a, b, c, dlt) matching the d=1 product family."""
    beta = [R(b) for b in beta]
    return (R(-N) - 1, beta[2] - beta[0] - 1 + N, beta[1] - beta[0] - 1, beta[0])
