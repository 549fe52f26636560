"""Racah polynomials: one-variable and two multivariable product families.

The multivariable families live on lattice points 0 <= x_1 <= ... <= x_d <= N
with a parameter vector beta of length d+2.  The first family R_nu is
prefix-indexed and the only product formula: the second, suffix-indexed R'_nu
is R_nu at the reflection conj_map, and dual2_map is conj_map after dual_map.
The value, the weight and both squared norms (closed products) are integer
cores over a common denominator D of beta = B / D, the lcm of its
denominators in the public functions: each Pochhammer symbol is an
exact_arith.rising product prod (B + (c+i) D), each product factor one
exact_arith.folded_series with its prefactor folded in (so no intermediate
bottom pole can occur), the D powers cancel by count, and each public
function makes one rational of its core.  dual_map and conj_map are integer
maps on (B, D) as well, dual_core and conj_core, which keep D, so that
closed_forms.cc_cyclic_hat keeps beta over one lcm per call through both
maps; the rational maps are written over them.  multi_core stops at its
first vanishing factor, with the denominator it has at every x, and
closed_forms.cc_cyclic_hat reads it first and builds the weight and norm
cores only for a nonzero value.  The weight cancels the common factors of
each beta_j before it divides, so it has none of the ratio form's 0/0
(beta_j = 0, for one); the one-variable weight is pole-free at
c + dlt + 1 = 0, where (b)_m ((b+2)/2)_x / (b/2)_x is a finite product.  The
one-variable family, with its norm summed over the support, is the classical
family that the tests check the d=1 product family against; the parameter
bridge between the two is a test oracle (tests/oracles.py).
"""

import itertools
from math import factorial

from .backend import R, ZERO, ONE
from .exact_arith import folded_series, hyp_terminating, over_lcm, pochhammer, rising


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


def _scaled_beta(beta, d):
    """(B, D): beta over D, the lcm of its denominators; ValueError unless beta has d + 2 entries."""
    if len(beta) != d + 2:
        raise ValueError(f"beta needs d + 2 = {d + 2} entries, got {len(beta)}")
    return over_lcm([R(b) for b in beta])


def multi_core(nu, x, B, D, N):
    """(num, den) with R_nu(x; beta, N) = num / den for beta = B / D: one folded_series per factor.

    den = D^{3|nu|} is the same at every x, a vanishing value included: the
    product stops at its first zero factor and returns (0, den).
    """
    xx = (0,) + tuple(x) + (N,)
    den = D ** (3 * sum(nu))
    val, s = 1, 0
    for j, m in enumerate(nu, 1):
        tops = [(m + 2 * s - 1) * D + B[j + 1] - B[0], (s - xx[j]) * D, (s + xx[j]) * D + B[j]]
        bottoms = [2 * s * D + B[j] - B[0], (s + xx[j + 1]) * D + B[j + 1], (s - xx[j + 1]) * D]
        factor = folded_series(tops, bottoms, m, D)[0]
        if not factor:
            return 0, den
        val *= factor
        s += m
    return val, den


def racah_multi(nu, x, beta, N):
    """Multivariable Racah polynomial R_nu(x; beta, N).

    nu, x have length d; beta has length d+2 (indices 0..d+1); the
    convention x_0 = 0, x_{d+1} = N is applied internally.
    """
    if len(x) != len(nu):
        raise ValueError(f"nu and x need one length, got {len(nu)} and {len(x)}")
    return R(*multi_core(nu, x, *_scaled_beta(beta, len(nu)), N))


def weight_core(x, B, D, N):
    """(num, den) with w(x; beta, N) = num / den for beta = B / D; ZeroDivisionError if den = 0.

    The beta_j factors (beta_j)_{x_{j-1}+x_j} ((beta_j+2)/2)_{x_j} /
    ((beta_j/2)_{x_j} (beta_j+1)_{x_j+x_{j+1}}) cancel to 1 / prod (beta_j + t)
    over t = x_{j-1}+x_j .. x_j+x_{j+1}, t != 2 x_j.  D^N is left below.
    """
    d, xx = len(x), (0,) + tuple(x) + (N,)
    num, den = rising(B[d + 1], xx[d] + N, D), rising(B[0] + D, xx[1], D)
    for j in range(d + 1):
        gap = xx[j + 1] - xx[j]
        num *= rising(B[j + 1] - B[j], gap, D)
        den *= factorial(gap)
    for j in range(1, d + 1):
        for t in range(xx[j - 1] + xx[j], xx[j] + xx[j + 1] + 1):
            if t != 2 * xx[j]:
                den *= B[j] + t * D
    if den == 0:
        raise ZeroDivisionError(f"the Racah weight at x = {tuple(x)} divides by 0")
    return num, den * D**N


def racah_weight_multi(x, beta, N):
    """Weight of the first family at x, as one numerator over one denominator."""
    return R(*weight_core(x, *_scaled_beta(beta, len(x)), N))


def norm_core(nu, B, D, N):
    """(num, den) with ||R_nu||^2 = num / den for beta = B / D, D^{N+4|nu|} left below; ZeroDivisionError if den = 0."""
    d, n = len(nu), sum(nu)
    b0, top = B[0], B[d + 1]
    num = rising(top, N + n, D) * rising(-N, n) * rising(-N * D - b0, n, D) * rising(2 * n * D + top - b0, N - n, D)
    den = factorial(N) * rising(b0 + D, N, D)
    s = 0
    for k, m in enumerate(nu, 1):
        num *= (factorial(m) * rising(B[k + 1] - B[k], m, D) * rising(2 * s * D + B[k] - b0, m, D)
                * rising((2 * s + m - 1) * D + B[k + 1] - b0, m, D))
        s += m
    if den == 0:
        raise ZeroDivisionError(f"the Racah norm divides by (beta_0 + 1)_{N} = 0")
    return num, den * D ** (N + 4 * n)


def racah_norm_sq(nu, beta, N):
    """Squared norm of R_nu(.; beta, N), in closed form."""
    return R(*norm_core(nu, *_scaled_beta(beta, len(nu)), N))


def dual_core(x, nu, B, D, N):
    """dual_map on beta = B / D: (x_t, nu_t, B_t) with beta_t = B_t / D."""
    d = len(nu)
    xx = [0] + list(x) + [N]
    x_t = tuple(N - sum(nu[: d + 1 - j]) for j in range(1, d + 1))
    nu_t = tuple(xx[d + 2 - j] - xx[d + 1 - j] for j in range(1, d + 1))
    shift = (2 * N - 1) * D
    return x_t, nu_t, (B[0],) + tuple(B[0] - B[d + 2 - j] - shift for j in range(1, d + 2))


def _on_rationals(core, x, nu, beta, N):
    """core, a map on (x, nu, B, D, N), applied to a rational beta of len(nu) + 2 entries: (x', nu', beta').

    ValueError unless x and nu have one length and beta has len(nu) + 2 entries.
    """
    if len(x) != len(nu):
        raise ValueError(f"nu and x need one length, got {len(nu)} and {len(x)}")
    B, D = _scaled_beta(beta, len(nu))
    x_m, nu_m, B_m = core(x, nu, B, D, N)
    return x_m, nu_m, tuple(R(b, D) for b in B_m)


def dual_map(x, nu, beta, N):
    """Dual variables/indices/parameters of a rational beta (dual_core); an involution together with N."""
    return _on_rationals(dual_core, x, nu, beta, N)


def duality_normalizer(nu, beta, N):
    """(-N)_{|nu|} (-N-beta_0)_{|nu|} prod_j (beta_{j+1}-beta_j)_{nu_j}, rising products over beta = B / D."""
    B, D = _scaled_beta(beta, len(nu))
    n = sum(nu)
    num = rising(-N, n) * rising(-N * D - B[0], n, D)
    for j, m in enumerate(nu, 1):
        num *= rising(B[j + 1] - B[j], m, D)
    return R(num, D ** (2 * n))


def conj_core(x, nu, B, D, N):
    """conj_map on beta = B / D: (x_c, nu_c, B_c) with beta_c = B_c / D."""
    d = len(nu)
    x_c = tuple(N - x[d - j] for j in range(1, d + 1))
    nu_c = tuple(nu[d - j] for j in range(1, d + 1))
    return x_c, nu_c, tuple(-2 * N * D - B[d + 1 - j] for j in range(d + 2))


def conj_map(x, nu, beta, N):
    """Reflected variables/indices/parameters of a rational beta (conj_core); an involution."""
    return _on_rationals(conj_core, x, nu, beta, N)


def racah_second(nu, x, beta, N):
    """Second family R'_nu(x; beta, N) = R_{nu_c}(x_c; beta_c), with (x_c, nu_c, beta_c) = conj_map."""
    x_c, nu_c, beta_c = conj_map(x, nu, beta, N)
    return racah_multi(nu_c, x_c, beta_c, N)


def second_norm_core(nu, B, D, N):
    """(num, den) with racah_second_norm_sq(nu, beta, N) = num / den for beta = B / D.

    The reflection conj_map sends R'_nu(x; beta) to R_{nu_c}(x_c; beta_c),
    and the weight ratio w(x_c; beta_c) / w(x; beta) is the same at every
    lattice point.  So the norm is the first family's closed norm at
    (nu_c, beta_c) divided by that ratio, read off at the corner x = 0,
    where both weights must be finite and non-zero.
    """
    corner = (0,) * len(nu)
    x_c, nu_c, B_c = conj_core(corner, nu, B, D, N)
    norm_num, norm_den = norm_core(nu_c, B_c, D, N)
    corner_num, corner_den = weight_core(corner, B, D, N)
    w_num, w_den = weight_core(x_c, B_c, D, N)
    if w_num == 0:
        raise ZeroDivisionError("the second norm divides by the reflected corner weight 0")
    return norm_num * corner_num * w_den, norm_den * corner_den * w_num


def racah_second_norm_sq(nu, beta, N):
    """Squared norm of R'_nu under the weight of beta, in closed form (second_norm_core)."""
    return R(*second_norm_core(nu, *_scaled_beta(beta, len(nu)), N))


def dual2_map(x, nu, beta, N):
    """Dual map landing in the second family: conj_map after dual_map."""
    return conj_map(*dual_map(x, nu, beta, N), N)
