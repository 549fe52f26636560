"""Hahn and Krawtchouk polynomials of several variables.

Both families are built as Tratnik-style products of one-variable kernels
with the leading Pochhammer prefactor folded into the series, so every value
is an exact rational even when intermediate bottom parameters would vanish.
Both connection matrices come from the Coxeter-word engine: the Hahn matrix
is the simplex one rescaled by p_factor through ConnMatrix.scaled, and the
Krawtchouk matrix, a limit of the simplex one, runs the engine with its own
local rules, a block of 2F1 coefficients per local degree, on the extended
rho = (rho, 1 - |rho|), read from the integers of the word's one lcm.
S_{d+1} permutes the extended rho like kappa; every Krawtchouk formula
reads it (_extended), and its domain is "every entry > 0".  The lattice
inner products are test oracles (tests/oracles.py), not package code: the
package has each family's values, weight and squared norm, and no lattice
sum.  The normalized cycle coefficient has one Krawtchouk form; form 2 is
its kraw_dual.
"""

from math import comb

from .backend import R, ZERO, ONE
from .exact_arith import QSqrt, folded_series, hyp_with_prefactor, over_lcm, pochhammer
from .multipoly import homogenize
from .simplex import a_coeffs, check_degree, enumerate_basis, jacobi_simplex_basis, norm_A
from .closed_forms import connection_matrix, word_product


def _check_lattice(what, size, N):
    """ValueError unless size <= N: a degree, or the |x| of a point, of either family on the lattice of size N."""
    if size > N:
        raise ValueError(f"{what}={size} exceeds the lattice size N={N}")


# ---------------------------------------------------------------------------
# Hahn
# ---------------------------------------------------------------------------


def hahn_multi(nu, x, kappa, N):
    """Product-form Hahn polynomial H_nu(x; kappa, N); x in Z^{d+1}, |x| = N.

    ValueError for |nu| > N, and unless x and kappa have d + 1 entries.
    """
    _check_lattice("Hahn degree |nu|", sum(nu), N)
    d = len(nu)
    if len(x) != d + 1:
        raise ValueError(f"nu = {tuple(nu)} needs x of {d + 1} entries, got {len(x)}")
    kappa = [R(k) for k in kappa]
    aj = a_coeffs(nu, kappa)
    val = ONE / pochhammer(R(-N), sum(nu))
    if sum(nu) % 2:
        val = -val
    for j in range(d):
        Nj = N - sum(x[:j]) - sum(nu[j + 1:])
        f = hyp_with_prefactor(
            [R(nu[j]) + kappa[j] + aj[j] + 1, R(-x[j])],
            [kappa[j] + 1, R(-Nj)],
            nu[j],
        )
        val *= f / pochhammer(aj[j] + 1, nu[j])
    return val


def p_factor(nu, kappa):
    """Product of the values at 1 of the one-variable Jacobi factors."""
    aj = a_coeffs(nu, kappa)
    val = ONE
    for j, n in enumerate(nu):
        val *= pochhammer(aj[j] + 1, n) / pochhammer(ONE, n)
    return val


def hahn_norm_B(nu, kappa, N):
    """Squared norm of H_nu under the normalized Hahn inner product.

    It is (-1)^{|nu|} (lambda)_{N+|nu|} / ((-N)_{|nu|} (lambda)_N) times
    norm_A / p_factor^2, with lambda = |kappa| + d + 1.
    """
    lam = sum((R(k) for k in kappa), ZERO) + len(nu) + 1
    n = sum(nu)
    val = pochhammer(lam, N + n) / (pochhammer(R(-N), n) * pochhammer(lam, N))
    val *= norm_A(nu, kappa) / p_factor(nu, kappa) ** 2
    return -val if n % 2 else val


def hahn_from_generating(nu, kappa, N):
    """Values of H_nu on the grid, extracted from the homogenized simplex basis.

    Homogenize P_nu/p_nu to total degree N in d+1 variables; the coefficient
    of y^alpha times alpha!/N! is H_nu(alpha).  Raises ValueError for |nu| > N.
    """
    coefs = homogenize(jacobi_simplex_basis(nu, kappa), N).terms
    scale = pochhammer(ONE, N) * p_factor(nu, kappa)
    out = {}
    for alpha in enumerate_basis(len(nu) + 1, N):
        afact = ONE
        for a in alpha:
            afact *= pochhammer(ONE, a)
        out[alpha] = afact * coefs.get(alpha, ZERO) / scale
    return out


def hahn_connection(tau, kappa, N, n):
    """Connection matrix of the Hahn family, from the simplex engine.

    Entry [nu][mu] is C^tau(kappa)[nu][mu] * p(mu, kappa) / p(nu, tau.kappa),
    with p = p_factor; it does not depend on N, which only bounds n.  It is
    the simplex matrix rescaled once, diag(1 / p(nu, tau.kappa)) C
    diag(p(mu, kappa)), in integers.
    """
    _check_lattice("Hahn degree n", n, N)
    kappa = tuple(R(k) for k in kappa)
    tk = tau.act_params(kappa)
    mat = connection_matrix(tau, kappa, n)
    return mat.scaled([ONE / p_factor(nu, tk) for nu in mat.order], [p_factor(mu, kappa) for mu in mat.order])


# ---------------------------------------------------------------------------
# Krawtchouk
# ---------------------------------------------------------------------------


def _extended(rho, d):
    """The extended rho (rho_1, ..., rho_{d+1}) = (rho, 1 - |rho|) as rationals; ValueError unless rho has d entries.

    It sums to 1, so 1 - (rho_1 + ... + rho_j) is its suffix sum from j + 1, the way a_core reads kappa.
    """
    if len(rho) != d:
        raise ValueError(f"rho needs d = {d} entries, got {len(rho)}")
    rho = [R(r) for r in rho]
    return (*rho, ONE - sum(rho, ZERO))


def kraw_grid(d, N):
    """All x in N_0^d with |x| <= N, by total and grevlex within a total."""
    return [x for total in range(N + 1) for x in enumerate_basis(d, total)]


def kraw_multi(nu, x, rho, N):
    """Product-form Krawtchouk polynomial K_nu(x; rho, N); x in N_0^d, |x| <= N.

    ValueError for |nu| > N, and unless x and rho have d entries.  Off the
    lattice it is still the polynomial in x that the product formula
    defines, and it is evaluated there.
    """
    _check_lattice("Krawtchouk degree |nu|", sum(nu), N)
    d = len(nu)
    if len(x) != d:
        raise ValueError(f"nu and x need one length, got {d} and {len(x)}")
    rho = _extended(rho, d)
    val = ONE / pochhammer(R(-N), sum(nu))
    for j in range(d):
        Nj = N - sum(x[:j]) - sum(nu[j + 1:])
        z = sum(rho[j:], ZERO) / rho[j]
        val *= hyp_with_prefactor([R(-x[j])], [R(-Nj)], nu[j], z)
    return val


def kraw_weight(x, rho, N):
    """Krawtchouk weight at x, |x| <= N; ValueError for |x| > N."""
    _check_lattice("Krawtchouk point |x|", sum(x), N)
    *rho, rest = _extended(rho, len(x))
    val = pochhammer(ONE, N) * rest ** (N - sum(x)) / pochhammer(ONE, N - sum(x))
    for xi, ri in zip(x, rho):
        val *= ri**xi / pochhammer(ONE, xi)
    return val


def kraw_norm_C(nu, rho, N):
    """Squared norm of K_nu under the weight kraw_weight on |x| <= N; ValueError for |nu| > N."""
    _check_lattice("Krawtchouk degree |nu|", sum(nu), N)
    d = len(nu)
    rho = _extended(rho, d)
    val = ONE / pochhammer(R(-N), sum(nu))
    if sum(nu) % 2:
        val = -val
    for j in range(d):
        nxt = nu[j + 1] if j + 1 < d else 0
        val *= pochhammer(ONE, nu[j]) * sum(rho[j + 1:], ZERO) ** (nu[j] + nxt) / rho[j] ** nu[j]
    return val


def kraw_dual(x, nu, rho):
    """Dual variables/indices/parameters; an involution.  ValueError unless x and rho have len(nu) entries."""
    d = len(nu)
    if len(x) != d:
        raise ValueError(f"nu and x need one length, got {d} and {len(x)}")
    rho = _extended(rho, d)
    x_t = tuple(nu[d - j] for j in range(1, d + 1))
    nu_t = tuple(x[d - j] for j in range(1, d + 1))
    rho_t = tuple(rho[d - j] * rho[-1] / (sum(rho[d - j + 1:], ZERO) * sum(rho[d - j:], ZERO))
                  for j in range(1, d + 1))
    return x_t, nu_t, rho_t


def tau_rho(tau, rho):
    """Action of a (d+1)-slot permutation on rho: permute the extended rho, drop its last entry."""
    return tau.act_params(_extended(rho, tau.m - 1))[:-1]


def _kraw_local(P, D, j, tail):
    """The local parameters of s_j at the extended rho = P / D: (P_j, P_{j+1}, |P^{j+2}|), whatever the tail."""
    return P[j - 1], P[j], sum(P[j + 1:])


def _kraw_block(L, D, n):
    """The degree-n d=2 (12) Krawtchouk matrix of s_j as one block, at L = _kraw_local(P, D, j, tail).

    P / D is the extended (rho_1, ..., rho_{d+1}); the local parameters are
    (r1, r2, r3) = (rho_j, rho_{j+1}, |rho^{j+2}|) / |rho^j|, and the block
    does not depend on nu outside slots j, j+1.  Row k is nu = (n-k, k) and
    column m is mu = (n-m, m); the entry is
    (-1)^{n+m+k} C(n, m) r1^{n-m-k} r3^k / (r2 + r3)^n 2F1(-m, -k; -n; z),
    z = (r1 + r3)(r2 + r3) / r3.  With (A, B, C) = L, the local rho over D,
    and T = A + B + C, the powers are A^{n-m-k} C^k T^m / (B + C)^n and
    z = (A + C)(B + C) / (T C), in which D cancels.  C(n, m), the powers and
    z are built once per block, and each 2F1 is one exact_arith.folded_series
    at its least top min(k, m), whose bottom (-n)_{min(k, m)} is never 0.
    Like cc_2d_entry it returns rows of integer pairs (num, den), den != 0.
    """
    A, B, C = L
    T = A + B + C
    zp, zq = (A + C) * (B + C), T * C
    binoms = [comb(n, m) for m in range(n + 1)]
    a_pows, c_pows, t_pows = ([x**i for i in range(n + 1)] for x in (A, C, T))
    den_n = (B + C) ** n
    block = []
    for k in range(n + 1):
        row = []
        for m in range(n + 1):
            total, bottom = folded_series([-max(k, m)], [-n], min(k, m), 1, zp, zq)
            num = binoms[m] * a_pows[max(n - m - k, 0)] * c_pows[k] * t_pows[m] * total
            den = a_pows[max(m + k - n, 0)] * den_n * bottom
            row.append((-num if (n + m + k) % 2 else num, den))
        block.append(row)
    return block


def _kraw_ratio(P, D):
    """C^{s_d} is diag((-rho_d / rho_{d+1})^{nu_d}) at the extended rho = P / D."""
    return -P[-2], P[-1]


def _check_rho(rho):
    """The extended rho; ValueError unless every entry of it is > 0 (every rho_i > 0 and |rho| < 1)."""
    ext = _extended(rho, len(rho))
    if any(r <= 0 for r in ext):
        raise ValueError("rho entries must be > 0 with a sum < 1")
    return ext


def kraw_connection(tau, rho, N, n):
    """Connection matrix of the Krawtchouk family, from the Coxeter-word engine.

    The engine runs on the extended rho, which tau permutes like kappa; the
    matrix does not depend on N, which only bounds n.
    """
    if len(rho) != tau.m - 1:
        raise ValueError(f"a permutation of {tau.m} slots needs {tau.m - 1} rho entries, got {len(rho)}")
    ext = _check_rho(rho)
    check_degree(n)
    _check_lattice("Krawtchouk degree n", n, N)
    return word_product(tau, *over_lcm(ext), n, _kraw_local, _kraw_block, _kraw_ratio)


def kraw_cc_cyclic_hat(nu, mu, rho, n, form=1):
    """Normalized cyclic-permutation coefficient in closed Krawtchouk form; form 2 is kraw_dual of form 1.

    Raises ValueError unless len(mu) = len(rho) = d = len(nu), rho is in
    kraw_connection's domain and |nu| = |mu| = n with no negative entry.
    """
    if form not in (1, 2):
        raise ValueError("form must be 1 or 2")
    d = len(nu)
    ext = _check_rho(rho)
    if (len(mu), len(rho), sum(nu), sum(mu)) != (d, d, n, n) or min((*nu, *mu), default=0) < 0:
        raise ValueError(f"kraw_cc_cyclic_hat needs len(mu) = {d}, {d} rho entries and |nu| = |mu| = {n} "
                         f"with entries >= 0, got nu = {tuple(nu)}, mu = {tuple(mu)} and {len(rho)} rho entries")

    def rest(j):  # 1 - (rho_2 + ... + rho_j) = rho_1 + rho_{j+1} + ... + rho_{d+1}
        return ext[0] + sum(ext[j:], ZERO)

    rr = tuple(ext[0] * ext[j] / (sum(ext[1:], ZERO) * rest(j + 1) * rest(j)) for j in range(1, d))
    x = tuple(nu[: d - 1])
    idx = tuple(mu[1:])
    if form == 2:
        x, idx, rr = kraw_dual(x, idx, rr)
    val = kraw_multi(idx, x, rr, n)
    if not val:  # as in closed_forms.cc_cyclic_hat: no weight or norm for a value 0
        return QSqrt(0, ZERO)
    w = kraw_weight(x, rr, n)
    c2 = kraw_norm_C(idx, rr, n)
    return QSqrt.signed((-1) ** (n + nu[d - 1]) * val, w * val * val / c2)


def hahn_kraw_scaled(nu, x, rho, N, t):
    """Hahn value at kappa = t times the extended rho, rescaled to the Krawtchouk limit."""
    d = len(nu)
    rho = _extended(rho, d)
    h = hahn_multi(nu, tuple(x) + (N - sum(x),), tuple(t * r for r in rho), N)
    scale = ONE
    for j in range(d):
        scale *= (sum(rho[j + 1:], ZERO) / rho[j]) ** nu[j]
    if sum(nu) % 2:
        scale = -scale
    return h * scale
