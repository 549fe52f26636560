"""Reference computations that the tests compare the package with.

The rational references are independent of the package's integer code and
of its extended rho.  The Jacobi coefficients come from the ratio
recurrence of the 2F1 series, a_j from rational sums, and the basis from
SparsePoly products of factors lin^k hom^(n-k) built by a direct loop, not
by the package's homogenize and subst.  Tests compare the package's integer
definitions (simplex.jacobi_core, a_core and the basis product) and its
substitute_homogeneous with these.

The Krawtchouk formulas are written with prefix sums, each 1 - (rho_1 + ...
+ rho_j) formed where it is read, and tau acts on (rho, 1 - |rho|) by hand;
tests compare the package's suffix sums of the extended rho with these.
The Krawtchouk (12) local rule is summed by hyp_terminating in rationals;
tests compare the engine's integer blocks with it.

The other oracles read the package's formulas but none of its engines.
hahn_inner and kraw_inner sum the package's Hahn and Krawtchouk values over
the lattice under each family's weight, and ball_gram takes
ball_inner_product of the package's ball basis elements, the sources moved
by permute; tests compare hahn_connection, kraw_connection, ball_connection
and the closed norms with them.  gegenbauer_gen writes the generalized
Gegenbauer polynomials from jacobi_1d, param_bridge_1d gives the
one-variable Racah parameters of the d = 1 product family, and
leading_form is the rational view of simplex.leading_cores.

module_caches is the scan for module state that the tests share.
"""

import importlib
import pkgutil
from math import comb

import simplexconn
from simplexconn.backend import R, ZERO, ONE
from simplexconn.ballsphere import ParityPoly, _check_ball_kappa, _extend, ball_enumerate, ball_norm, q_ball, shifted
from simplexconn.discrete import hahn_multi, kraw_grid, kraw_weight
from simplexconn.exact_arith import QSqrt, hyp_terminating, hyp_with_prefactor, over_lcm, pochhammer
from simplexconn.multipoly import SparsePoly
from simplexconn.simplex import enumerate_basis, inner_product_simplex, jacobi_1d, leading_cores


def module_caches():
    """Every module-level *_CACHE dict in simplexconn, by qualified name."""
    out = {}
    for info in pkgutil.iter_modules(simplexconn.__path__):
        module = importlib.import_module(f"simplexconn.{info.name}")
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                out[f"{info.name}.{attr}"] = value
    return out


def value_or_error(rule, *args):
    """rule(*args), or the type of the ArithmeticError it raises."""
    try:
        return rule(*args)
    except ArithmeticError as exc:
        return type(exc)


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


def loop_substitute_homogeneous(coeffs, lin, hom, n):
    """sum_k coeffs[k] * lin^k * hom^(n-k), each power built by repeated products."""
    if len(coeffs) > n + 1:
        raise ValueError("coefficient list longer than degree+1")
    d = lin.d
    result = SparsePoly(d)
    lin_pow = SparsePoly.constant(d, 1)
    hom_pows = [SparsePoly.constant(d, 1)]
    for _ in range(n):
        hom_pows.append(hom_pows[-1] * hom)
    for k, c in enumerate(coeffs):
        if c != 0:
            result = result + (lin_pow * hom_pows[n - k]).scale(c)
        if k < n:
            lin_pow = lin_pow * lin
    return result


def loop_basis(nu, kappa):
    """prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 x_j / hom_j - 1) by SparsePoly products.

    hom_j = 1 - x_1 - ... - x_{j-1}, and each factor is loop_substitute_homogeneous of the recurrence.
    """
    d = len(nu)
    aj = summed_a_coeffs(nu, kappa)
    result = hom = SparsePoly.constant(d, ONE)
    for j in range(d):
        x = SparsePoly.variable(d, j)
        result = result * loop_substitute_homogeneous(recurrence_jacobi_1d(nu[j], aj[j], kappa[j]), x, hom, nu[j])
        hom = hom - x
    return result


def prefix_kraw_multi(nu, x, rho, N):
    d = len(nu)
    rho = [R(r) for r in rho]
    val = ONE / pochhammer(R(-N), sum(nu))
    for j in range(d):
        Nj = N - sum(x[:j]) - sum(nu[j + 1:])
        z = (ONE - sum(rho[:j], ZERO)) / rho[j]
        val *= hyp_with_prefactor([R(-x[j])], [R(-Nj)], nu[j], z)
    return val


def prefix_kraw_weight(x, rho, N):
    rho = [R(r) for r in rho]
    rest = ONE - sum(rho, ZERO)
    val = pochhammer(ONE, N) * rest ** (N - sum(x)) / pochhammer(ONE, N - sum(x))
    for xi, ri in zip(x, rho):
        val *= ri**xi / pochhammer(ONE, xi)
    return val


def prefix_kraw_norm_C(nu, rho, N):
    d = len(nu)
    rho = [R(r) for r in rho]
    val = ONE / pochhammer(R(-N), sum(nu))
    if sum(nu) % 2:
        val = -val
    for j in range(d):
        rest = ONE - sum(rho[: j + 1], ZERO)
        nxt = nu[j + 1] if j + 1 < d else 0
        val *= pochhammer(ONE, nu[j]) * rest ** (nu[j] + nxt) / rho[j] ** nu[j]
    return val


def prefix_kraw_dual(x, nu, rho):
    d = len(nu)
    rho = [R(r) for r in rho]
    tot = sum(rho, ZERO)
    x_t = tuple(nu[d - j] for j in range(1, d + 1))
    nu_t = tuple(x[d - j] for j in range(1, d + 1))
    rho_t = tuple(
        rho[d - j] * (ONE - tot) / ((ONE - sum(rho[: d - j + 1], ZERO)) * (ONE - sum(rho[: d - j], ZERO)))
        for j in range(1, d + 1)
    )
    return x_t, nu_t, rho_t


def prefix_tau_rho(tau, rho):
    """tau on (rho, 1 - |rho|), by hand: entry i is the entry tau(i) of the extended tuple, the last dropped."""
    rho = [R(r) for r in rho]
    ext = rho + [ONE - sum(rho, ZERO)]
    return tuple(ext[tau(i) - 1] for i in range(1, tau.m))


def prefix_kraw_cc_cyclic_hat(nu, mu, rho, n, form=1):
    """kraw_cc_cyclic_hat on valid input, its cycle parameters from prefix sums."""
    d = len(nu)
    rho = [R(r) for r in rho]

    def pre(j):
        return sum(rho[:j], ZERO)

    rr = tuple(rho[0] * rho[j] / ((ONE - rho[0]) * (ONE + rho[0] - pre(j + 1)) * (ONE + rho[0] - pre(j)))
               for j in range(1, d))
    x, idx = tuple(nu[: d - 1]), tuple(mu[1:])
    if form == 2:
        x, idx, rr = prefix_kraw_dual(x, idx, rr)
    val = prefix_kraw_multi(idx, x, rr, n)
    radicand = prefix_kraw_weight(x, rr, n) * val * val / prefix_kraw_norm_C(idx, rr, n)
    return QSqrt.signed((-1) ** (n + nu[d - 1]) * val, radicand)


def prefix_hahn_kraw_scaled(nu, x, rho, N, t):
    d = len(nu)
    rho = [R(r) for r in rho]
    kappa = tuple(t * r for r in rho) + (t * (ONE - sum(rho, ZERO)),)
    h = hahn_multi(nu, tuple(x) + (N - sum(x),), kappa, N)
    scale = ONE
    for j in range(d):
        rest = ONE - sum(rho[: j + 1], ZERO)
        scale *= (rest / rho[j]) ** nu[j]
    if sum(nu) % 2:
        scale = -scale
    return h * scale


def rational_kraw_block(j, rho, n, k, m, tail):
    """The Krawtchouk (12) local rule in rational arithmetic, with hyp_terminating."""
    tot = sum(rho[j - 1:], ZERO)
    r1, r2, r3 = rho[j - 1] / tot, rho[j] / tot, sum(rho[j + 1:], ZERO) / tot
    sign = ONE if (n + m + k) % 2 == 0 else -ONE
    return (
        sign * comb(n, m) * r1 ** (n - m - k) * r3**k / (r2 + r3) ** n
        * hyp_terminating([R(-m), R(-k)], [R(-n)], (r1 + r3) * (r2 + r3) / r3)
    )


def leading_form(nu, kappa, tau=None):
    """Degree-|nu| part of jacobi_simplex_basis(nu, kappa), or of its tau.act_vars image, from leading_cores."""
    K, D = over_lcm([R(k) for k in kappa])
    [(terms, den)] = leading_cores([nu], K, D, tau)
    return SparsePoly(len(nu), {e: R(c, den) for e, c in terms.items()})


def param_bridge_1d(beta, N):
    """One-variable parameters (a, b, c, dlt) matching the d=1 product family."""
    beta = [R(b) for b in beta]
    return (R(-N) - 1, beta[2] - beta[0] - 1 + N, beta[1] - beta[0] - 1, beta[0])


def hahn_weight(alpha, kappa):
    val = ONE
    for ai, ki in zip(alpha, kappa):
        val *= pochhammer(R(ki) + 1, ai) / pochhammer(ONE, ai)
    return val


def _weighted_sum(fvals, gvals, weighted_grid):
    """Sum of f(x) g(x) w(x) over (x, w(x)) pairs: the one discrete inner product."""
    return sum((fvals[x] * gvals[x] * w for x, w in weighted_grid), ZERO)


def hahn_inner(fvals, gvals, kappa, N):
    """<f, g> from values indexed by the grid of |alpha| = N, normalized by N!/(lambda)_N."""
    lam = sum((R(k) for k in kappa), ZERO) + len(kappa)
    scale = pochhammer(ONE, N) / pochhammer(lam, N)
    weighted = [(a, scale * hahn_weight(a, kappa)) for a in enumerate_basis(len(kappa), N)]
    return _weighted_sum(fvals, gvals, weighted)


def kraw_inner(fvals, gvals, rho, N):
    """<f, g> from values indexed by the grid of |x| <= N."""
    return _weighted_sum(fvals, gvals, [(x, kraw_weight(x, rho, N)) for x in kraw_grid(len(rho), N)])


def gegenbauer_gen(n, lam, mu):
    """Generalized Gegenbauer C_n as (parity bit, even core in t^2).

    C_n(t) = t^parity * sum_k core[k] t^(2k), orthogonal for
    |t|^(2 mu) (1-t^2)^(lam-1/2) on [-1, 1].
    """
    lam, mu = R(lam), R(mu)
    m = n // 2
    half = R(1, 2)
    if n % 2 == 0:
        pref = pochhammer(lam + mu, m) / pochhammer(mu + half, m)
        jac = jacobi_1d(m, lam - half, mu - half)
    else:
        pref = pochhammer(lam + mu, m + 1) / pochhammer(mu + half, m + 1)
        jac = jacobi_1d(m, lam - half, mu + half)
    # the core in z = t^2
    return n % 2, [pref * c for c in jac]


def permute(p, tau):
    """Substitute x_i <- x_{tau(i)} in the ParityPoly p, tau permuting its d variables: tau^-1 acts on the exponents."""
    inv = tau.inverse()
    terms = {inv.act_params(exp): c for exp, c in p.core.terms.items()}
    return ParityPoly(inv.act_params(p.eps), SparsePoly(p.d, terms))


def ball_inner_product(p, q, kappa):
    """Inner product on the ball with weight prod |x_i|^(2k_i+1)(1-|x|^2)^k_last.

    Zero across parity classes; within a class it is the normalized simplex
    inner product of the cores at the shifted parameters.
    """
    if p.eps != q.eps:
        return ZERO
    return inner_product_simplex(p.core, q.core, shifted(kappa, p.eps))


def ball_gram(tau, kappa, n):
    """Direct Gram-matrix oracle for the ball connection coefficients; ValueError for kappa as in ball_connection."""
    d = tau.m
    _check_ball_kappa(tau, kappa)
    tkappa = _extend(tau, d + 1).act_params(kappa)
    order = ball_enumerate(d, n)
    targets = {key: q_ball(*key, kappa) for key in order}
    rows = []
    for nu, eps in order:
        src = permute(q_ball(nu, eps, tkappa), tau)
        row = []
        for key in order:
            row.append(ball_inner_product(src, targets[key], kappa) / ball_norm(*key, kappa))
        rows.append(row)
    return order, rows
