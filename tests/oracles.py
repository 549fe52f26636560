"""Rational reference computations, independent of the package's integer code and of its extended rho.

The Jacobi coefficients come from the ratio recurrence of the 2F1 series, a_j
from rational sums, and the basis from SparsePoly products of factors
lin^k hom^(n-k) built by a direct loop, not by the package's homogenize and
subst.  Tests compare the package's integer definitions (simplex.jacobi_core,
a_core and the basis product) and its substitute_homogeneous with these.

The Krawtchouk formulas are written with prefix sums, each 1 - (rho_1 + ...
+ rho_j) formed where it is read, and tau acts on (rho, 1 - |rho|) by hand;
tests compare the package's suffix sums of the extended rho with these.
"""

from simplexconn.backend import R, ZERO, ONE
from simplexconn.discrete import hahn_multi
from simplexconn.exact_arith import QSqrt, hyp_with_prefactor, pochhammer
from simplexconn.multipoly import SparsePoly


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
