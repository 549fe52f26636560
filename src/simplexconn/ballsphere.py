"""Orthogonal polynomial bases on the unit ball and unit sphere.

Every basis element is stored in factored parity form x^eps * core(x_1^2,
..., x_d^2), so no square roots ever appear. Connection coefficients on the
ball reduce, parity class by parity class, to the simplex ones with shifted
parameters, from the closed engine.  The ball inner product, the direct
Gram matrix and the generalized Gegenbauer polynomials are test oracles
(tests/oracles.py).
"""

from math import comb

from .backend import R, ZERO, ONE
from .multipoly import SparsePoly, homogenize, substitute_homogeneous
from .simplex import (
    Permutation,
    check_degree,
    enumerate_basis,
    inner_product_simplex,
    jacobi_1d,
    jacobi_simplex_basis,
    norm_A,
    scaled_kappa,
)
from .connection import normalize
from .closed_forms import connection_matrix


class ParityMismatch(ValueError):
    pass


class NotProportional(ValueError):
    pass


class ParityPoly:
    """x^eps * core(x_1^2, ..., x_d^2), with eps in {0,1}^d."""

    def __init__(self, eps, core):
        self.eps = tuple(int(e) for e in eps)
        if any(e not in (0, 1) for e in self.eps):
            raise ValueError("parity entries must be 0 or 1")
        if core.d != len(self.eps):
            raise ValueError("core dimension must match parity length")
        self.core = core

    @property
    def d(self):
        return len(self.eps)

    def expand(self):
        """The genuine polynomial in x (exponents eps + 2*core exponents)."""
        terms = {}
        for exp, c in self.core.terms.items():
            key = tuple(e + 2 * g for e, g in zip(self.eps, exp))
            terms[key] = c
        return SparsePoly(self.d, terms)

    def __eq__(self, other):
        if isinstance(other, ParityPoly):
            return self.eps == other.eps and self.core == other.core
        return NotImplemented

    def __repr__(self):
        return "ParityPoly(eps=%r, core=%r)" % (self.eps, self.core)


def poly_to_parity(p):
    """Split a polynomial with a single parity class into factored form."""
    eps = None
    terms = {}
    for exp, c in p.terms.items():
        e = tuple(g % 2 for g in exp)
        if eps is None:
            eps = e
        elif e != eps:
            raise ParityMismatch("polynomial mixes parity classes")
        terms[tuple((g - b) // 2 for g, b in zip(exp, e))] = c
    if eps is None:
        eps = (0,) * p.d
    return ParityPoly(eps, SparsePoly(p.d, terms))


def shifted(kappa, eps):
    """kappa + eps, the parity shift acting on the first len(eps) parameters; ValueError if eps is longer."""
    if len(eps) > len(kappa):
        raise ValueError(f"a parity of {len(eps)} entries cannot shift {len(kappa)} kappa entries")
    out = list(R(k) for k in kappa)
    for i, e in enumerate(eps):
        out[i] = out[i] + e
    return tuple(out)


def q_ball(nu, eps, kappa):
    """Parity-class orthogonal basis element on the ball."""
    if len(nu) != len(eps):
        raise ValueError("index and parity must have the same length")
    return ParityPoly(eps, jacobi_simplex_basis(nu, shifted(kappa, eps)))


def ball_norm(nu, eps, kappa):
    return norm_A(nu, shifted(kappa, eps))


def ball_enumerate(d, n):
    """All (nu, eps) with |eps| + 2|nu| = n, ordered by grevlex on 2nu+eps."""
    out = []
    for alpha in enumerate_basis(d, n):
        eps = tuple(a % 2 for a in alpha)
        nu = tuple((a - e) // 2 for a, e in zip(alpha, eps))
        out.append((nu, eps))
    return out


def proportionality(p, q):
    """The scalar c with p = c*q, or raise NotProportional."""
    if p.is_zero() or q.is_zero():
        raise NotProportional("zero polynomial")
    _, lead_q = q.leading()
    exp, lead_p = p.leading()
    if exp != q.leading()[0]:
        raise NotProportional("leading monomials differ")
    c = lead_p / lead_q
    if p != q.scale(c):
        raise NotProportional("polynomials are not scalar multiples")
    return c


def _extend(tau, m):
    """Embed a permutation of {1..tau.m} into S_m fixing the remaining slots."""
    img = tuple(tau(i) for i in range(1, tau.m + 1)) + tuple(range(tau.m + 1, m + 1))
    return Permutation(img)


def _check_ball_kappa(tau, kappa):
    """ValueError unless kappa has tau.m + 1 entries, one per ball variable and one for 1 - |x|^2, in scaled_kappa's domain."""
    if len(kappa) != tau.m + 1:
        raise ValueError(f"a permutation of {tau.m} ball variables needs {tau.m + 1} kappa entries, got {len(kappa)}")
    scaled_kappa(kappa)


def ball_connection(tau, kappa, n):
    """Normalized ball connection coefficients for tau permuting x_1..x_d.

    Returns a dict mapping ((nu, eps), (mu, eta)) to QSqrt over the degree-n
    ball basis; entries are zero unless eta is the tau-image of eps, and each
    parity block is the normalized closed-engine simplex matrix at the
    shifted parameters.  Raises ValueError unless kappa has tau.m + 1
    entries, each > -1, before the parity shift, and n >= 0.
    """
    d = tau.m
    _check_ball_kappa(tau, kappa)
    check_degree(n)
    tau_ext = _extend(tau, d + 1)
    out = {}
    by_eps = {}
    for nu, eps in ball_enumerate(d, n):
        by_eps.setdefault(eps, []).append(nu)
    inv = tau.inverse()
    for eps, nus in by_eps.items():
        eta = inv.act_params(eps)
        kap_eta = shifted(kappa, eta)
        deg = (n - sum(eps)) // 2
        block = connection_matrix(tau_ext, kap_eta, deg)
        hat = normalize(block, tau_ext, kap_eta)
        idx = {m: i for i, m in enumerate(block.order)}
        for nu in nus:
            for mu in block.order:
                out[((nu, eps), (mu, eta))] = hat[idx[nu]][idx[mu]]
    return out


# ---------------------------------------------------------------------------
# disk polar basis
# ---------------------------------------------------------------------------


def harmonic_pair(m):
    """Real and imaginary parts of (x1 + i x2)^m as bivariate polynomials."""
    c = SparsePoly.constant(2, ONE)
    s = SparsePoly.zero(2)
    x1 = SparsePoly.variable(2, 0)
    x2 = SparsePoly.variable(2, 1)
    for _ in range(m):
        c, s = c * x1 - s * x2, s * x1 + c * x2
    return c, s


def disk_polar_basis(j, i, n, mu):
    """Polar-coordinates disk basis element as a genuine bivariate polynomial.

    Radial Jacobi factor in 2r^2-1 of index j times r^(n-2j) cos((n-2j)t)
    for i=1 or the sine analogue for i=2.
    """
    m = n - 2 * j
    if m < 0 or (i == 2 and m == 0):
        raise ValueError("invalid polar basis index")
    cosp, sinp = harmonic_pair(m)
    trig = cosp if i == 1 else sinp
    x1 = SparsePoly.variable(2, 0)
    x2 = SparsePoly.variable(2, 1)
    # P_j^{(mu, m)}(2u-1) with u = r^2
    radial = substitute_homogeneous(jacobi_1d(j, R(mu), R(m)), x1 * x1 + x2 * x2,
                                    SparsePoly.constant(2, ONE), j)
    return radial * trig


def verify_disk_polar(n, mu):
    """Match every polar element to its parity image of the 1<->3 swapped basis.

    With m = n - 2j, the element (j, i) is the image of (nu, eps) with
    eps = (m mod 2, 0) for i = 1 and ((m - 1) mod 2, 1) for i = 2, and
    nu = (j, (m - |eps|)/2).
    """
    kappa = (R(-1, 2), R(-1, 2), R(mu))
    swap = Permutation((3, 2, 1))
    report = []
    for j in range(n // 2 + 1):
        m = n - 2 * j
        for i in (1, 2) if m else (1,):
            eps = (m % 2, 0) if i == 1 else ((m - 1) % 2, 1)
            nu = (j, (m - sum(eps)) // 2)
            pp = poly_to_parity(disk_polar_basis(j, i, n, mu))
            if pp.eps != eps:
                raise NotProportional("polar element (%d,%d) has parity %r, not %r" % (j, i, pp.eps, eps))
            cand = swap.act_vars(jacobi_simplex_basis(nu, swap.act_params(shifted(kappa, eps))))
            report.append({"j": j, "i": i, "nu": nu, "eps": eps, "scalar": proportionality(pp.core, cand)})
    return report


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def sphere_inner_product(p, q, kappa):
    """Normalized inner product over the sphere; zero across parity classes.

    The moment of y^(2b) on the sphere is the simplex moment of u^b, so this
    is the simplex inner product of core(p) u^eps and core(q).
    """
    if p.eps != q.eps:
        return ZERO
    return inner_product_simplex(p.core * SparsePoly(p.core.d, {p.eps: ONE}), q.core, kappa)


def sphere_basis(nu, eps, kappa, n):
    """Homogeneous degree-n harmonic-type element in d+1 variables.

    Built from the degree-|nu| simplex polynomial at the shifted parameters by
    homogenizing each monomial u^g to y'^(2g) (y_1^2+...+y_{d+1}^2)^(|nu|-|g|)
    and multiplying by y^eps.
    """
    d = len(nu)
    if len(eps) != d + 1:
        raise ParityMismatch("parity must have d+1 entries")
    if 2 * sum(nu) + sum(eps) != n:
        raise ParityMismatch("degree does not match 2|nu|+|eps|")
    return ParityPoly(eps, homogenize(jacobi_simplex_basis(nu, shifted(kappa, eps)), sum(nu)))


def sphere_enumerate(d, n):
    """All (nu, eps) with eps in {0,1}^(d+1) and 2|nu| + |eps| = n."""
    out = []
    for bits in range(1 << (d + 1)):
        eps = tuple((bits >> i) & 1 for i in range(d + 1))
        rem = n - sum(eps)
        if rem < 0 or rem % 2:
            continue
        for nu in enumerate_basis(d, rem // 2):
            out.append((nu, eps))
    return out


def dim_harmonic(n, nvars):
    """Dimension of degree-n harmonic-type homogeneous polynomials in nvars."""
    lower = comb(n - 2 + nvars - 1, nvars - 1) if n >= 2 else 0
    return comb(n + nvars - 1, nvars - 1) - lower


def laplacian(p):
    terms = {}
    for exp, c in p.terms.items():
        for i, e in enumerate(exp):
            if e >= 2:
                new = exp[:i] + (e - 2,) + exp[i + 1:]
                terms[new] = terms.get(new, ZERO) + c * e * (e - 1)
    return SparsePoly(p.d, {k: v for k, v in terms.items() if v != ZERO})


def example_910_check(n):
    """Spherical-harmonics families from the simplex basis at the -1/2 shifts.

    Verifies pairwise orthogonality on the sphere under the surface measure and
    exact annihilation by the Laplacian for every element of degree n.  Each
    failure ends in its value: the Laplacian's coefficient at its least
    exponent, or the inner product that should be 0.
    """
    kappa = (R(-1, 2), R(-1, 2), R(-1, 2))
    order = sphere_enumerate(2, n)
    if len(order) != dim_harmonic(n, 3):
        raise AssertionError("family count does not match the harmonic dimension")
    elems = [(key, sphere_basis(key[0], key[1], kappa, n)) for key in order]
    failures = []
    for a in range(len(elems)):
        key_a, pa = elems[a]
        lap = laplacian(pa.expand())
        if not lap.is_zero():
            failures.append(("laplacian", key_a, lap.terms[min(lap.terms)]))
        for b in range(a + 1, len(elems)):
            key_b, pb = elems[b]
            value = sphere_inner_product(pa, pb, kappa)
            if value != ZERO:
                failures.append(("orthogonality", key_a, key_b, value))
    return {"n": n, "count": len(elems), "failures": failures}
