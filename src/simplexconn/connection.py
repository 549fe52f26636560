"""Connection matrices between permuted families of simplex orthogonal bases.

For a permutation tau of the d+1 barycentric slots, the matrix C^tau(kappa)
expands the tau-transformed basis for parameters tau.kappa in the basis for
kappa, degree by degree.  Entries are exact rationals; the normalized
(orthogonal-matrix) version has entries sign * sqrt(rational).  The oracle
gram_connection solves C T = L on leading forms, apart from closed_forms,
in Python integers: the leading forms are simplex.leading_core's integer
polynomials, each row of the back-substitution is integer numerators over
one denominator, and each entry becomes a rational once.

The verifiers take the squared norms A_src[i] = A_nu(tau.kappa) and
A_tgt[j] = A_mu(kappa) of the source and target bases, for nu, mu in order,
and return None when their identity holds, else the first failing
(nu, mu, lhs, rhs).  Both orthogonality relations, and Tratnik's Racah one,
are the one check weighted_orthogonal.
"""

from math import gcd

from .backend import R, ZERO, ONE, rat_str
from .exact_arith import QSqrt, over_lcm
from .simplex import _MOMENT_CACHE, check_kappa, enumerate_basis, leading_core, norm_A


class ConnMatrix:
    """Square matrix of rationals indexed by the degree-n multi-indices.

    The order and the rows are tuples, so a matrix handed out from a cache
    cannot be changed by its caller.
    """

    __slots__ = ("d", "n", "order", "rows")

    def __init__(self, d, n, rows, order=None):
        self.d = d
        self.n = n
        self.order = tuple(order if order is not None else enumerate_basis(d, n))
        self.rows = tuple(map(tuple, rows))

    def entry(self, nu, mu):
        return self.rows[self.order.index(tuple(nu))][self.order.index(tuple(mu))]

    def matmul(self, other):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("size mismatch")
        size = len(self.order)
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                s = ZERO
                for k in range(size):
                    a = self.rows[i][k]
                    if a != 0:
                        s += a * other.rows[k][j]
                row.append(s)
            rows.append(row)
        return ConnMatrix(self.d, self.n, rows, self.order)

    def is_identity(self):
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v != (ONE if i == j else ZERO):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, ConnMatrix)
            and self.order == other.order
            and self.rows == other.rows
        )

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "order": [list(nu) for nu in self.order],
            "entries": [[rat_str(v) for v in row] for row in self.rows],
        }


# every finished connection matrix, keyed by (method, tau.img, kappa, n): the
# Gram matrices stored here and the closed ones by closed_forms.connection_matrix
_MATRIX_CACHE = {}
_LEADING_FORM_CACHE = {}


def _target_cores(kappa, n):
    """[leading_core(mu, K, D) for mu in enumerate_basis(d, n)] with kappa = K / D, cached per (kappa, n)."""
    key = (kappa, n)
    cores = _LEADING_FORM_CACHE.get(key)
    if cores is None:
        K, D = over_lcm(kappa)
        cores = _LEADING_FORM_CACHE[key] = [leading_core(mu, K, D) for mu in enumerate_basis(len(K) - 1, n)]
    return cores


def gram_connection(tau, kappa, n):
    """Connection matrix C^tau(kappa) from the leading forms of both bases.

    Taking the degree-n part is one-to-one on the degree-n orthogonal space,
    so C T = L: L[nu] is the leading form of tau.P_nu^{tau.kappa} and T[mu]
    that of P_mu^kappa (simplex.leading_core).  T[mu] holds x^gamma only for
    gamma at or before mu in enumerate_basis order, with x^mu nonzero, so each
    row of C is one back-substitution from the last mu to the first.  No
    inner product, moment, norm or full basis polynomial is built.

    Everything runs in integers: kappa over D, the lcm of its denominators,
    makes each leading form integers J over one denominator E, and the rest
    of a row is integer numerators N over one row denominator Q.  At mu the
    entry is N[mu] E_mu / (Q J_mu[mu]), the one rational made; then
    N <- N J_mu[mu] - N[mu] J_mu and Q <- Q J_mu[mu], and one gcd is
    divided out of N and Q.
    """
    d = tau.m - 1
    kappa = check_kappa(kappa)
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    key = ("gram", tau.img, kappa, n)
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        return cached
    K, D = over_lcm(kappa)
    tK = tau.act_params(K)
    order = enumerate_basis(d, n)
    targets = _target_cores(kappa, n)
    rows = []
    for nu in order:
        rest, Q = leading_core(nu, tK, D, tau)
        row = [ZERO] * len(order)
        for j in range(len(order) - 1, -1, -1):
            mu = order[j]
            c = rest.get(mu, 0)
            if not c:
                continue
            terms, E = targets[j]
            p = terms[mu]
            row[j] = R(c * E, Q * p)
            rest = {gamma: v * p for gamma, v in rest.items()}
            for gamma, t in terms.items():
                rest[gamma] = rest.get(gamma, 0) - c * t
            del rest[mu]
            Q *= p
            g = gcd(Q, *rest.values())
            if g > 1:
                rest = {gamma: v // g for gamma, v in rest.items()}
                Q //= g
        rows.append(row)
    mat = ConnMatrix(d, n, rows, order)
    _MATRIX_CACHE[key] = mat
    return mat


def normalize(mat, tau, kappa):
    """Entries of the orthogonal-matrix version, as QSqrt values.

    hat_c[nu,mu] = c[nu,mu] * sqrt(A_mu(kappa) / A_nu(tau.kappa)).
    """
    kappa = tuple(R(k) for k in kappa)
    tk = tau.act_params(kappa)
    A_tgt = [norm_A(mu, kappa) for mu in mat.order]
    return [
        [QSqrt.of_rational(c).scale_sqrt(b / a) for c, b in zip(row, A_tgt)]
        for a, row in zip((norm_A(nu, tk) for nu in mat.order), mat.rows)
    ]


def weighted_orthogonal(rows, weights, diagonal):
    """Each (i, j, lhs, rhs), i <= j, with lhs = sum_k rows[i][k] rows[j][k] weights[k] != delta(i,j) diagonal[i]."""
    for i, f in enumerate(rows):
        for j in range(i, len(rows)):
            lhs = sum((a * b * w for a, b, w in zip(f, rows[j], weights)), ZERO)
            rhs = diagonal[i] if i == j else ZERO
            if lhs != rhs:
                yield i, j, lhs, rhs


def first_difference(mat, oracle):
    """(nu, mu, mat entry, oracle entry) at the first entry where the matrices differ, or None."""
    return next(((nu, mu, a, b) for nu, row, oracle_row in zip(mat.order, mat.rows, oracle.rows)
                 for mu, a, b in zip(mat.order, row, oracle_row) if a != b), None)


def _first_at(order, failures):
    """The first (i, j, lhs, rhs) of failures as (order[i], order[j], lhs, rhs), or None."""
    return next(((order[i], order[j], lhs, rhs) for i, j, lhs, rhs in failures), None)


def verify_row_orthogonality(mat, A_src, A_tgt):
    """sum_w c[nu,w] c[mu,w] A_w(kappa) == delta(nu,mu) A_nu(tau.kappa)."""
    return _first_at(mat.order, weighted_orthogonal(mat.rows, A_tgt, A_src))


def verify_column_orthogonality(mat, A_src, A_tgt):
    """sum_w c[w,nu] c[w,mu] / A_w(tau.kappa) == delta(nu,mu) / A_nu(kappa)."""
    return _first_at(mat.order, weighted_orthogonal(
        list(zip(*mat.rows)), [ONE / a for a in A_src], [ONE / a for a in A_tgt]))


def verify_inverse_identity(mat_tau, mat_inv, A_src, A_tgt):
    """C^{tau^-1}(kappa)[nu,mu] == (A_nu(tau^-1.kappa)/A_mu(kappa)) C^tau(tau^-1.kappa)[mu,nu].

    mat_tau must be C^tau at parameters tau^-1.kappa and mat_inv C^{tau^-1}
    at kappa; A_src and A_tgt are the norms of mat_inv's bases.
    """
    expected = [[a / b * c for b, c in zip(A_tgt, column)] for a, column in zip(A_src, zip(*mat_tau.rows))]
    return first_difference(mat_inv, ConnMatrix(mat_inv.d, mat_inv.n, expected, mat_inv.order))


def verify_convolution(mat_12, mat_2_at_t1k, mat_1_at_k):
    """C^{t1 t2}(kappa) == C^{t2}(t1.kappa) @ C^{t1}(kappa)."""
    return first_difference(mat_12, mat_2_at_t1k.matmul(mat_1_at_k))


def clear_caches():
    _MOMENT_CACHE.clear()
    _MATRIX_CACHE.clear()
    _LEADING_FORM_CACHE.clear()
