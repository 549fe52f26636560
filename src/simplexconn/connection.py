"""Connection matrices between permuted families of simplex orthogonal bases.

For a permutation tau of the d+1 barycentric slots, the matrix C^tau(kappa)
expands the tau-transformed basis for parameters tau.kappa in the basis for
kappa, degree by degree.  Entries are exact rationals; the normalized
(orthogonal-matrix) version has entries sign * sqrt(rational).  A ConnMatrix
stores one form, int_rows: per row, integer numerators over one positive
denominator, reduced so that equal matrices have equal int_rows; rows, the
rational view, is built from it when read.  Only this module reads
int_rows: transpose and scaled, diag(left) C diag(right), run in integers
and serve normalize, the column check and the Hahn matrix; the inverse check
applies the same rescale to the columns, unreduced.  The Coxeter-word engine
(closed_forms) hands its integer rows over as they are.  This module caches
nothing: a caller that reads a matrix twice holds it.  The oracle
gram_connections solves C T = L on leading forms in integers for every tau
of one (kappa, n): simplex.leading_cores builds each basis's leading forms
in one call, T is built once per call as tuples of integer rows cut at its
diagonal, and each back-substitution row is integers over one denominator.

The verifiers take the squared norms A_src[i] = A_nu(tau.kappa) and
A_tgt[j] = A_mu(kappa) of the source and target bases, for nu, mu in order,
and return None when their identity holds, else the first failing
(nu, mu, lhs, rhs).  Both orthogonality relations, and Tratnik's Racah one,
are the one check weighted_orthogonal.  Every check runs on int_rows by
cross-multiplication (matmul too runs in integers), and a rational is made
only for a failure returned; a size mismatch raises ValueError.
"""

from math import gcd, lcm
from operator import mul

from .backend import R, ZERO, ONE
from .exact_arith import QSqrt, over_lcm
from . import simplex
from .simplex import check_degree, check_kappa, enumerate_basis, leading_cores, norm_A


class ConnMatrix:
    """Square matrix of rationals indexed by the degree-n multi-indices.

    One form is stored, int_rows: per row, a tuple of integer numerators
    over one positive row denominator, with their gcd divided out, so equal
    matrices have equal int_rows.  rows, the rational view, is built from it
    on each read and not stored.  The order and int_rows are tuples, so a
    matrix held by one caller cannot be changed by another.
    """

    __slots__ = ("d", "n", "order", "int_rows")

    def __init__(self, d, n, rows, order=None):
        """The matrix of rational rows, each put over the lcm of its denominators once, which leaves it reduced."""
        self._store(d, n, [(tuple(nums), den) for nums, den in map(over_lcm, rows)], order)

    @classmethod
    def from_int_rows(cls, d, n, int_rows, order=None):
        """The matrix of (numerators, denominator) rows, for any nonzero denominators."""
        mat = cls.__new__(cls)
        mat._store(d, n, list(map(_reduced, int_rows)), order)
        return mat

    def _store(self, d, n, int_rows, order):
        self.d = d
        self.n = n
        self.order = tuple(order if order is not None else enumerate_basis(d, n))
        self.int_rows = tuple(int_rows)
        size = len(self.order)
        if len(self.int_rows) != size or any(len(nums) != size for nums, _ in self.int_rows):
            raise ValueError(f"a matrix at (d, n) = ({d}, {n}) needs {size} rows of {size} entries")

    @property
    def rows(self):
        """The rational entries, row by row, built from int_rows."""
        return tuple(tuple(R(v, den) for v in nums) for nums, den in self.int_rows)

    def entry(self, nu, mu):
        nums, den = self.int_rows[self.order.index(tuple(nu))]
        return R(nums[self.order.index(tuple(mu))], den)

    def matmul(self, other):
        """self @ other in integers: row i of self dots other's columns over L, over Q_i L."""
        _same_shape(self, other)
        columns, L = _columns(other)
        rows = [([sum(map(mul, nums, col)) for col in columns], den * L) for nums, den in self.int_rows]
        return ConnMatrix.from_int_rows(self.d, self.n, rows, self.order)

    def transpose(self):
        """The transpose in integers: the columns over the lcm of the row denominators."""
        columns, L = _columns(self)
        return ConnMatrix.from_int_rows(self.d, self.n, [(col, L) for col in columns], self.order)

    def scaled(self, left, right):
        """diag(left) @ self @ diag(right) in integers, for rationals left and right with one entry per multi-index.

        With right over its lcm, W_k / L, and left[i] = p / q, row i, N / Q,
        becomes p N_k W_k over q Q L.  ValueError unless left and right fit.
        """
        size = len(self.order)
        if (len(left), len(right)) != (size, size):
            raise ValueError(f"{size} rows need {size} left and right entries, got {len(left)} and {len(right)}")
        return ConnMatrix.from_int_rows(self.d, self.n, _scaled_rows(self.int_rows, left, *over_lcm(right)), self.order)

    def __eq__(self, other):
        return (
            isinstance(other, ConnMatrix)
            and self.order == other.order
            and self.int_rows == other.int_rows
        )

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "order": [list(nu) for nu in self.order],
            "entries": [[_ratio_str(v, den) for v in nums] for nums, den in self.int_rows],
        }


def _ratio_str(v, den):
    """rat_str(v / den) for integers v and den > 0, from the integers: 'p/q', or 'p' when q is 1."""
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _reduced(int_row):
    """(numerators, denominator) as a tuple over a positive denominator, with the gcd divided out."""
    nums, den = int_row
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return (tuple(nums) if g == 1 else tuple(v // g for v in nums)), den // g


def _scaled_rows(int_rows, left, W, L):
    """diag(left) @ rows @ diag(W / L), unreduced: row i, N / Q, is p N_k W_k over q Q L for left[i] = p / q."""
    return [([p * v * w for v, w in zip(nums, W)], q * Q * L)
            for (p, q), (nums, Q) in zip([a.as_integer_ratio() for a in left], int_rows)]


def _columns(mat):
    """(columns, L): the columns of mat as integer tuples over L, the lcm of its row denominators."""
    L = lcm(*(den for _, den in mat.int_rows))
    factors = [L // den for _, den in mat.int_rows]
    return list(zip(*([v * m for v in nums] for (nums, _), m in zip(mat.int_rows, factors)))), L


def _same_shape(mat, other):
    """ValueError unless the two matrices have one d, n and order."""
    if (mat.d, mat.n, mat.order) != (other.d, other.n, other.order):
        raise ValueError(f"size mismatch: matrices at (d, n) = ({mat.d}, {mat.n}) and ({other.d}, {other.n})"
                         " with their orders do not match")


def _dense(order, cores):
    """Each (terms, den) of cores as ([coefficient of x^gamma for gamma in order], den)."""
    index = {gamma: i for i, gamma in enumerate(order)}
    out = []
    for terms, den in cores:
        row = [0] * len(order)
        for gamma, v in terms.items():
            row[index[gamma]] = v
        out.append((row, den))
    return out


def _target_rows(order, K, D):
    """T cut at its diagonal: per mu of order, (J_mu, E_mu), as tuples.

    J_mu is the tuple of integer coefficients of x^gamma in the leading form
    of P_mu^kappa, kappa = K / D, for gamma up to and including mu in order,
    over the denominator E_mu.  ValueError naming mu if its diagonal entry
    is zero or an entry after it is not.  Nothing is cached: each
    gram_connections call builds T once and shares it across its taus.
    """
    rows = []
    for j, (row, E) in enumerate(_dense(order, leading_cores(order, K, D))):
        if not row[j] or any(row[j + 1:]):
            raise ValueError(f"the leading form of P_mu^kappa at mu = {order[j]} is not triangular "
                             "with a nonzero diagonal entry")
        rows.append((tuple(row[:j + 1]), E))
    return tuple(rows)


def gram_connection(tau, kappa, n):
    """Connection matrix C^tau(kappa) from the leading forms of both bases: gram_connections for one tau."""
    return next(gram_connections([tau], kappa, n))


def gram_connections(taus, kappa, n):
    """Yield C^tau(kappa) for each tau of taus in order, from the leading forms of both bases.

    Taking the degree-n part is one-to-one on the degree-n orthogonal space,
    so C T = L: L[nu] is the leading form of tau.P_nu^{tau.kappa} and T[mu]
    that of P_mu^kappa (simplex.leading_cores, each basis in one call).
    T does not depend on tau: kappa and n are checked, kappa put over its
    lcm and T built once per call, and a verify run makes one call for all
    its taus (one T per tau made its solve_s about 6 % slower).
    T[mu] holds x^gamma only for gamma at or before mu in enumerate_basis
    order, with x^mu nonzero, so each row of C is one back-substitution from
    the last mu to the first.  No inner product, moment, norm or full basis
    polynomial is built.

    Everything runs in integers: kappa over D, the lcm of its denominators,
    makes each leading form integers J over one denominator E, and the rest
    of a row is integer numerators N over one row denominator Q.  Both are
    dense lists in enumerate_basis order; T is cut at its diagonal and N
    drops its last entry at each step.  At mu the entry is
    N[mu] E_mu / (Q J_mu[mu]), reduced by one gcd; then
    N <- N J_mu[mu] - N[mu] J_mu and Q <- Q J_mu[mu], and one gcd is
    divided out of N and Q.  The entries of a row go over the lcm of their
    denominators, as the matrix's int_rows: no rational is made.
    """
    kappa = check_kappa(kappa)
    check_degree(n)
    K, D = over_lcm(kappa)
    order = enumerate_basis(len(K) - 1, n)
    targets = _target_rows(order, K, D)
    for tau in taus:
        rows = []
        for rest, Q in _dense(order, leading_cores(order, tau.act_params(K), D, tau)):
            row = [(0, 1)] * len(order)
            for j in range(len(order) - 1, -1, -1):
                c = rest.pop()
                if not c:
                    continue
                t, E = targets[j]
                p = t[j]
                top, bottom = c * E, Q * p
                g = gcd(top, bottom)
                row[j] = top // g, bottom // g
                rest = [v * p - c * s for v, s in zip(rest, t)]
                Q *= p
                g = gcd(Q, *rest)
                if g > 1:
                    rest = [v // g for v in rest]
                    Q //= g
            common = lcm(*(q for _, q in row))
            rows.append(([v * (common // q) for v, q in row], common))
        yield ConnMatrix.from_int_rows(tau.m - 1, n, rows, order)


def normalize(mat, tau, kappa):
    """Entries of the orthogonal-matrix version, as QSqrt values.

    hat_c[nu,mu] = c[nu,mu] * sqrt(A_mu(kappa) / A_nu(tau.kappa)).  With
    c = N / Q from int_rows and s / P the entry of
    diag(1 / A_nu(tau.kappa)) C diag(A_mu(kappa)), the radicand is
    N s / (Q P), the one rational made.  ValueError unless tau and kappa
    have the d + 1 slots of mat, and each kappa_i > -1.
    """
    kappa = check_kappa(kappa)
    tk = tau.act_params(kappa)
    weighted = mat.scaled([ONE / norm_A(nu, tk) for nu in mat.order], [norm_A(mu, kappa) for mu in mat.order])
    return [[QSqrt.signed(c, R(c * s, Q * P)) for c, s in zip(nums, snums)]
            for (nums, Q), (snums, P) in zip(mat.int_rows, weighted.int_rows)]


def weighted_orthogonal(rows, weights, diagonal):
    """Each (i, j, lhs, rhs), i <= j, with lhs = sum_k c_ik c_jk weights[k] != delta(i,j) diagonal[i].

    Row i is integer numerators N_i over a nonzero denominator Q_i,
    c_ik = N_ik / Q_i.  With the weights over their lcm L, W_k / L, lhs is
    S / (Q_i Q_j L) for the integer S = sum_k N_ik N_jk W_k, so each test is
    one cross-multiplication of S with h = delta(i,j) diagonal[i]; lhs is
    made a rational only for a record yielded.  ValueError unless there are
    as many weights as entries in each row and one diagonal entry per row.
    """
    if len(diagonal) != len(rows) or any(len(nums) != len(weights) for nums, _ in rows):
        raise ValueError(f"{len(weights)} weights and {len(diagonal)} diagonal entries do not fit "
                         f"{len(rows)} rows of {len(rows[0][0]) if rows else 0} entries")
    W, L = over_lcm(weights)
    for i, (f, Q) in enumerate(rows):
        fw = [a * w for a, w in zip(f, W)]
        for j in range(i, len(rows)):
            g, P = rows[j]
            s = sum(map(mul, fw, g))
            h = diagonal[i] if i == j else ZERO
            if s * h.denominator != h.numerator * Q * P * L:
                yield i, j, R(s, Q * P * L), h


def first_difference(mat, oracle):
    """(nu, mu, mat entry, oracle entry) at the first entry where the matrices differ, or None.

    Both int_rows are reduced, so rows are equal exactly when their tuples
    are; in a row that differs the entry is found by cross-multiplication.
    ValueError unless the matrices have one d, n and order.
    """
    _same_shape(mat, oracle)
    return _first_row_difference(mat.order, mat.int_rows, oracle.int_rows)


def _first_row_difference(order, rows, oracle_rows):
    """first_difference on (numerators, denominator) rows; a row of oracle_rows need not be reduced."""
    for nu, (f, Q), (g, P) in zip(order, rows, oracle_rows):
        if Q != P or f != g:
            for mu, a, b in zip(order, f, g):
                if a * P != b * Q:
                    return nu, mu, R(a, Q), R(b, P)
    return None


def _first_at(order, failures):
    """The first (i, j, lhs, rhs) of failures as (order[i], order[j], lhs, rhs), or None."""
    return next(((order[i], order[j], lhs, rhs) for i, j, lhs, rhs in failures), None)


def verify_row_orthogonality(mat, A_src, A_tgt):
    """sum_w c[nu,w] c[mu,w] A_w(kappa) == delta(nu,mu) A_nu(tau.kappa)."""
    return _first_at(mat.order, weighted_orthogonal(mat.int_rows, A_tgt, A_src))


def verify_column_orthogonality(mat, A_src, A_tgt):
    """sum_w c[w,nu] c[w,mu] / A_w(tau.kappa) == delta(nu,mu) / A_nu(kappa): the row check of the transpose."""
    return verify_row_orthogonality(mat.transpose(), [ONE / a for a in A_tgt], [ONE / a for a in A_src])


def verify_inverse_identity(mat_tau, mat_inv, A_src, A_tgt):
    """C^{tau^-1}(kappa)[nu,mu] == (A_nu(tau^-1.kappa)/A_mu(kappa)) C^tau(tau^-1.kappa)[mu,nu].

    mat_tau must be C^tau at parameters tau^-1.kappa and mat_inv C^{tau^-1}
    at kappa; A_src and A_tgt are the norms of mat_inv's bases.  The right
    side is diag(A_src) mat_tau^T diag(1 / A_tgt), compared entry by entry
    as first_difference does.  It is built in integers and never reduced:
    the columns of mat_tau over their lcm L, and 1 / A_tgt over the lcm M
    of the norms' numerators, b = s / r giving r (M / s) / M; each entry is
    one cross-multiplication.  ValueError unless the matrices have one d, n
    and order and each norm list has one entry per multi-index.
    """
    _same_shape(mat_tau, mat_inv)
    size = len(mat_inv.order)
    if (len(A_src), len(A_tgt)) != (size, size):
        raise ValueError(f"the norm lists need {size} entries each, got {len(A_src)} and {len(A_tgt)}")
    columns, L = _columns(mat_tau)
    M = lcm(*(b.numerator for b in A_tgt))
    W = [b.denominator * (M // b.numerator) for b in A_tgt]
    rhs = _scaled_rows([(column, L) for column in columns], A_src, W, M)
    return _first_row_difference(mat_inv.order, mat_inv.int_rows, rhs)


def verify_convolution(mat_12, mat_2_at_t1k, mat_1_at_k):
    """C^{t1 t2}(kappa) == C^{t2}(t1.kappa) @ C^{t1}(kappa)."""
    return first_difference(mat_12, mat_2_at_t1k.matmul(mat_1_at_k))


def clear_caches():
    """Empty simplex._MOMENT_CACHE, which nothing fills; kept because perfbench's reset_caches calls it by name."""
    simplex._MOMENT_CACHE.clear()
