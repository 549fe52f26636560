"""Closed-form connection coefficients between permuted simplex bases.

Every connection matrix comes from one engine, word_product.  A permutation
tau of the d+1 slots is a product s_{a_1} ... s_{a_k} of adjacent
transpositions s_j = (j, j+1) (a reduced word), and the composition rule
C^{t1 t2}(kappa) = C^{t2}(t1.kappa) C^{t1}(kappa) turns the word into a
product of block-sparse factors, each applied to the rows of the running
product.  For the Jacobi family the factor for s_d is the signed identity and
the factor for s_j, j < d, is made of cc_2d_entry blocks, the d=2 (12)
matrix of 4F3 entries, at the shifted parameters kappa-hat of slots j, j+1,
so the closed method is exact and total for every d, d=2 included: there is
no table of named d=2 permutations.  The Krawtchouk family
(discrete.kraw_connection) supplies its own local rules.  Both the local
rule and the row updates run in Python integers: the family puts the
parameters over the lcm D of their denominators once per word, each step
swaps those integers, cc_2d_entry takes kappa-hat as three integers over D
and returns its whole block of (num, den) at once, each prefactor built once
per row or column and each 4F3 summed by exact_arith's integer kernel, and
each row of the running product is integer numerators over one denominator,
handed to the ConnMatrix as its int_rows, so the engine makes no rational
and keeps no matrix: connection_matrix returns a new value per call.  The
engine reads one block per group of rows of one local degree and tail, and
a caller that builds many matrices at permutations of one kappa passes them
one dict of blocks (entries) that it holds, keyed by the local parameters,
so each block is evaluated once.  cc_2d_entry keeps the name of the
one-entry rule it grew from, under which perfbench's tracer counts it.

The paper's named formulas stay as identities checked against the Gram
oracle: the summation identity and the normalized coefficients, all read
from one Racah form, that of the full cycle (12...d), also with kappa over
one lcm per call: beta is integers over that lcm, and its forms 2 and 3 are
racah's integer dual and conj maps of form 1; cc_coset_hat extends it to every
s_d^a (12...d)^{+-1} s_d^b; the adjacent transposition s_j is the d=2 cycle
(12) localized at the kappa-hat of slots j, j+1, as in the engine; and the
(13) coefficient at d=3 is the composition (13) = (123)(12).
"""

import itertools
from math import comb, gcd, lcm

from .backend import R, ZERO, ONE
from .exact_arith import QSqrt, fold_at, hyp_terminating, least_top, pochhammer, rising
from .racah import conj_core, dual_core, multi_core, norm_core, racah_weight_1d, second_norm_core, weight_core
from .simplex import Permutation, a_core, check_degree, enumerate_basis, scaled_kappa
from .connection import ConnMatrix


def _sign(k):
    return ONE if k % 2 == 0 else -ONE


# ---------------------------------------------------------------------------
# d = 2
# ---------------------------------------------------------------------------


def cc_2d_entry(K, D, n):
    """The degree-n connection matrix for tau = (12) at d=2, kappa = K / D, as one block.

    Row j is nu = (n-j, j) and column m is mu = (n-m, m).  This is the one
    local rule of the Jacobi engine: every other C^tau, for every d, is a
    product of such blocks at shifted parameters and signed diagonals.  It
    keeps the name of the one-entry rule it grew from, under which
    perfbench's tracer counts it, so that count is one per block.

    Entry (j, m) is (-1)^{n+m+j} C(n, j) (k2+1)_{n-j} (k3+1)_j (n+|k|+2)_m /
    ((k2+1)_m (k2+k3+2m+2)_{n-m} (k2+k3+m+1)_m) times
    4F3(-m, m+k2+k3+1, -j, j+k1+k3+1; -n, k3+1, n+|k|+2; 1), computed in
    integers: kappa is three integers K over any common denominator D > 0,
    (k + c)_r = prod_i (K + (c+i) D) / D^r, so the D^{n+m} of the prefactor
    cancel.  The prefactor's column part is built once per column and its
    row part once per row, and each 4F3 is one exact_arith.fold_at over step
    D at its least top, the lesser of its column's (-m, m+k2+k3+1) and its
    row's (-j, j+k1+k3+1), each found once.  Entries are integers (num, den),
    den != 0, each divided by its gcd, so the engine keeps and combines small
    integers; no rational is made.  Outside the domain kappa > -1 the block
    raises what its first raising entry, in row-major order, raises:
    ZeroDivisionError for a 0 prefactor denominator, BottomPole for a
    vanishing 4F3 bottom.
    """
    K1, K2, K3 = K
    # D times the bottoms -n, k3+1 and n+|k|+2, shared by every entry
    c, e = K3 + D, K1 + K2 + K3 + (n + 2) * D
    bottoms = [-n * D, c, e]
    columns = []
    for m in range(n + 1):
        a = K2 + K3 + (m + 1) * D  # D times the top m+k2+k3+1
        num = rising(e, m, D)
        den = rising(K2 + D, m, D) * rising(a + (m + 1) * D, n - m, D) * rising(a, m, D)
        columns.append((-m * D, a, least_top([-m * D, a], D), -num if m % 2 else num, den))
    block = []
    for j in range(n + 1):
        b = K1 + K3 + (j + 1) * D  # D times the top j+k1+k3+1
        row_num = comb(n, j) * rising(K2 + D, n - j, D) * rising(c, j, D)
        if (n + j) % 2:
            row_num = -row_num
        row_order = least_top([-j * D, b], D)
        row = []
        for m, (m_top, a, order, num, den) in enumerate(columns):
            if den == 0:
                raise ZeroDivisionError(f"the (12) prefactor divides by 0 at m={m}, n={n}")
            total, bottom = fold_at([m_top, -j * D, a, b], bottoms, min(order, row_order), D)
            entry_num, entry_den = row_num * num * total, den * bottom
            g = gcd(entry_num, entry_den)
            row.append((entry_num // g, entry_den // g))
        block.append(row)
    return block


def verify_sum_identity(k, ell, kappa, n):
    """Check the exact summation identity tying three 4F3 kernels together.

    Returns (lhs, rhs) of the identity; they must be equal.
    """
    if len(kappa) != 3:
        raise ValueError(f"the summation identity needs exactly 3 kappa entries, got {len(kappa)}")
    k1, k2, k3 = (R(k_) for k_ in kappa)
    tot = k1 + k2 + k3

    def wstar(x, a, b, c, dlt):
        # Racah weight with the trailing (c+1)_x/(dlt+1)_x ratio inverted;
        # reduces to the plain weight when c == dlt
        return racah_weight_1d(x, a, b, c, dlt) * pochhammer(dlt + 1, x) / pochhammer(c + 1, x)

    lhs = ZERO
    for m in range(n + 1):
        u = wstar(m, R(-n) - 1, R(n) + tot - k1 + 1, k3, k1)
        f1 = hyp_terminating(
            [R(-m), m + k1 + k3 + 1, R(-k), k + k1 + k2 + 1],
            [R(-n), k1 + 1, R(n) + tot + 2],
            ONE,
        )
        f2 = hyp_terminating(
            [R(-m), m + k1 + k3 + 1, R(-ell), ell + k2 + k3 + 1],
            [R(-n), k3 + 1, R(n) + tot + 2],
            ONE,
        )
        lhs += _sign(m) * u * f1 * f2
    rhs = (
        _sign(n + k + ell)
        * pochhammer(k2 + 1, k)
        * pochhammer(k2 + 1, ell)
        / pochhammer(k2 + 1, n)
        * pochhammer(k1 + k3 + 2, n)
        / (pochhammer(k1 + 1, k) * pochhammer(k3 + 1, ell))
        * hyp_terminating(
            [R(-k), k + k1 + k2 + 1, R(-ell), ell + k2 + k3 + 1],
            [R(-n), k2 + 1, R(n) + tot + 2],
            ONE,
        )
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# any d: products of adjacent transpositions
# ---------------------------------------------------------------------------


def word_product(tau, P, D, n, local, block, ratio, entries=None):
    """Degree-n connection matrix of tau as a product of adjacent factors, at params = P / D.

    With tau = s_{a_1} ... s_{a_k} (a reduced word), the composition rule
    C^{t1 t2} = C^{t2}(t1.params) C^{t1}(params) gives C^tau = F_k ... F_1,
    F_i = C^{s_{a_i}}(params_i), params_1 = params and params_{i+1} = params_i
    with slots a_i and a_i + 1 swapped.  Each factor is applied to the rows of
    the running product; it is never built.  The family supplies its local
    rules, read at the current params:

    - local(P, D, j, tail), j < d: the local parameters of C^{s_j} at the
      rows nu with tail = |nu^{j+2}|, a tuple of integers over D;
    - block(L, D, m_loc): at those local parameters L and the local degree
      m_loc = nu_j + nu_{j+1}, the d=2 (12) block, whose row k = nu_{j+1}
      holds in column m the entry of C^{s_j} in row nu and column mu, as
      integers (num, den), den != 0, where mu agrees with nu outside slots
      j, j+1 and m = mu_{j+1};
    - ratio(P, D): C^{s_d} is diag((p/q)^{nu_d}) for the integers (p, q).

    The caller puts the params over their lcm D once: D does not change when
    slots are swapped, so every step reads the same integers P, permuted.
    Rows are kept as integer numerators over one row denominator: s_j combines
    the rows it reads over the lcm of (entry denominator x row denominator)
    and divides out one gcd, and s_d multiplies row nu by p^{nu_d} and its
    denominator by q^{nu_d}.  The rows are the ConnMatrix's int_rows as
    they stand: no rational is made.  The rows of s_j fall into groups of one
    (m_loc, tail), each of which reads one block; which rows mu each row nu
    reads depends only on (d, n, j), so it is found once per letter.

    entries holds the blocks: entries[(block, L, D, m_loc)] is
    block(L, D, m_loc).  A caller that builds several matrices at
    permutations of the same params passes one dict to every call, so each
    block is evaluated once, whichever letter and params it comes from; the
    caller owns it and drops it when done.  The key holds the rule, so one
    dict may serve several families.  With None the call makes its own.
    """
    if entries is None:
        entries = {}
    P = tuple(P)
    if len(P) != tau.m:
        raise ValueError(f"a permutation of {tau.m} slots needs {tau.m} parameters, got {len(P)}")
    d = tau.m - 1
    order = enumerate_basis(d, n)
    index = {nu: i for i, nu in enumerate(order)}
    reads = {}
    # (numerators {column: int}, row denominator) of the running product, starting at the identity
    rows = [({i: 1}, 1) for i in range(len(order))]
    for a in tau.reduced_word():
        if a == d:
            p, q = ratio(P, D)
            g = gcd(p, q)
            p, q = p // g, q // g
            powers = [(p**e, q**e) for e in range(n + 1)]
            new_rows = []
            for nu, (row, den) in zip(order, rows):
                pe, qe = powers[nu[d - 1]]
                new_rows.append(({c: v * pe for c, v in row.items()}, den * qe))
            rows = new_rows
        else:
            if a not in reads:
                reads[a] = _letter_reads(order, index, a)
            new_rows = [None] * len(rows)
            for (m_loc, tail), group in reads[a].items():
                params = local(P, D, a, tail)
                key = (block, params, D, m_loc)
                entry_rows = entries.get(key)
                if entry_rows is None:
                    entry_rows = entries[key] = block(params, D, m_loc)
                for i, k, sources in group:
                    parts = []
                    for (num, den), s in zip(entry_rows[k], sources):
                        if num:
                            row, row_den = rows[s]
                            parts.append((num, den * row_den, row))
                    common = lcm(*(part_den for _, part_den, _ in parts))
                    acc = {}
                    for num, part_den, row in parts:
                        f = num * (common // part_den)
                        for col, v in row.items():
                            acc[col] = acc.get(col, 0) + f * v
                    g = gcd(common, *acc.values())
                    if g > 1:
                        acc = {col: v // g for col, v in acc.items()}
                        common //= g
                    new_rows[i] = (acc, common)
            rows = new_rows
        P = (*P[: a - 1], P[a], P[a - 1], *P[a + 1:])
    size = len(order)
    return ConnMatrix.from_int_rows(d, n, [([row.get(i, 0) for i in range(size)], den) for row, den in rows], order)


def _letter_reads(order, index, j):
    """The rows of order for s_j, grouped by (m_loc, tail): per row, (its index, nu_{j+1}, the indices of its mu)."""
    groups = {}
    for i, nu in enumerate(order):
        m_loc = nu[j - 1] + nu[j]
        sources = [index[nu[: j - 1] + (m_loc - m, m) + nu[j + 1:]] for m in range(m_loc + 1)]
        groups.setdefault((m_loc, sum(nu[j + 1:])), []).append((i, nu[j], sources))
    return groups


def _local_kappa(K, D, j, tail):
    """kappa-hat of s_j, j < d, over D for kappa = K / D: the d=2 parameters of slots j, j+1 when |nu^{j+2}| = tail."""
    return K[j - 1], K[j], a_core(K, D, j + 1, tail)


def _jacobi_ratio(K, D):
    return -1, 1


def cc_3d_matrix(tau, kappa, n):
    """Degree-n connection matrix for a Permutation tau in S_4: connection_matrix, with its checks."""
    if tau.m != 4:
        raise ValueError(f"cc_3d_matrix needs a permutation of 4 slots, got {tau!r}")
    return connection_matrix(tau, kappa, n)


# ---------------------------------------------------------------------------
# normalized closed forms: the cycle, its double coset, adjacent transpositions, (13)
# ---------------------------------------------------------------------------


def cc_cyclic_hat(nu, mu, kappa, n, form=1):
    """Normalized coefficient for the full cycle (12...d), in three Racah forms.

    Form 1 is R_{(mu_d, ..., mu_2)}(|nu^d|, ..., |nu^2|); form 2 is its dual_map,
    and form 3 the conj_map of form 2: the same value, its own weight and norm.
    kappa is put over its lcm D once, beta_j = B_j / D follows in integers,
    both maps are racah's integer maps on (B, D), and the radicand
    w R^2 / ||R||^2 is the one rational, made from racah's integer cores.
    """
    if form not in (1, 2, 3):
        raise ValueError("form must be 1, 2 or 3")
    return _cyclic_hat(nu, mu, *scaled_kappa(kappa), n, form)


def _cyclic_hat(nu, mu, K, D, n, form):
    """cc_cyclic_hat at kappa = K / D, with K_i > -D."""
    d = len(nu)
    if (len(mu), len(K), sum(nu), sum(mu)) != (d, d + 1, n, n):
        raise ValueError(f"cc_cyclic_hat needs len(mu) = {d}, {d + 1} kappa entries and |nu| = |mu| = {n}, "
                         f"got {len(mu)}, {len(K)}, {sum(nu)} and {sum(mu)}")
    if min((*nu, *mu), default=0) < 0:
        raise ValueError(f"cc_cyclic_hat needs nu and mu with entries >= 0, got nu = {nu} and mu = {mu}")
    # beta_j = kappa_1 + |kappa^{d+2-j}| + j, with |kappa^i| = kappa_i + ... + kappa_{d+1}
    B, ksuf = [K[0]], 0
    for j in range(1, d + 1):
        ksuf += K[d + 1 - j]
        B.append(K[0] + ksuf + j * D)
    x = tuple(sum(nu[d - j:]) for j in range(1, d))  # |nu^d|, ..., |nu^2|
    idx = tuple(reversed(mu[1:]))  # mu_d, ..., mu_2
    if form > 1:
        x, idx, B = dual_core(x, idx, B, D, n)
    val, val_den = multi_core(idx, x, B, D, n)
    if form == 3:
        x, idx, B = conj_core(x, idx, B, D, n)
        norm_num, norm_den = second_norm_core(idx, B, D, n)
    else:
        norm_num, norm_den = norm_core(idx, B, D, n)
    w_num, w_den = weight_core(x, B, D, n)
    radicand = R(w_num * val * val * norm_den, w_den * norm_num * val_den * val_den)
    return QSqrt.signed(-val if (n + nu[d - 1]) % 2 else val, radicand)


def cc_coset_hat(tau, nu, mu, kappa, n):
    """Normalized coefficient for tau = s_d^a c^{+-1} s_d^b, c = (12...d), s_d = (d, d+1), d >= 2.

    C^{s_d} is the signed diagonal (-1)^{nu_d}, so the composition rule gives
    Chat^tau(kappa)[nu][mu] = (-1)^{a mu_d + b nu_d} Chat^{c^{+-1}}(s_d^a.kappa)[nu][mu],
    and Chat^{c^-1}(kappa') is the transpose of Chat^c(c^-1.kappa').  At d = 3
    this is (123), (132), (124), (142), (1234), (1342), (1243), (1432).
    """
    d = tau.m - 1
    if d < 2 or len(kappa) != tau.m:
        raise ValueError(f"cc_coset_hat needs d >= 2 and {tau.m} kappa entries for {tau!r}")
    one = Permutation.identity(d + 1)
    s_d = Permutation(tuple(range(1, d)) + (d + 1, d))
    cycle = Permutation(tuple(range(2, d + 1)) + (1, d + 1))
    for a, inverse, b in itertools.product((0, 1), (False, True), (0, 1)):
        mid = cycle.inverse() if inverse else cycle
        if (s_d if a else one) * mid * (s_d if b else one) == tau:
            break
    else:
        raise ValueError(f"{tau!r} is not s_d^a (12...d)^(+-1) s_d^b with s_d = ({d}{d + 1})")
    if a:
        kappa = s_d.act_params(kappa)
    if inverse:
        q = cc_cyclic_hat(mu, nu, cycle.inverse().act_params(kappa), n)
    else:
        q = cc_cyclic_hat(nu, mu, kappa, n)
    return q.scale(_sign(a * mu[d - 1] + b * nu[d - 1]))


def cc_adjacent_hat(nu, mu, kappa, n, j):
    """Normalized coefficient for the transposition (j, j+1), 1 <= j <= d.

    For j < d it is the d=2 cycle (12) at the local degrees of slots j, j+1
    and the engine's kappa-hat, and 0 unless nu and mu agree outside them.
    Raises ValueError unless 1 <= j <= d = len(nu), len(mu) = d, kappa has
    d + 1 entries, each > -1, and |nu| = |mu| = n with no negative entry.
    """
    d, nu, mu = len(nu), tuple(nu), tuple(mu)
    if not (1 <= j <= d and len(mu) == d and len(kappa) == d + 1 and sum(nu) == sum(mu) == n
            and min(nu + mu) >= 0):
        raise ValueError(f"cc_adjacent_hat needs 1 <= j <= d = len(nu), len(mu) = d, d + 1 kappa entries "
                         f"and |nu| = |mu| = n with entries >= 0; got j = {j}, nu = {nu}, mu = {mu}, "
                         f"{len(kappa)} kappa entries and n = {n}")
    K, D = scaled_kappa(kappa)
    if j == d:
        return QSqrt.signed(_sign(nu[d - 1]) if nu == mu else 0, ONE)
    if nu[: j - 1] != mu[: j - 1] or nu[j + 1:] != mu[j + 1:]:
        return QSqrt(0, ZERO)
    return _cyclic_hat(nu[j - 1: j + 1], mu[j - 1: j + 1], _local_kappa(K, D, j, sum(nu[j + 1:])), D,
                       nu[j - 1] + nu[j], 1)


def cc_3d_hat13_terms(nu, mu, kappa, n):
    """Normalized (13) coefficient at d=3 as a list of QSqrt summands.

    (13) = (123)(12), so the composition rule gives the sum over lambda =
    (n - nu_3 - l, l, nu_3) of Chat^{(12)}((123).kappa)[nu][lambda] times
    Chat^{(123)}(kappa)[lambda][mu].  The sum collapses to a single
    sign*sqrt(rational); summands individually do not, so the caller must
    combine them by square-free radicand class.
    """
    cycled = Permutation.from_cycles("(123)", 4).act_params(kappa)
    lams = [(n - nu[2] - ell, ell, nu[2]) for ell in range(n - nu[2] + 1)]
    return [cc_adjacent_hat(nu, lam, cycled, n, 1) * cc_cyclic_hat(lam, mu, kappa, n) for lam in lams]


def connection_matrix(tau, kappa, n, method="closed", entries=None):
    """Degree-n connection matrix C^tau(kappa), exact, for tau in S_{d+1}.

    It multiplies adjacent-transposition factors along a reduced word of tau
    (any d), with kappa over its lcm once, and keeps no module cache.  Each
    factor s_j reads cc_2d_entry's blocks at the kappa-hat of slots j, j+1
    (_local_kappa).  entries is word_product's dict of those blocks, keyed
    there by the rule, the kappa-hat over D, D and the local degree; the
    caller owns it and passes it to every call whose kappa are permutations
    of one another.  None makes one for this call.  "closed" is the one
    method.  Raises ValueError unless kappa has at least 2 entries, each >
    -1, and n >= 0.
    """
    K, D = scaled_kappa(kappa)
    check_degree(n)
    if method != "closed":
        raise ValueError(f"method must be 'closed', not {method!r}")
    return word_product(tau, K, D, n, _local_kappa, cc_2d_entry, _jacobi_ratio, entries)
