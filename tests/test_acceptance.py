"""End-to-end acceptance checks for the whole package.

Every check is exact (zero tolerance): closed forms against the Gram oracle,
structural matrix identities, discrete-family orthogonality with closed-form
norms, duality maps, and the ball/sphere constructions.  Square-root-valued
quantities are compared in (sign, square) form.
"""

import itertools
import math
import random
import time

import pytest

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import hyp_with_prefactor, pochhammer
from simplexconn.simplex import Permutation, enumerate_basis, norm_A
from simplexconn.connection import (
    gram_connection,
    normalize,
    verify_column_orthogonality,
    verify_convolution,
    verify_inverse_identity,
    verify_row_orthogonality,
)
from simplexconn import closed_forms as cf
from simplexconn import racah as rc
from simplexconn import discrete as ds
from simplexconn import ballsphere as bs
from simplexconn import qsqrt_sums_equal

from oracles import ball_gram, ball_inner_product, hahn_inner, kraw_inner, param_bridge_1d

# the parameters of criteria 1-3; criterion 4 checks the same Gram matrices
D2_KAPPAS = [
    (R(0), R(0), R(0)),
    (R(1, 2), R(1, 3), R(2)),
    (R(3, 4), R(0), R(5, 2)),
]
D2_DEGREES = range(7)
D3_KAPPAS = [
    (R(1, 2), R(1, 3), R(2, 5), R(3, 7)),
    (R(0), R(1), R(1, 2), R(3, 2)),
]
D3_DEGREES = range(5)
D3_STRUCTURAL_DEGREES = range(4)
CYCLIC_DIMS = (4, 5)
CYCLIC_DEGREES = range(1, 4)


def all_perms(m):
    return [Permutation(img) for img in itertools.permutations(range(1, m + 1))]


def cyclic_case(d):
    """(tau, kappa) of criterion 3: the cycle (12...d) fixing slot d+1."""
    kappa = tuple(R(1, i + 2) for i in range(d + 1))
    return Permutation(tuple(range(2, d + 1)) + (1, d + 1)), kappa


def structural_cases():
    """Every (tau, kappa, n) whose Gram matrix criteria 1-3 compare."""
    cases = [(tau, k, n) for k in D2_KAPPAS for tau in all_perms(3) for n in D2_DEGREES]
    cases += [(tau, k, n) for k in D3_KAPPAS for tau in all_perms(4) for n in D3_STRUCTURAL_DEGREES]
    cases += [(*cyclic_case(d), n) for d in CYCLIC_DIMS for n in CYCLIC_DEGREES]
    return cases


@pytest.fixture(scope="module")
def structural_matrices():
    """(tau, kappa, Gram matrix) for every case of criteria 1-3.

    Built once for the module: no matrix is cached between tests.
    """
    return [(tau, kappa, gram_connection(tau, kappa, n)) for tau, kappa, n in structural_cases()]


def test_01_closed_vs_gram_d2():
    start = time.time()
    for kappa in D2_KAPPAS:
        for tau in all_perms(3):
            for n in D2_DEGREES:
                closed = cf.connection_matrix(tau, kappa, n)
                gram = gram_connection(tau, kappa, n)
                assert closed.rows == gram.rows
    assert time.time() - start < 60


def test_02_closed_vs_gram_d3():
    start = time.time()
    hat_names = ["(123)", "(132)", "(124)", "(142)", "(1234)", "(1342)", "(1243)", "(1432)"]
    for kappa in D3_KAPPAS:
        for tau in all_perms(4):
            for n in D3_DEGREES:
                closed = cf.cc_3d_matrix(tau, kappa, n)
                gram = gram_connection(tau, kappa, n)
                assert closed.rows == gram.rows
        # square-root closed forms in (sign, square)
        n = 3
        order = enumerate_basis(3, n)
        for name in hat_names:
            tau = Permutation.from_cycles(name, 4)
            hat = normalize(gram_connection(tau, kappa, n), tau, kappa)
            for i, nu in enumerate(order):
                for j, mu in enumerate(order):
                    q = cf.cc_coset_hat(Permutation.from_cycles(name, 4), nu, mu, kappa, n)
                    assert q.square() == hat[i][j].square()
                    if q.square() != ZERO:
                        assert q.sign == hat[i][j].sign
        tau13 = Permutation.from_cycles("(13)", 4)
        hat = normalize(gram_connection(tau13, kappa, n), tau13, kappa)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                terms = cf.cc_3d_hat13_terms(nu, mu, kappa, n)
                assert qsqrt_sums_equal(terms, [hat[i][j]])
    assert time.time() - start < 300


def test_03_cyclic_closed_forms_d4_d5():
    start = time.time()
    for d in CYCLIC_DIMS:
        tau, kappa = cyclic_case(d)
        for n in CYCLIC_DEGREES:
            gram = gram_connection(tau, kappa, n)
            hat = normalize(gram, tau, kappa)
            order = enumerate_basis(d, n)
            for i, nu in enumerate(order):
                for j, mu in enumerate(order):
                    forms = [cf.cc_cyclic_hat(nu, mu, kappa, n, form=f) for f in (1, 2, 3)]
                    for q in forms:
                        assert q.square() == forms[0].square()
                        assert q.square() == hat[i][j].square()
                        if q.square() != ZERO:
                            assert q.sign == forms[0].sign == hat[i][j].sign
    assert time.time() - start < 300


def norm_lists(order, tau, kappa):
    """The verifiers' norm lists: A_nu(tau.kappa) and A_mu(kappa) for nu, mu in order."""
    tk = tau.act_params(kappa)
    return [norm_A(nu, tk) for nu in order], [norm_A(mu, kappa) for mu in order]


def test_04_structural_identities(structural_matrices):
    start = time.time()
    assert len(structural_matrices) == 324
    for tau, kappa, mat in structural_matrices:
        norms = norm_lists(mat.order, tau, kappa)
        assert verify_row_orthogonality(mat, *norms) is None
        assert verify_column_orthogonality(mat, *norms) is None
    rng = random.Random(20240817)
    for _ in range(20):
        m = rng.choice((3, 4))
        imgs = list(itertools.permutations(range(1, m + 1)))
        t1 = Permutation(rng.choice(imgs))
        t2 = Permutation(rng.choice(imgs))
        kappa = tuple(R(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m))
        n = rng.randint(1, 3)
        lhs = gram_connection(t1 * t2, kappa, n)
        m2 = gram_connection(t2, t1.act_params(kappa), n)
        m1 = gram_connection(t1, kappa, n)
        assert verify_convolution(lhs, m2, m1) is None
        inv = t1.inverse()
        mat_at_invk = gram_connection(t1, inv.act_params(kappa), n)
        inv_mat = gram_connection(inv, kappa, n)
        assert verify_inverse_identity(mat_at_invk, inv_mat, *norm_lists(inv_mat.order, inv, kappa)) is None
    assert time.time() - start < 120


def test_05_racah_module():
    start = time.time()
    betas = {
        2: tuple(R(2 * i + 1, 2) + i for i in range(4)),
        3: tuple(R(3 * i + 2, 3) + i for i in range(5)),
    }
    # full orthogonality with the closed-form norm
    for d, N in ((2, 4), (2, 5), (3, 5)):
        beta = betas[d]
        grid = rc.lattice_points(d, N)
        idxs = ds.kraw_grid(d, N)
        weights = [rc.racah_weight_multi(x, beta, N) for x in grid]
        vals = {nu: [rc.racah_multi(nu, x, beta, N) for x in grid] for nu in idxs}
        for i, nu in enumerate(idxs):
            for mu in idxs[i:]:
                s = sum((w * a * b for w, a, b in zip(weights, vals[nu], vals[mu])), ZERO)
                expect = rc.racah_norm_sq(nu, beta, N) if nu == mu else ZERO
                assert s == expect
    # duality and the second-family reflection on full grids
    for d, N in ((2, 4), (3, 3)):
        beta = betas[d]
        for nu in ds.kraw_grid(d, N):
            for x in rc.lattice_points(d, N):
                xt, nut, bt = rc.dual_map(x, nu, beta, N)
                lhs = rc.racah_multi(nu, x, beta, N) / rc.duality_normalizer(nu, beta, N)
                rhs = rc.racah_multi(nut, xt, bt, N) / rc.duality_normalizer(nut, bt, N)
                assert lhs == rhs
                assert rc.dual_map(xt, nut, bt, N) == (tuple(x), tuple(nu), tuple(beta))
                xc, nuc, bc = rc.conj_map(x, nu, beta, N)
                assert rc.racah_multi(nu, x, beta, N) == rc.racah_second(nuc, xc, bc, N)
    # Whipple transformation on 100 random balanced tuples
    rng = random.Random(20240817)
    for _ in range(100):
        m = rng.randint(0, 6)
        X, Y, Z, U, V = (R(rng.randint(-8, 12), rng.choice((1, 2, 3))) for _ in range(5))
        W = 1 - m + X + Y + Z - U - V
        try:
            lhs = hyp_with_prefactor([X, Y, Z], [U, V, W], m)
            rhs = hyp_with_prefactor(
                [U - X, U - Y, Z], [1 - V + Z - m, 1 - W + Z - m, U], m
            )
        except Exception:
            continue
        assert lhs == rhs
    # one-variable bridge
    N = 5
    beta1 = tuple(R(i + 1, 3) + 2 * i for i in range(3))
    a, b, c, dlt = param_bridge_1d(beta1, N)
    for n in range(N + 1):
        for x in range(N + 1):
            pref = (
                pochhammer(beta1[1] - beta1[0], n)
                * pochhammer(beta1[2] + N, n)
                * pochhammer(R(-N), n)
            )
            assert rc.racah_multi((n,), (x,), beta1, N) == pref * rc.racah_1d(n, x, a, b, c, dlt)
    assert time.time() - start < 180


def test_06_summation_identity():
    start = time.time()
    for kappa in ((R(1, 2), R(1, 3), R(1, 2)), (R(3, 4), R(1, 5), R(2))):
        for n in range(7):
            for k in range(n + 1):
                for ell in range(n + 1):
                    lhs, rhs = cf.verify_sum_identity(k, ell, kappa, n)
                    assert lhs == rhs
    assert time.time() - start < 60


def test_07_hahn():
    start = time.time()
    kappas = {
        1: (R(1, 2), R(1, 3)),
        2: (R(1, 2), R(1, 3), R(2, 5)),
        3: (R(1, 2), R(1, 3), R(2, 5), R(3, 4)),
    }
    # product formula equals generating-function extraction
    N = 6
    for d in (1, 2, 3):
        kappa = kappas[d]
        for nu in ds.kraw_grid(d, 4):
            table = ds.hahn_from_generating(nu, kappa, N)
            for alpha in enumerate_basis(d + 1, N):
                assert ds.hahn_multi(nu, alpha, kappa, N) == table[alpha]
    # lattice orthogonality with the closed-form norm
    for d, N in ((2, 6), (3, 4)):
        kappa = kappas[d]
        idxs = ds.kraw_grid(d, N)
        grid = enumerate_basis(d + 1, N)
        vals = {nu: {a: ds.hahn_multi(nu, a, kappa, N) for a in grid} for nu in idxs}
        for i, nu in enumerate(idxs):
            for mu in idxs[i:]:
                s = hahn_inner(vals[nu], vals[mu], kappa, N)
                expect = ds.hahn_norm_B(nu, kappa, N) if nu == mu else ZERO
                assert s == expect
    # norm relation to the continuous norm
    d, N = 2, 5
    kappa = kappas[2]
    lam = sum(kappa, ZERO) + d + 1
    for nu in ds.kraw_grid(d, 4):
        t = sum(nu)
        p = ds.p_factor(nu, kappa)
        rhs = (
            (ONE if t % 2 == 0 else -ONE)
            * pochhammer(lam, N + t)
            / (pochhammer(R(-N), t) * pochhammer(lam, N))
            * norm_A(nu, kappa)
            / (p * p)
        )
        assert ds.hahn_norm_B(nu, kappa, N) == rhs
    # Hahn connection equals the continuous connection up to p-factors,
    # independently of N
    n = 3
    mats = {}
    for tau in all_perms(3):
        per_N = [ds.hahn_connection(tau, kappa, N, n) for N in (5, 6, 7)]
        assert per_N[0].rows == per_N[1].rows == per_N[2].rows
        cmat = gram_connection(tau, kappa, n)
        order = enumerate_basis(2, n)
        tk = tau.act_params(kappa)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                expect = ds.p_factor(mu, kappa) / ds.p_factor(nu, tk) * cmat.rows[i][j]
                assert per_N[0].rows[i][j] == expect
    assert time.time() - start < 300


def test_08_krawtchouk():
    start = time.time()
    rhos = {
        1: (R(1, 4),),
        2: (R(1, 4), R(1, 3)),
        3: (R(1, 4), R(1, 3), R(1, 5)),
    }
    # orthogonality with the closed-form norm
    for d, N in ((2, 6), (3, 4)):
        rho = rhos[d]
        idxs = ds.kraw_grid(d, N)
        grid = ds.kraw_grid(d, N)
        vals = {nu: {x: ds.kraw_multi(nu, x, rho, N) for x in grid} for nu in idxs}
        for i, nu in enumerate(idxs):
            for mu in idxs[i:]:
                s = kraw_inner(vals[nu], vals[mu], rho, N)
                expect = ds.kraw_norm_C(nu, rho, N) if nu == mu else ZERO
                assert s == expect
    # duality: involution, parameter-sum preservation, weight identity
    d, N = 2, 4
    rho = rhos[2]
    one_minus = ONE - sum(rho, ZERO)
    for nu in ds.kraw_grid(d, N):
        for x in ds.kraw_grid(d, N):
            xt, nut, rt = ds.kraw_dual(x, nu, rho)
            assert sum(rt, ZERO) == sum(rho, ZERO)
            assert ds.kraw_multi(nu, x, rho, N) == ds.kraw_multi(nut, xt, rt, N)
            assert ds.kraw_dual(xt, nut, rt) == (tuple(x), tuple(nu), tuple(rho))
        xt, nut, rt = ds.kraw_dual((0,) * d, nu, rho)
        assert ds.kraw_norm_C(nu, rho, N) * ds.kraw_weight(xt, rt, N) == one_minus ** N
    # cyclic closed forms against the discrete Gram matrix
    for d in (2, 3):
        rho = rhos[d]
        tau = Permutation(tuple(range(2, d + 1)) + (1, d + 1))
        for n in range(1, 5):
            N = n + 1
            trho = ds.tau_rho(tau, rho)
            mat = ds.kraw_connection(tau, rho, N, n)
            order = enumerate_basis(d, n)
            for i, nu in enumerate(order):
                for j, mu in enumerate(order):
                    c = mat.rows[i][j]
                    hat_sq = c * c * ds.kraw_norm_C(mu, rho, N) / ds.kraw_norm_C(nu, trho, N)
                    for form in (1, 2):
                        q = ds.kraw_cc_cyclic_hat(nu, mu, rho, n, form=form)
                        assert q.square() == hat_sq
                        if q.square() != ZERO:
                            assert q.sign == (1 if c > 0 else -1)
    # Hahn -> Krawtchouk limit at rate 1/t
    rng = random.Random(20240817)
    cases = 0
    while cases < 10:
        d = rng.choice((1, 2))
        rho = rhos[d]
        N = rng.randint(3, 6)
        nu = tuple(rng.randint(0, 2) for _ in range(d))
        x = tuple(rng.randint(0, 2) for _ in range(d))
        if sum(nu) == 0 or sum(x) > N:
            continue
        target = ds.kraw_multi(nu, x, rho, N)
        d4 = abs(ds.hahn_kraw_scaled(nu, x, rho, N, R(10**4)) - target)
        d5 = abs(ds.hahn_kraw_scaled(nu, x, rho, N, R(10**5)) - target)
        if d4 == ZERO:
            continue
        assert R(5) < d4 / d5 < R(20)
        cases += 1
    assert time.time() - start < 300


def test_09_ball_sphere():
    start = time.time()
    kappa = (R(1, 2), R(1, 3), R(2, 5))
    # parity block-diagonality
    for (nu, eps), (mu, eta) in itertools.combinations(bs.ball_enumerate(2, 4), 2):
        if eps != eta:
            p = bs.q_ball(nu, eps, kappa)
            q = bs.q_ball(mu, eta, kappa)
            assert ball_inner_product(p, q, kappa) == ZERO
    # disk polar basis matches parity images of the swapped simplex basis
    for mu in (R(1, 2), R(0)):
        for n in range(6):
            report = bs.verify_disk_polar(n, mu)
            assert len(report) == n + 1
    # ball connection blocks equal the normalized simplex matrices
    for tau in (Permutation((2, 1)), Permutation((1, 2))):
        for n in (3, 4):
            conn = bs.ball_connection(tau, kappa, n)
            order, rows = ball_gram(tau, kappa, n)
            tk = bs._extend(tau, 3).act_params(kappa)
            for i, src in enumerate(order):
                src_norm = bs.ball_norm(src[0], src[1], tk)
                for j, dst in enumerate(order):
                    c = rows[i][j]
                    q = conn.get((src, dst))
                    if q is None:
                        assert c == ZERO
                        continue
                    assert q.square() == c * c * bs.ball_norm(*dst, kappa) / src_norm
                    if c != ZERO:
                        assert q.sign == (1 if c > 0 else -1)
    # spherical harmonics: orthogonality and Laplacian annihilation
    for n in range(8):
        rep = bs.example_910_check(n)
        assert rep["count"] == bs.dim_harmonic(n, 3)
        assert rep["failures"] == []
    assert time.time() - start < 300


def test_10_dimensions():
    start = time.time()
    for d in range(1, 7):
        for n in range(9):
            assert len(enumerate_basis(d, n)) == math.comb(n + d - 1, n)
    for d in (2, 3):
        for n in range(7):
            ball = bs.ball_enumerate(d, n)
            assert len(ball) == math.comb(n + d - 1, n)
            by_eps = {}
            for nu, eps in ball:
                by_eps[eps] = by_eps.get(eps, 0) + 1
            assert sum(by_eps.values()) == math.comb(n + d - 1, n)
    for n in range(7):
        assert len(bs.sphere_enumerate(2, n)) == bs.dim_harmonic(n, 3)
    assert time.time() - start < 1
