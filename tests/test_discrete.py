import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import over_lcm, pochhammer
from simplexconn.simplex import Permutation, enumerate_basis
from simplexconn.closed_forms import connection_matrix
from simplexconn.connection import gram_connection
from simplexconn import discrete as ds

from oracles import (
    prefix_hahn_kraw_scaled, prefix_kraw_cc_cyclic_hat, prefix_kraw_dual, prefix_kraw_multi, prefix_kraw_norm_C,
    prefix_kraw_weight, prefix_tau_rho, rational_kraw_block, value_or_error,
)

KAPPA = (R(1, 2), R(1, 3), R(2, 5))
RHO = (R(1, 4), R(1, 3))


def test_hahn_product_matches_generating():
    N = 5
    for kappa, d in ((KAPPA, 2), ((R(1, 2), R(1, 3), R(2, 5), R(3, 4)), 3)):
        for nu in ds.kraw_grid(d, 3):
            table = ds.hahn_from_generating(nu, kappa, N)
            for alpha in enumerate_basis(d + 1, N):
                assert ds.hahn_multi(nu, alpha, kappa, N) == table[alpha]


def test_hahn_orthogonality_and_norm():
    N = 4
    d = 2
    idxs = ds.kraw_grid(d, N)
    grid = enumerate_basis(d + 1, N)
    vals = {nu: {a: ds.hahn_multi(nu, a, KAPPA, N) for a in grid} for nu in idxs}
    for i, nu in enumerate(idxs):
        for mu in idxs[i:]:
            s = ds.hahn_inner(vals[nu], vals[mu], KAPPA, N)
            expect = ds.hahn_norm_B(nu, KAPPA, N) if nu == mu else ZERO
            assert s == expect


def test_hahn_norm_relation_to_simplex_norm():
    from simplexconn.simplex import norm_A

    N = 5
    d = 2
    lam = sum(KAPPA, ZERO) + d + 1
    for nu in ds.kraw_grid(d, 3):
        t = sum(nu)
        p = ds.p_factor(nu, KAPPA)
        lhs = ds.hahn_norm_B(nu, KAPPA, N)
        rhs = (
            (ONE if t % 2 == 0 else -ONE)
            * pochhammer(lam, N + t)
            / (pochhammer(R(-N), t) * pochhammer(lam, N))
            * norm_A(nu, KAPPA)
            / (p * p)
        )
        assert lhs == rhs


def test_hahn_connection_independent_of_N():
    tau = Permutation((2, 1, 3))
    mats = [ds.hahn_connection(tau, KAPPA, N, 3) for N in (5, 6, 7)]
    assert mats[0].rows == mats[1].rows == mats[2].rows


def test_hahn_connection_matches_simplex_connection():
    n = 3
    for img in itertools.permutations((1, 2, 3)):
        tau = Permutation(img)
        hmat = ds.hahn_connection(tau, KAPPA, 6, n)
        cmat = gram_connection(tau, KAPPA, n)
        order = enumerate_basis(2, n)
        tk = tau.act_params(KAPPA)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                expect = ds.p_factor(mu, KAPPA) / ds.p_factor(nu, tk) * cmat.rows[i][j]
                assert hmat.rows[i][j] == expect


def test_kraw_orthogonality_and_norm():
    N = 4
    d = 2
    idxs = ds.kraw_grid(d, N)
    grid = ds.kraw_grid(d, N)
    vals = {nu: {x: ds.kraw_multi(nu, x, RHO, N) for x in grid} for nu in idxs}
    for i, nu in enumerate(idxs):
        for mu in idxs[i:]:
            s = ds.kraw_inner(vals[nu], vals[mu], RHO, N)
            expect = ds.kraw_norm_C(nu, RHO, N) if nu == mu else ZERO
            assert s == expect


def test_kraw_duality():
    N = 4
    d = 2
    for nu in ds.kraw_grid(d, N):
        for x in ds.kraw_grid(d, N):
            xt, nut, rt = ds.kraw_dual(x, nu, RHO)
            assert sum(RHO, ZERO) == sum(rt, ZERO)
            assert ds.kraw_multi(nu, x, RHO, N) == ds.kraw_multi(nut, xt, rt, N)
            assert ds.kraw_dual(xt, nut, rt) == (tuple(x), tuple(nu), tuple(RHO))


def test_kraw_duality_weight_identity():
    N = 4
    one_minus = ONE - sum(RHO, ZERO)
    for nu in ds.kraw_grid(2, N):
        xt, nut, rt = ds.kraw_dual((0,) * 2, nu, RHO)
        xt_full = xt + (N - sum(xt),)
        lhs = ds.kraw_norm_C(nu, RHO, N) * ds.kraw_weight(xt, rt, N)
        assert lhs == one_minus ** N


def test_kraw_cyclic_closed_forms():
    for d, n in ((2, 3), (3, 2)):
        rho = tuple(R(1, 3 + i) for i in range(d))
        N = n + 1
        tau = Permutation(tuple(range(2, d + 1)) + (1, d + 1))
        order = enumerate_basis(d, n)
        trho = ds.tau_rho(tau, rho)
        mat = ds.kraw_connection(tau, rho, N, n)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                c = mat.rows[i][j]
                hat_sq = c * c * ds.kraw_norm_C(mu, rho, N) / ds.kraw_norm_C(nu, trho, N)
                sign = 1 if c > 0 else (-1 if c < 0 else 0)
                for form in (1, 2):
                    q = ds.kraw_cc_cyclic_hat(nu, mu, rho, n, form=form)
                    assert q.square() == hat_sq
                    if q.square() != ZERO:
                        assert q.sign == sign


@pytest.mark.parametrize("nu, mu, rho, n, match", [
    ((1, 1), (2, 0), (R(1, 4), R(1, 3)), 5, r"\|nu\| = \|mu\| = 5"),
    ((1, 1), (2, 0), (R(3, 4), R(1, 3)), 2, "rho entries must be > 0 with a sum < 1"),
    ((1, 1), (2, 0), (R(1, 4),), 2, "2 rho entries"),
    ((1, 1), (2, 0, 0), (R(1, 4), R(1, 3)), 2, "len\\(mu\\) = 2"),
    ((3, -1), (2, 0), (R(1, 4), R(1, 3)), 2, "entries >= 0"),
], ids=["degree", "rho-domain", "short-rho", "mu-length", "negative-entry"])
def test_kraw_cyclic_hat_checks_its_input(nu, mu, rho, n, match):
    for form in (1, 2):
        with pytest.raises(ValueError, match=match):
            ds.kraw_cc_cyclic_hat(nu, mu, rho, n, form=form)


def test_hahn_to_krawtchouk_limit():
    nu, x = (1, 2), (2, 1)
    rho = (R(1, 4), R(1, 3))
    N = 6
    target = ds.kraw_multi(nu, x, rho, N)
    deltas = []
    for t in (10**3, 10**4, 10**5):
        approx = ds.hahn_kraw_scaled(nu, x, rho, N, R(t))
        deltas.append(abs(approx - target))
    r1 = deltas[0] / deltas[1]
    r2 = deltas[1] / deltas[2]
    assert R(5) < r1 < R(20)
    assert R(5) < r2 < R(20)


def hahn_lattice_connection(tau, kappa, N, n):
    """Oracle: the Hahn connection matrix by inner products over the lattice |alpha| = N."""
    d = tau.m - 1
    tk = tau.act_params(kappa)
    grid = enumerate_basis(d + 1, N)
    order = enumerate_basis(d, n)
    targets = [({a: ds.hahn_multi(mu, a, kappa, N) for a in grid}, ds.hahn_norm_B(mu, kappa, N)) for mu in order]
    rows = []
    for nu in order:
        src = {a: ds.hahn_multi(nu, tuple(a[tau(i) - 1] for i in range(1, d + 2)), tk, N) for a in grid}
        rows.append(tuple(ds.hahn_inner(src, vals, kappa, N) / norm for vals, norm in targets))
    return tuple(order), tuple(rows)


def test_hahn_connection_matches_lattice_oracle():
    for m, kappa, N, n in ((3, KAPPA, 6, 4), (4, KAPPA + (R(3, 4),), 3, 2)):
        for img in itertools.permutations(range(1, m + 1)):
            tau = Permutation(img)
            mat = ds.hahn_connection(tau, kappa, N, n)
            assert (mat.order, mat.rows) == hahn_lattice_connection(tau, kappa, N, n)


def test_hahn_connection_never_sums_the_lattice(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("hahn_connection evaluated the lattice")

    monkeypatch.setattr(ds, "hahn_multi", no_lattice)
    monkeypatch.setattr(ds, "hahn_weight", no_lattice)
    for m, kappa in ((3, KAPPA), (4, KAPPA + (R(3, 4),))):
        for img in itertools.permutations(range(1, m + 1)):
            assert len(ds.hahn_connection(Permutation(img), kappa, 3, 3).order) == len(enumerate_basis(m - 1, 3))


def test_hahn_connection_takes_each_p_factor_once(monkeypatch):
    # one p_factor per row and one per column, not one per entry
    calls = []
    p_factor = ds.p_factor

    def counted(nu, kappa):
        calls.append(nu)
        return p_factor(nu, kappa)

    monkeypatch.setattr(ds, "p_factor", counted)
    tau = Permutation.from_cycles("(123)", 3)
    mat = ds.hahn_connection(tau, KAPPA, 4, 3)
    assert len(calls) <= 2 * len(mat.order) == 8


def test_hahn_connection_rejects_n_above_N():
    with pytest.raises(ValueError, match="exceeds the lattice size"):
        ds.hahn_connection(Permutation((2, 1, 3)), KAPPA, 2, 3)


def test_hahn_values_reject_degree_above_N():
    kappa = (R(1, 2), R(1, 3), R(2))
    with pytest.raises(ValueError, match="degree-3 polynomial to degree 2"):
        ds.hahn_from_generating((2, 1), kappa, 2)
    with pytest.raises(ValueError, match="exceeds the lattice size"):
        ds.hahn_multi((2, 1), (1, 1, 0), kappa, 2)


def test_hahn_connection_rejects_kappa_outside_the_jacobi_domain():
    for kappa in ((R(-1), ZERO, ZERO), (R(-3, 2), R(1, 2), R(1))):
        with pytest.raises(ValueError, match="at least 2 entries, each > -1"):
            ds.hahn_connection(Permutation((2, 1, 3)), kappa, 2, 2)


def kraw_lattice_connection(tau, rho, N, n):
    """Oracle: the Krawtchouk connection matrix by inner products over the lattice |x| <= N."""
    d = tau.m - 1
    trho = ds.tau_rho(tau, rho)
    grid = ds.kraw_grid(d, N)
    order = enumerate_basis(d, n)
    targets = [({x: ds.kraw_multi(mu, x, rho, N) for x in grid}, ds.kraw_norm_C(mu, rho, N)) for mu in order]
    rows = []
    for nu in order:
        src = {}
        for x in grid:
            ext = tuple(x) + (N - sum(x),)
            src[x] = ds.kraw_multi(nu, tuple(ext[tau(i) - 1] for i in range(1, d + 1)), trho, N)
        rows.append(tuple(ds.kraw_inner(src, vals, rho, N) / norm for vals, norm in targets))
    return tuple(order), tuple(rows)


def test_kraw_connection_matches_lattice_oracle():
    for m, rho, N, n in ((3, RHO, 5, 4), (4, RHO + (R(1, 6),), 3, 2)):
        for img in itertools.permutations(range(1, m + 1)):
            tau = Permutation(img)
            mat = ds.kraw_connection(tau, rho, N, n)
            assert (mat.order, mat.rows) == kraw_lattice_connection(tau, rho, N, n)


def test_kraw_connection_never_sums_the_lattice(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("kraw_connection evaluated the lattice")

    monkeypatch.setattr(ds, "kraw_multi", no_lattice)
    monkeypatch.setattr(ds, "kraw_weight", no_lattice)
    for m, rho in ((3, RHO), (4, RHO + (R(1, 6),))):
        for img in itertools.permutations(range(1, m + 1)):
            assert len(ds.kraw_connection(Permutation(img), rho, 3, 3).order) == len(enumerate_basis(m - 1, 3))


def test_kraw_connection_rejects_bad_rho_and_n_above_N():
    for rho in (RHO[:1], RHO + (R(1, 6),)):
        with pytest.raises(ValueError, match="needs 2 rho entries"):
            ds.kraw_connection(Permutation((2, 3, 1)), rho, 3, 2)
    for rho in ((R(1, 2), R(1, 2)), (R(-1, 4), R(1, 3)), (ZERO, R(1, 3)), (R(3, 4), R(1, 2))):
        with pytest.raises(ValueError, match="> 0 with a sum < 1"):
            ds.kraw_connection(Permutation((1, 3, 2)), rho, 3, 2)
    with pytest.raises(ValueError, match="exceeds the lattice size"):
        ds.kraw_connection(Permutation((2, 1, 3)), RHO, 2, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: ds.kraw_multi((3,), (1,), (R(1, 4),), 2), "Krawtchouk degree |nu|=3 exceeds the lattice size N=2"),
    (lambda: ds.kraw_norm_C((3,), (R(1, 4),), 2), "Krawtchouk degree |nu|=3 exceeds the lattice size N=2"),
    (lambda: ds.kraw_weight((3,), (R(1, 4),), 2), "Krawtchouk point |x|=3 exceeds the lattice size N=2"),
    (lambda: ds.kraw_connection(Permutation((2, 1, 3)), RHO, 2, 3), "Krawtchouk degree n=3 exceeds the lattice size N=2"),
    (lambda: ds.hahn_multi((2, 1), (1, 1, 0), KAPPA, 2), "Hahn degree |nu|=3 exceeds the lattice size N=2"),
    (lambda: ds.hahn_connection(Permutation((2, 1, 3)), KAPPA, 2, 3), "Hahn degree n=3 exceeds the lattice size N=2"),
    (lambda: ds.hahn_multi((-1, 2), (1, 1, 0), KAPPA, 2), "series order m must be >= 0, got -1"),
    (lambda: ds.kraw_multi((-1, 2), (1, 1), RHO, 2), "series order m must be >= 0, got -1"),
], ids=["kraw_multi", "kraw_norm_C", "kraw_weight", "kraw_connection", "hahn_multi", "hahn_connection",
        "hahn_multi_negative_degree", "kraw_multi_negative_degree"])
def test_discrete_formulas_name_a_degree_or_point_off_the_lattice(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_kraw_multi_is_the_polynomial_off_the_lattice():
    # |x| > N is outside the orthogonality lattice, but K_nu(x) is a polynomial in x defined there
    assert ds.kraw_multi((1,), (3,), (R(1, 4),), 2) == -5


def test_kraw_and_hahn_connection_reject_a_negative_degree():
    tau = Permutation((2, 1, 3))
    with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
        ds.kraw_connection(tau, RHO, 3, -1)
    with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
        ds.hahn_connection(tau, KAPPA, 3, -1)


def test_kraw_block_equals_the_rational_rule():
    # seeded extended rho (all entries > 0, summing to 1) with denominators up to 60
    rng = random.Random(21)
    for _ in range(60):
        weights = [rng.randint(1, 12) for _ in range(rng.randint(3, 5))]
        ext = tuple(R(w, sum(weights)) for w in weights)
        P, D = over_lcm(ext)
        for j in range(1, len(ext) - 1):
            for n in range(7):
                block = ds._kraw_block(ds._kraw_local(P, D, j, 0), D, n)
                assert len(block) == n + 1 and {len(row) for row in block} == {n + 1}
                for k, m in itertools.product(range(n + 1), repeat=2):
                    assert R(*block[k][m]) == rational_kraw_block(j, ext, n, k, m, 0)


def small_rationals(size, lo, hi):
    return st.lists(st.fractions(lo, hi, max_denominator=6), min_size=size, max_size=size).map(
        lambda qs: tuple(R(q.numerator, q.denominator) for q in qs)
    )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_engine_matches_gram_and_lattice_oracles(data):
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(0, 2), label="n")
    tau = Permutation(data.draw(st.permutations(range(1, d + 2)), label="tau"))
    kappa = data.draw(small_rationals(d + 1, Fraction(-1, 2), 3), label="kappa")
    assert connection_matrix(tau, kappa, n).rows == gram_connection(tau, kappa, n).rows
    # rho_i > 0 and |rho| < 1
    weights = data.draw(st.lists(st.integers(1, 4), min_size=d + 1, max_size=d + 1), label="weights")
    rho = tuple(R(w, sum(weights)) for w in weights[:d])
    N = n + data.draw(st.integers(0, 1), label="N - n")
    mat = ds.kraw_connection(tau, rho, N, n)
    assert (mat.order, mat.rows) == kraw_lattice_connection(tau, rho, N, n)


def sweep_rho(rng, d):
    """rho with every entry of the extended rho > 0, then rho anywhere: zeros, negatives and |rho| >= 1."""
    if rng.random() < 0.5:
        weights = [rng.randint(1, 9) for _ in range(d + 1)]
        return tuple(R(w, sum(weights)) for w in weights[:d])
    return tuple(R(rng.randint(-4, 6), rng.choice((1, 2, 3, 5))) for _ in range(d))


def in_domain(rho):
    return all(r > 0 for r in rho) and sum(rho) < 1


def test_krawtchouk_formulas_equal_the_prefix_sum_oracles():
    # the suffix sums of the extended rho against the parent's prefix sums, inside the domain and out
    rng = random.Random(24)
    for _ in range(300):
        d, N = rng.randint(1, 3), rng.randint(0, 4)
        rho = sweep_rho(rng, d)
        nu, x = rng.choice(ds.kraw_grid(d, N)), rng.choice(ds.kraw_grid(d, N))
        t = R(rng.randint(1, 9), rng.randint(1, 4))
        for got, want, args in (
            (ds.kraw_multi, prefix_kraw_multi, (nu, x, rho, N)),
            (ds.kraw_weight, prefix_kraw_weight, (x, rho, N)),
            (ds.kraw_norm_C, prefix_kraw_norm_C, (nu, rho, N)),
            (ds.kraw_dual, prefix_kraw_dual, (x, nu, rho)),
            (ds.hahn_kraw_scaled, prefix_hahn_kraw_scaled, (nu, x, rho, N + sum(x), t)),
        ):
            assert value_or_error(got, *args) == value_or_error(want, *args), (got.__name__, args)
        for tau in map(Permutation, itertools.permutations(range(1, d + 2))):
            assert ds.tau_rho(tau, rho) == prefix_tau_rho(tau, rho), (tau, rho)
        if d >= 2 and in_domain(rho):
            n = rng.randint(0, 3)
            order = enumerate_basis(d, n)
            for form in (1, 2):
                nu, mu = rng.choice(order), rng.choice(order)
                assert ds.kraw_cc_cyclic_hat(nu, mu, rho, n, form) == prefix_kraw_cc_cyclic_hat(
                    nu, mu, rho, n, form), (nu, mu, rho, n, form)


def test_tau_rho_is_an_action():
    # tau_rho(t1 t2, rho) = tau_rho(t2, tau_rho(t1, rho)), inside the domain and out
    rng = random.Random(26)
    for d in (1, 2, 3):
        perms = [Permutation(img) for img in itertools.permutations(range(1, d + 2))]
        for rho in [sweep_rho(rng, d) for _ in range(4)]:
            for t1, t2 in itertools.product(perms, repeat=2):
                assert ds.tau_rho(t1 * t2, rho) == ds.tau_rho(t2, ds.tau_rho(t1, rho)), (t1, t2, rho)


def test_krawtchouk_formulas_check_the_length_of_rho():
    # one entry short, the extended rho would read 1 - |rho| as rho_d
    nu, x, tau = (1, 1), (1, 0), Permutation((2, 1, 3))
    for rho in (RHO[:1], RHO + (R(1, 6),)):
        for call in (lambda: ds.kraw_multi(nu, x, rho, 3), lambda: ds.kraw_weight(x, rho, 3),
                     lambda: ds.kraw_norm_C(nu, rho, 3), lambda: ds.kraw_dual(x, nu, rho),
                     lambda: ds.tau_rho(tau, rho), lambda: ds.hahn_kraw_scaled(nu, x, rho, 3, R(5))):
            with pytest.raises(ValueError, match=f"^rho needs d = 2 entries, got {len(rho)}$"):
                call()
