import itertools

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import pochhammer
from simplexconn.simplex import Permutation
from simplexconn import ballsphere as bs
from simplexconn import closed_forms as cf
from simplexconn import connection
from simplexconn.multipoly import SparsePoly

KAPPA2 = (R(1, 2), R(1, 3), R(2, 5))
KAPPA3 = (R(1, 2), R(1, 3), R(2, 5), R(3, 7))


def test_parity_blocks_are_orthogonal():
    for (nu, eps), (mu, eta) in itertools.combinations(bs.ball_enumerate(2, 3), 2):
        p = bs.q_ball(nu, eps, KAPPA2)
        q = bs.q_ball(mu, eta, KAPPA2)
        assert bs.ball_inner_product(p, q, KAPPA2) == ZERO


def test_ball_norms():
    from simplexconn.simplex import norm_A

    for nu, eps in bs.ball_enumerate(2, 4):
        p = bs.q_ball(nu, eps, KAPPA2)
        n2 = bs.ball_inner_product(p, p, KAPPA2)
        assert n2 == bs.ball_norm(nu, eps, KAPPA2)
        assert n2 == norm_A(nu, bs.shifted(KAPPA2, eps))


def test_gegenbauer_generalized_low_degrees():
    lam, mu = R(3, 2), R(1, 4)
    e0, c0 = bs.gegenbauer_gen(0, lam, mu)
    assert e0 == 0 and c0 == [ONE]
    e1, c1 = bs.gegenbauer_gen(1, lam, mu)
    assert e1 == 1 and len(c1) == 1
    e2, c2 = bs.gegenbauer_gen(2, lam, mu)
    assert e2 == 0 and len(c2) == 2
    # even case reduces to a Jacobi polynomial in 2t^2 - 1; check value at t=1
    val_at_1 = sum(c2, ZERO)
    expect = (
        pochhammer(lam + mu, 1)
        / pochhammer(mu + R(1, 2), 1)
        * pochhammer(lam + R(1, 2), 1)
        / pochhammer(ONE, 1)
    )
    assert val_at_1 == expect


def test_cartesian_product_is_proportional_to_semigroup_form():
    # kappa_d + kappa_{d+1} = -1 in the last two cases
    for d, kappa in ((2, KAPPA2), (3, KAPPA3), (2, (R(-1, 2),) * 3), (3, (R(-1, 2),) * 4)):
        for total in range(5):
            for alpha in itertools.product(range(total + 1), repeat=d):
                if sum(alpha) != total:
                    continue
                rep = bs.verify_ball_equivalence(alpha, kappa)
                assert rep["scalar"] != ZERO
    for alpha in ((0, 0, 1), (1, 0, 1), (0, 0, 2)):
        assert bs.verify_ball_equivalence(alpha, (R(-1, 2),) * 4)["scalar"] != ZERO


def assert_ball_connection_matches_gram(tau, kappa, n):
    conn = bs.ball_connection(tau, kappa, n)
    order, rows = bs.ball_gram(tau, kappa, n)
    norms = {key: bs.ball_norm(*key, kappa) for key in order}
    tk = bs._extend(tau, tau.m + 1).act_params(kappa)
    for i, src in enumerate(order):
        src_norm = bs.ball_norm(src[0], src[1], tk)
        for j, dst in enumerate(order):
            c = rows[i][j]
            q = conn.get((src, dst))
            hat_sq = c * c * norms[dst] / src_norm
            if q is None:
                assert c == ZERO
            else:
                assert q.square() == hat_sq
                if c != ZERO:
                    assert q.sign == (1 if c > 0 else -1)


def test_ball_connection_matches_gram():
    for tau_img in ((2, 1), (1, 2)):
        for n in (2, 3):
            assert_ball_connection_matches_gram(Permutation(tau_img), KAPPA2, n)


def test_ball_connection_matches_gram_d3():
    for tau_img in itertools.permutations((1, 2, 3)):
        for n in range(4):
            assert_ball_connection_matches_gram(Permutation(tau_img), KAPPA3, n)


def test_ball_connection_never_calls_gram(monkeypatch):
    def no_gram(*args):
        raise AssertionError("ball_connection called gram_connection")

    assert not hasattr(bs, "gram_connection")
    monkeypatch.setattr(connection, "gram_connection", no_gram)
    monkeypatch.setattr(cf, "gram_connection", no_gram)
    for d, kappa in ((2, KAPPA2), (3, KAPPA3)):
        for tau_img in itertools.permutations(range(1, d + 1)):
            assert bs.ball_connection(Permutation(tau_img), kappa, 3)


def test_disk_polar_basis_matches_simplex_images():
    for mu in (R(1, 2), R(0), R(2)):
        for n in range(4):
            report = bs.verify_disk_polar(n, mu)
            assert len(report) == n + 1
            for entry in report:
                assert entry["scalar"] != ZERO


def test_disk_polar_orthogonality():
    mu = R(1, 2)
    n = 3
    kappa = (R(-1, 2), R(-1, 2), mu)
    elems = []
    for j in range(n // 2 + 1):
        elems.append(bs.disk_polar_basis(j, 1, n, mu))
        if n - 2 * j > 0:
            elems.append(bs.disk_polar_basis(j, 2, n, mu))
    for a, b in itertools.combinations(range(len(elems)), 2):
        pa = bs.poly_to_parity(elems[a])
        pb = bs.poly_to_parity(elems[b])
        assert bs.ball_inner_product(pa, pb, kappa) == ZERO


def test_sphere_orthogonality():
    kappa = KAPPA2
    n = 3
    order = bs.sphere_enumerate(2, n)
    elems = [bs.sphere_basis(key[0], key[1], kappa, n) for key in order]
    for a, b in itertools.combinations(range(len(elems)), 2):
        assert bs.sphere_inner_product(elems[a], elems[b], kappa) == ZERO
    for e in elems:
        assert bs.sphere_inner_product(e, e, kappa) != ZERO


def test_harmonic_family_on_sphere():
    for n in range(6):
        rep = bs.example_910_check(n)
        assert rep["count"] == bs.dim_harmonic(n, 3)
        assert rep["failures"] == []


def test_laplacian_basics():
    p = SparsePoly(3, {(2, 0, 0): ONE, (0, 2, 0): -ONE})
    lp = bs.laplacian(p)
    assert lp.terms == {}
    q = SparsePoly(3, {(2, 0, 0): ONE})
    assert bs.laplacian(q).terms == {(0, 0, 0): R(2)}
