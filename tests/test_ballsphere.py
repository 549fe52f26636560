import itertools
import random

import pytest

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import pochhammer
from simplexconn.simplex import Permutation
from simplexconn import ballsphere as bs
from simplexconn import closed_forms as cf
from simplexconn import connection
from simplexconn.multipoly import SparsePoly, substitute_homogeneous

from oracles import ball_gram, ball_inner_product, gegenbauer_gen, permute

KAPPA2 = (R(1, 2), R(1, 3), R(2, 5))
KAPPA3 = (R(1, 2), R(1, 3), R(2, 5), R(3, 7))


def test_parity_blocks_are_orthogonal():
    for (nu, eps), (mu, eta) in itertools.combinations(bs.ball_enumerate(2, 3), 2):
        p = bs.q_ball(nu, eps, KAPPA2)
        q = bs.q_ball(mu, eta, KAPPA2)
        assert ball_inner_product(p, q, KAPPA2) == ZERO


def test_ball_norms():
    from simplexconn.simplex import norm_A

    for nu, eps in bs.ball_enumerate(2, 4):
        p = bs.q_ball(nu, eps, KAPPA2)
        n2 = ball_inner_product(p, p, KAPPA2)
        assert n2 == bs.ball_norm(nu, eps, KAPPA2)
        assert n2 == norm_A(nu, bs.shifted(KAPPA2, eps))


def test_gegenbauer_generalized_low_degrees():
    lam, mu = R(3, 2), R(1, 4)
    e0, c0 = gegenbauer_gen(0, lam, mu)
    assert e0 == 0 and c0 == [ONE]
    e1, c1 = gegenbauer_gen(1, lam, mu)
    assert e1 == 1 and len(c1) == 1
    e2, c2 = gegenbauer_gen(2, lam, mu)
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


def gegenbauer_product(alpha, kappa):
    """The Cartesian ball element of index alpha, with its Gegenbauer prefactors kept.

    It is prod_j h_j^(alpha_j/2) C_{alpha_j}(x_j / sqrt(h_j)), h_j = 1 - x_1^2 - ... - x_{j-1}^2,
    with C = gegenbauer_gen(alpha_j, lam_j + 1/2, kappa_j + 1/2) and
    lam_j = |alpha^{j+1}| + |kappa^{j+1}| + d - j (kappa^{j+1} = (kappa_{j+1}, ..., kappa_{d+1})):
    lam_j + 1/2 is the paper's |alpha^{j+1}| + |kappa'^{j+1}| + (d - j)/2 at kappa' = kappa + 1/2.
    Returns the parity, the core in x_1^2, ..., x_d^2 and the product of the
    prefactors C_n^{(lam, mu)}(1) / P_{n//2}(1) = (lam + mu)_{(n+1)//2} / (mu + 1/2)_{(n+1)//2}.
    """
    d = len(alpha)
    half = R(1, 2)
    eps = []
    core = SparsePoly.constant(d, ONE)
    prefactor = ONE
    for j in range(1, d + 1):
        lam = sum(alpha[j:]) + sum(kappa[j:], ZERO) + d - j + half  # lam_j + 1/2
        mu = kappa[j - 1] + half
        parity, coeffs = gegenbauer_gen(alpha[j - 1], lam, mu)
        h = SparsePoly.constant(d, ONE)
        for i in range(j - 1):
            h = h - SparsePoly.variable(d, i)
        eps.append(parity)
        core = core * substitute_homogeneous(coeffs, SparsePoly.variable(d, j - 1), h, alpha[j - 1] // 2)
        top = (alpha[j - 1] + 1) // 2
        prefactor *= pochhammer(lam + mu, top) / pochhammer(mu + half, top)
    return tuple(eps), core, prefactor


def test_cartesian_product_is_proportional_to_semigroup_form():
    # at (-1/2)^(d+1) the last factor's prefactor (0)_k vanishes when alpha_d >= 1, and so do both sides
    for d, kappa in ((2, KAPPA2), (3, KAPPA3), (2, (R(-1, 2),) * 3), (3, (R(-1, 2),) * 4)):
        for total in range(6 if d == 2 else 5):
            for alpha in itertools.product(range(total + 1), repeat=d):
                if sum(alpha) != total:
                    continue
                eps, core, prefactor = gegenbauer_product(alpha, kappa)
                nu = tuple(a // 2 for a in alpha)
                assert eps == tuple(a % 2 for a in alpha)
                assert core == bs.q_ball(nu, eps, kappa).core.scale(prefactor), alpha
                assert (prefactor == ZERO) == (kappa[0] == R(-1, 2) and alpha[-1] >= 1), alpha


def assert_ball_connection_matches_gram(tau, kappa, n):
    conn = bs.ball_connection(tau, kappa, n)
    order, rows = ball_gram(tau, kappa, n)
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

    assert not hasattr(bs, "gram_connection") and not hasattr(cf, "gram_connection")
    monkeypatch.setattr(connection, "gram_connection", no_gram)
    for d, kappa in ((2, KAPPA2), (3, KAPPA3)):
        for tau_img in itertools.permutations(range(1, d + 1)):
            assert bs.ball_connection(Permutation(tau_img), kappa, 3)


def test_ball_connection_checks_kappa_before_the_shift_and_the_degree():
    # kappa_1 = -3/2 makes |x_1|^{2 kappa_1 + 1} non-integrable, though kappa_1 + 1 > -1
    tau = Permutation((1,))
    with pytest.raises(ValueError, match="at least 2 entries, each > -1"):
        bs.ball_connection(tau, (R(-3, 2), R(1, 2)), 1)
    with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
        bs.ball_connection(Permutation((2, 1)), KAPPA2, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: bs.ball_connection(Permutation.from_cycles("(12)", 3), (R(1, 2), R(1, 3)), 2),
     "3 ball variables needs 4 kappa entries, got 2"),
    (lambda: ball_gram(Permutation.from_cycles("(12)", 3), (R(1, 2), R(1, 3)), 2),
     "3 ball variables needs 4 kappa entries, got 2"),
    (lambda: bs.q_ball((1, 0, 0), (0, 1, 1), (R(1, 2), R(1, 3))), "parity of 3 entries cannot shift 2 kappa entries"),
    (lambda: bs.sphere_basis((1, 1), (0, 0, 0), (R(1, 2), R(1, 3)), 4),
     "parity of 3 entries cannot shift 2 kappa entries"),
], ids=["ball-connection", "ball-gram", "q-ball", "sphere-basis"])
def test_a_parity_longer_than_kappa_raises_naming_both_lengths(call, message):
    # a short kappa used to fail inside the parity shift with a bare IndexError
    with pytest.raises(ValueError, match=message):
        call()


def test_disk_polar_basis_matches_simplex_images():
    for mu in (R(1, 2), R(0), R(2)):
        for n in range(4):
            report = bs.verify_disk_polar(n, mu)
            assert len(report) == n + 1
            for entry in report:
                assert entry["scalar"] != ZERO


def test_parity_poly_equality():
    core = SparsePoly(2, {(1, 0): R(3), (0, 0): ONE})
    p = bs.ParityPoly((1, 0), core)
    assert p == bs.ParityPoly((1, 0), SparsePoly(2, dict(core.terms)))
    assert p != bs.ParityPoly((0, 1), core)
    # any other type compares unequal instead of raising AttributeError
    assert p != 1 and not p == 1
    assert p != core and core != p


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
        assert ball_inner_product(pa, pb, kappa) == ZERO


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


def test_permute_is_the_substitution_x_i_to_x_tau_i():
    # oracle: the expanded polynomial under SparsePoly.subst, with no permuted tuple built
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(4):
            eps = tuple(rng.randint(0, 1) for _ in range(d))
            core = SparsePoly(d, {tuple(rng.randint(0, 2) for _ in range(d)): R(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(4)})
            p = bs.ParityPoly(eps, core)
            for img in itertools.permutations(range(1, d + 1)):
                tau = Permutation(img)
                xs = [SparsePoly.variable(d, tau(i) - 1) for i in range(1, d + 1)]
                assert permute(p, tau).expand() == p.expand().subst(xs), (p, tau)
