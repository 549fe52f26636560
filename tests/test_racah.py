import random

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import hyp_with_prefactor, pochhammer
from simplexconn import racah as rc
from simplexconn import closed_forms as cf
from simplexconn.discrete import kraw_grid
from simplexconn.simplex import enumerate_basis

BETA2 = tuple(R(2 * i + 1, 2) + i for i in range(4))  # d = 2
BETA3 = tuple(R(3 * i + 2, 3) + i * i for i in range(5))  # d = 3


def test_racah_1d_orthogonality():
    a, b, dlt = R(1, 2), R(1, 3), R(1, 4)
    N = 5
    c = R(-N - 1)  # truncation
    for n in range(N + 1):
        for m in range(n + 1):
            s = sum(
                (
                    rc.racah_weight_1d(x, a, b, c, dlt)
                    * rc.racah_1d(n, x, a, b, c, dlt)
                    * rc.racah_1d(m, x, a, b, c, dlt)
                    for x in range(N + 1)
                ),
                ZERO,
            )
            expect = rc.racah_norm_1d(n, a, b, c, dlt, N) if n == m else ZERO
            assert s == expect


def test_multivariable_orthogonality_d2():
    N = 4
    grid = rc.lattice_points(2, N)
    idxs = kraw_grid(2, N)
    vals = {nu: [rc.racah_multi(nu, x, BETA2, N) for x in grid] for nu in idxs}
    weights = [rc.racah_weight_multi(x, BETA2, N) for x in grid]
    for i, nu in enumerate(idxs):
        for mu in idxs[i:]:
            s = sum(
                (w * a * b for w, a, b in zip(weights, vals[nu], vals[mu])), ZERO
            )
            expect = rc.racah_norm_sq(nu, BETA2, N) if nu == mu else ZERO
            assert s == expect


def test_duality_relation_and_involution():
    N = 4
    for nu in kraw_grid(2, N):
        for x in rc.lattice_points(2, N):
            xt, nut, bt = rc.dual_map(x, nu, BETA2, N)
            lhs = rc.racah_multi(nu, x, BETA2, N) / rc.duality_normalizer(nu, BETA2, N)
            rhs = rc.racah_multi(nut, xt, bt, N) / rc.duality_normalizer(nut, bt, N)
            assert lhs == rhs
            back = rc.dual_map(xt, nut, bt, N)
            assert back == (tuple(x), tuple(nu), tuple(BETA2))


def second_by_product(nu, x, beta, N):
    """R'_nu(x; beta, N) from its own suffix-indexed product formula: the oracle for racah_second."""
    d = len(nu)
    beta = [R(b) for b in beta]
    xx = [0] + list(x) + [N]
    val = ONE
    for j in range(1, d + 1):
        s = sum(nu[j:])  # nu_{j+1} + ... + nu_d
        top = [
            R(nu[j - 1]) + 2 * s + beta[d + 1] - beta[j - 1] - 1,
            R(s - N + xx[j]),
            R(s - N) - beta[j] - xx[j],
        ]
        bottom = [
            R(2 * s) + beta[d + 1] - beta[j],
            R(s - N) - beta[j - 1] - xx[j - 1],
            R(s - N + xx[j - 1]),
        ]
        val *= hyp_with_prefactor(top, bottom, nu[j - 1])
    return val


def weight_by_ratios(x, beta, N):
    """The weight with every Pochhammer ratio taken as written: the oracle for racah_weight_multi."""
    d = len(x)
    xx = (0,) + tuple(x) + (N,)
    val = pochhammer(beta[d + 1], xx[d] + N)
    for j in range(d + 1):
        gap = xx[j + 1] - xx[j]
        val *= pochhammer(beta[j + 1] - beta[j], gap) / (
            pochhammer(ONE, gap) * pochhammer(beta[j] + 1, xx[j + 1] + xx[j])
        )
    for j in range(1, d + 1):
        val *= pochhammer(beta[j], xx[j - 1] + xx[j]) * pochhammer((beta[j] + 2) / 2, xx[j]) / pochhammer(
            beta[j] / 2, xx[j]
        )
    return val


def test_weight_matches_the_ratio_form_seeded():
    # non-integer beta, so no Pochhammer symbol of the ratio form is zero in a denominator
    rng = random.Random(20261020)
    for d in range(1, 4):
        for N in range(6):
            for _ in range(10):
                beta = tuple(R(7 * rng.randint(-3, 2) + rng.randint(1, 6), 7) for _ in range(d + 2))
                for x in rc.lattice_points(d, N):
                    assert rc.racah_weight_multi(x, beta, N) == weight_by_ratios(x, beta, N)


def test_second_family_via_reflection():
    N = 4
    for nu in kraw_grid(2, N):
        for x in rc.lattice_points(2, N):
            xc, nuc, bc = rc.conj_map(x, nu, BETA2, N)
            assert rc.racah_multi(nu, x, BETA2, N) == second_by_product(nuc, xc, bc, N)


def test_second_family_orthogonality():
    N = 3
    grid = rc.lattice_points(2, N)
    idxs = kraw_grid(2, N)
    weights = [rc.racah_weight_multi(x, BETA2, N) for x in grid]
    vals = {nu: [rc.racah_second(nu, x, BETA2, N) for x in grid] for nu in idxs}
    for i, nu in enumerate(idxs):
        for mu in idxs[i:]:
            s = sum((w * a * b for w, a, b in zip(weights, vals[nu], vals[mu])), ZERO)
            expect = rc.racah_second_norm_sq(nu, BETA2, N) if nu == mu else ZERO
            assert s == expect


def test_dual_then_reflect_lands_in_second_family():
    N, d = 4, 2
    for nu in kraw_grid(d, N):
        for x in rc.lattice_points(d, N):
            xt2, nut2, bt2 = rc.dual2_map(x, nu, BETA2, N)
            # the closed form of conj_map after dual_map
            xx = (0,) + x + (N,)
            assert xt2 == tuple(sum(nu[:j]) for j in range(1, d + 1))
            assert nut2 == tuple(xx[j + 1] - xx[j] for j in range(1, d + 1))
            assert bt2 == tuple(BETA2[j + 1] - BETA2[0] - 1 for j in range(d + 1)) + (-2 * N - BETA2[0],)
            xt, nut, bt = rc.dual_map(x, nu, BETA2, N)
            assert second_by_product(nut2, xt2, bt2, N) == rc.racah_multi(nut, xt, bt, N)


def test_one_variable_bridge():
    N = 5
    beta = tuple(R(i + 1, 3) + 2 * i for i in range(3))  # d = 1
    a, b, c, dlt = rc.param_bridge_1d(beta, N)
    for n in range(N + 1):
        for x in range(N + 1):
            pref = (
                pochhammer(beta[1] - beta[0], n)
                * pochhammer(beta[2] + N, n)
                * pochhammer(R(-N), n)
            )
            lhs = rc.racah_multi((n,), (x,), beta, N)
            assert lhs == pref * rc.racah_1d(n, x, a, b, c, dlt)


def test_norm_closed_form_d3_spot():
    N = 3
    grid = rc.lattice_points(3, N)
    weights = [rc.racah_weight_multi(x, BETA3, N) for x in grid]
    for nu in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1)]:
        vals = [rc.racah_multi(nu, x, BETA3, N) for x in grid]
        s = sum((w * v * v for w, v in zip(weights, vals)), ZERO)
        assert s == rc.racah_norm_sq(nu, BETA3, N)


def second_norm_by_summation(nu, beta, N):
    """||R'_nu||^2 summed over the whole lattice: the oracle for the closed form."""
    total = ZERO
    for x in rc.lattice_points(len(nu), N):
        v = second_by_product(nu, x, beta, N)
        total += rc.racah_weight_multi(x, beta, N) * v * v
    return total


def seeded_beta(rng, d):
    """Increasing non-integer beta_0 < ... < beta_{d+1} with sevenths as steps."""
    beta = [R(7 * rng.randint(0, 3) + rng.randint(1, 6), 7)]
    for _ in range(d + 1):
        beta.append(beta[-1] + R(7 * rng.randint(0, 3) + rng.randint(1, 6), 7))
    return tuple(beta)


def test_second_family_matches_its_product_formula_seeded():
    rng = random.Random(20261019)
    for d in range(1, 4):
        for N in range(5):
            beta = seeded_beta(rng, d)
            for nu in kraw_grid(d, N):
                for x in rc.lattice_points(d, N):
                    assert rc.racah_second(nu, x, beta, N) == second_by_product(nu, x, beta, N)


def test_second_norm_closed_form_matches_summation_seeded():
    rng = random.Random(20261018)
    for d in range(1, 5):
        for N in range(1, 4):
            beta = seeded_beta(rng, d)
            for nu in kraw_grid(d, N):
                assert rc.racah_second_norm_sq(nu, beta, N) == second_norm_by_summation(nu, beta, N)


def test_second_norm_closed_form_matches_summation_cyclic_form3():
    # the beta that cc_cyclic_hat(form=3) passes to racah_second_norm_sq
    for d in (4, 5):
        kappa = tuple(R(1, i + 2) for i in range(d + 1))
        ksuf = lambda j: sum(kappa[j - 1:], ZERO)
        for n in (2, 3):
            beta = tuple(ksuf(d + 1 - j) + j for j in range(d)) + (-R(2 * n) - kappa[0],)
            for idx in kraw_grid(d - 1, n):
                assert rc.racah_second_norm_sq(idx, beta, n) == second_norm_by_summation(idx, beta, n)


def test_cyclic_form3_equals_form1_d6():
    d, n = 6, 2
    kappa = tuple(R(1, i + 2) for i in range(d + 1))
    order = enumerate_basis(d, n)
    for nu in order:
        for mu in order:
            q1 = cf.cc_cyclic_hat(nu, mu, kappa, n, form=1)
            q3 = cf.cc_cyclic_hat(nu, mu, kappa, n, form=3)
            assert (q3.sign, q3.radicand) == (q1.sign, q1.radicand)
