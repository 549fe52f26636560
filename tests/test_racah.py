import random

import pytest

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import folded_series, hyp_with_prefactor, over_lcm, pochhammer
from simplexconn import racah as rc
from simplexconn import closed_forms as cf
from simplexconn.discrete import kraw_grid
from simplexconn.simplex import enumerate_basis

from oracles import param_bridge_1d, value_or_error

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
    a, b, c, dlt = param_bridge_1d(beta, N)
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


# ---------------------------------------------------------------------------
# the integer cores against the rational bodies they replaced
# ---------------------------------------------------------------------------


def rational_multi(nu, x, beta, N):
    """R_nu(x; beta, N) with one rational hyp_with_prefactor per factor: the oracle for racah_multi."""
    d = len(nu)
    beta = [R(b) for b in beta]
    xx = [0] + list(x) + [N]
    val = ONE
    for j in range(1, d + 1):
        s = sum(nu[: j - 1])
        top = [R(nu[j - 1]) + 2 * s + beta[j + 1] - beta[0] - 1, R(s - xx[j]), R(s) + beta[j] + xx[j]]
        bottom = [R(2 * s) + beta[j] - beta[0], R(s) + beta[j + 1] + xx[j + 1], R(s - xx[j + 1])]
        val *= hyp_with_prefactor(top, bottom, nu[j - 1])
    return val


def rational_weight(x, beta, N):
    """The weight as one rational product over one rational denominator: the oracle for racah_weight_multi."""
    d = len(x)
    beta = [R(b) for b in beta]
    xx = [0] + list(x) + [N]
    num = pochhammer(beta[d + 1], xx[d] + N)
    den = pochhammer(beta[0] + 1, xx[1])
    for j in range(d + 1):
        gap = xx[j + 1] - xx[j]
        num *= pochhammer(beta[j + 1] - beta[j], gap)
        den *= pochhammer(ONE, gap)
    for j in range(1, d + 1):
        for t in range(xx[j - 1] + xx[j], xx[j] + xx[j + 1] + 1):
            if t != 2 * xx[j]:
                den *= beta[j] + t
    return num / den


def rational_norm_sq(nu, beta, N):
    """The closed squared norm with one rational Pochhammer per factor: the oracle for racah_norm_sq."""
    d = len(nu)
    beta = [R(b) for b in beta]
    n = sum(nu)
    val = (
        pochhammer(beta[d + 1], N + n)
        * pochhammer(R(-N), n)
        * pochhammer(R(-N) - beta[0], n)
        * pochhammer(R(2 * n) + beta[d + 1] - beta[0], N - n)
        / (pochhammer(ONE, N) * pochhammer(beta[0] + 1, N))
    )
    for k in range(1, d + 1):
        s_prev, s_cur = sum(nu[: k - 1]), sum(nu[:k])
        val *= (
            pochhammer(ONE, nu[k - 1])
            * pochhammer(beta[k + 1] - beta[k], nu[k - 1])
            * pochhammer(R(2 * s_prev) + beta[k] - beta[0], nu[k - 1])
            * pochhammer(R(s_cur + s_prev) + beta[k + 1] - beta[0] - 1, nu[k - 1])
        )
    return val


def rational_second_norm_sq(nu, beta, N):
    """The closed second norm over the rational oracles: the oracle for racah_second_norm_sq."""
    corner = (0,) * len(nu)
    x_c, nu_c, beta_c = rc.conj_map(corner, nu, beta, N)
    return rational_norm_sq(nu_c, beta_c, N) * rational_weight(corner, beta, N) / rational_weight(x_c, beta_c, N)


def mixed_beta(rng, d, integer_share):
    """beta with zero, negative-integer, positive-integer and (the rest) non-integer entries."""
    def entry():
        r = rng.random() / integer_share
        if r < 0.3:
            return R(0)
        if r < 0.7:
            return R(-rng.randint(1, 6))
        if r < 1:
            return R(rng.randint(1, 5))
        return R(rng.randint(-20, 20), rng.randint(2, 7))
    return tuple(entry() for _ in range(d + 2))


def compare_with_the_rational_bodies(beta, N):
    """Assert each public Racah function gives the rational body's value or error; the errors raised."""
    d = len(beta) - 2
    raised = set()
    pairs = [(rc.racah_weight_multi, rational_weight, (x,)) for x in rc.lattice_points(d, N)]
    for nu in kraw_grid(d, N):
        pairs += [(rc.racah_norm_sq, rational_norm_sq, (nu,)),
                  (rc.racah_second_norm_sq, rational_second_norm_sq, (nu,))]
        pairs += [(rc.racah_multi, rational_multi, (nu, x)) for x in rc.lattice_points(d, N)[::7]]
    for new, old, args in pairs:
        want = value_or_error(old, *args, beta, N)
        assert value_or_error(new, *args, beta, N) == want, (new.__name__, args, beta, N)
        if isinstance(want, type):
            raised.add((new.__name__, want.__name__))
    return raised


def test_cores_equal_the_rational_bodies_seeded():
    # non-integer entries mostly, with zeros and negative integers among them
    rng = random.Random(20261019)
    for d in range(1, 5):
        for N in range(6):
            for _ in range(3 if d < 4 else 1):
                compare_with_the_rational_bodies(mixed_beta(rng, d, 0.5), N)


def test_poles_raise_like_the_rational_bodies_seeded():
    # integer beta, most entries zero or negative: zeros in every kind of denominator
    rng = random.Random(20261020)
    raised = set()
    for d in range(1, 4):
        for N in range(1, 5):
            for _ in range(4):
                raised |= compare_with_the_rational_bodies(mixed_beta(rng, d, 1), N)
    assert raised == {(name, "ZeroDivisionError")
                      for name in ("racah_weight_multi", "racah_norm_sq", "racah_second_norm_sq")}


def test_second_norm_is_the_reflected_norm_times_the_corner_ratio_seeded():
    # conj_map sends R'_nu(x; beta) to R_{nu_c}(x_c; beta_c), and the weight ratio
    # w(x; beta) / w(x_c; beta_c) is (beta_{d+1})_{2N} / (beta_0 + 1)_{2N} at every point:
    # wherever the closed second norm has a value, it is the first norm at the reflection times that ratio
    rng = random.Random(20261021)
    values = 0
    for d in range(1, 5):
        for N in range(1, 5):
            betas = [seeded_beta(rng, d) for _ in range(2)]
            betas += [mixed_beta(rng, d, share) for share in (1, 2, 4) for _ in range(2)]
            for beta in betas:
                ratio = value_or_error(lambda: pochhammer(beta[d + 1], 2 * N) / pochhammer(beta[0] + 1, 2 * N))
                for nu in kraw_grid(d, N):
                    got = value_or_error(rc.racah_second_norm_sq, nu, beta, N)
                    if isinstance(got, type):
                        continue
                    _, nu_c, beta_c = rc.conj_map((0,) * d, nu, beta, N)
                    assert got == rc.racah_norm_sq(nu_c, beta_c, N) * ratio, (nu, beta, N)
                    values += 1
    assert values > 500


def test_racah_functions_check_the_length_of_beta():
    short, long = (R(1), R(2)), (R(1), R(2), R(3), R(4))
    for beta in (short, long):
        # the maps and the normalizer ran off the end of a short beta and truncated a long one
        for call in (lambda: rc.racah_multi((1,), (0,), beta, 2), lambda: rc.racah_weight_multi((0,), beta, 2),
                     lambda: rc.racah_norm_sq((1,), beta, 2), lambda: rc.racah_second_norm_sq((1,), beta, 2),
                     lambda: rc.dual_map((1,), (1,), beta, 2), lambda: rc.conj_map((1,), (1,), beta, 2),
                     lambda: rc.dual2_map((1,), (1,), beta, 2), lambda: rc.duality_normalizer((1,), beta, 2)):
            with pytest.raises(ValueError, match=f"^beta needs d \\+ 2 = 3 entries, got {len(beta)}$"):
                call()
    with pytest.raises(ValueError, match="nu and x need one length"):
        rc.racah_multi((1, 0), (0,), long, 2)


def test_maps_check_the_length_of_x():
    # both maps cut a long x and ran off the end of a short one
    for x in ((1,), (1, 0, 0)):
        for rmap in (rc.dual_map, rc.conj_map, rc.dual2_map):
            with pytest.raises(ValueError, match=f"^nu and x need one length, got 2 and {len(x)}$"):
                rmap(x, (1, 0), BETA2, 3)


def rational_duality_normalizer(nu, beta, N):
    """(-N)_{|nu|} (-N-beta_0)_{|nu|} prod_j (beta_{j+1}-beta_j)_{nu_j} from rational Pochhammer symbols."""
    n = sum(nu)
    val = pochhammer(R(-N), n) * pochhammer(R(-N) - beta[0], n)
    for j, m in enumerate(nu, 1):
        val *= pochhammer(beta[j + 1] - beta[j], m)
    return val


def test_duality_normalizer_equals_the_rational_product():
    rng = random.Random(24)
    for _ in range(300):
        d, N = rng.randint(1, 3), rng.randint(0, 5)
        nu = tuple(rng.randint(0, 2) for _ in range(d))
        beta = tuple(R(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for _ in range(d + 2))
        assert rc.duality_normalizer(nu, beta, N) == rational_duality_normalizer(nu, beta, N), (nu, beta, N)


def test_points_outside_the_lattice_raise_value_error():
    beta = (R(1, 2), R(3, 2), R(5, 2), R(7, 2))
    with pytest.raises(ValueError, match="k >= 0"):
        rc.racah_weight_multi((3, 1), beta, 2)
    with pytest.raises(ValueError, match="k >= 0"):
        rc.racah_norm_sq((2, 1), beta, 2)


def test_multi_core_stops_at_its_first_zero_factor(monkeypatch):
    # a vanishing value is (0, D^{3|nu|}), the denominator of every other x, and
    # no factor is summed after the first that is 0
    B, D = over_lcm(BETA3)
    totals = []

    def recorded(*args):
        out = folded_series(*args)
        totals.append(out[0])
        return out

    monkeypatch.setattr(rc, "folded_series", recorded)
    zeros = 0
    for nu in kraw_grid(3, 4):
        for x in rc.lattice_points(3, 4):
            totals.clear()
            num, den = rc.multi_core(nu, x, B, D, 4)
            assert den == D ** (3 * sum(nu)) and all(totals[:-1]), (nu, x)
            if num:
                assert len(totals) == len(nu), (nu, x)
            else:
                zeros += 1
                assert totals[-1] == 0, (nu, x)
    assert zeros > 0


def test_weight_raises_value_error_for_an_out_of_order_point_at_every_position():
    # 0 <= x_1 <= x_2 <= x_3 <= N = 4, broken between x_j and x_{j+1}, x_0 = 0 and x_4 = N
    for x in ((-1, 2, 3), (3, 2, 3), (1, 3, 2), (1, 2, 5)):
        with pytest.raises(ValueError, match="k >= 0"):
            rc.racah_weight_multi(x, BETA3, 4)
