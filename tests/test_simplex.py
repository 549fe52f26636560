import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from simplexconn import ballsphere as bs, closed_forms as cf, connection, discrete as ds, simplex
from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import over_lcm, pochhammer
from simplexconn.multipoly import SparsePoly, grevlex_key
from simplexconn.simplex import (
    Permutation,
    a_coeffs,
    all_permutations,
    enumerate_basis,
    inner_product_simplex,
    jacobi_1d,
    jacobi_simplex_basis,
    norm_A,
    simplex_moment,
)

from oracles import (leading_form, loop_basis, recurrence_jacobi_1d, recursive_basis, summed_a_coeffs, top_part,
                     unpacked, value_or_error)


def perms(m):
    return st.permutations(range(1, m + 1)).map(lambda t: Permutation(tuple(t)))


class TestPermutation:
    def test_from_cycles(self):
        tau = Permutation.from_cycles("(12)", 3)
        assert (tau(1), tau(2), tau(3)) == (2, 1, 3)
        tau = Permutation.from_cycles("(1 3)(2 4)", 4)
        assert [tau(i) for i in (1, 2, 3, 4)] == [3, 4, 1, 2]
        assert Permutation.from_cycles("e", 3).is_identity()
        for text, img in (("(1,3)", (3, 2, 1)), ("( 1 2 3 )", (2, 3, 1)), ("(12)(3)", (2, 1, 3))):
            assert Permutation.from_cycles(text, 3).img == img, text
        # a cycle holds digits only, optionally separated by spaces or commas
        for text in ("(1 a)", "(1 2x)", "(a)", "(1;2)"):
            with pytest.raises(ValueError, match=f"^bad cycle notation: {re.escape(repr(text))}$"):
                Permutation.from_cycles(text, 3)

    def test_cycle_repr_roundtrip(self):
        for tau in all_permutations(4):
            assert Permutation.from_cycles(repr(tau), 4) == tau

    @given(perms(4), perms(4), perms(4))
    @settings(max_examples=50, deadline=None)
    def test_group_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == Permutation.identity(4)
        assert a.inverse().inverse() == a

    @given(perms(3), perms(3))
    @settings(max_examples=30, deadline=None)
    def test_param_action_is_homomorphism(self, a, b):
        kappa = (R(1), R(2), R(3))
        assert (a * b).act_params(kappa) == b.act_params(a.act_params(kappa))

    def test_var_action_matches_barycentric_slots(self):
        # substituting x_i <- X_tau(i) with X = (x1, x2, 1 - x1 - x2)
        tau = Permutation.from_cycles("(13)", 3)
        x1 = SparsePoly.variable(2, 0)
        acted = tau.act_vars(x1)
        one = SparsePoly.constant(2, ONE)
        assert acted == one - x1 - SparsePoly.variable(2, 1)

    def test_reduced_word_is_a_shortest_product_of_adjacent_transpositions(self):
        for m in (1, 2, 3, 4, 5):
            for tau in all_permutations(m):
                prod = Permutation.identity(m)
                for a in tau.reduced_word():
                    prod = prod * Permutation.from_cycles(f"({a} {a + 1})", m)
                inversions = sum(
                    tau(i) > tau(j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                )
                assert prod == tau
                assert len(tau.reduced_word()) == inversions

    def test_reduced_word_minimizes_the_weight_of_low_letters(self):
        # sum(d - a_i) over the word; the minimum over all reduced words comes
        # from a recursion on right descents: tau = (tau s_a) s_a when tau(a) > tau(a+1)
        for m in (4, 5):
            d = m - 1
            least = {tuple(range(1, m + 1)): 0}

            def min_weight(img):
                if img not in least:
                    least[img] = min(
                        min_weight(img[: a - 1] + (img[a], img[a - 1]) + img[a + 1:]) + d - a
                        for a in range(1, m) if img[a - 1] > img[a]
                    )
                return least[img]

            for tau in all_permutations(m):
                assert sum(d - a for a in tau.reduced_word()) == min_weight(tau.img)

    @given(perms(3), perms(3))
    @settings(max_examples=30, deadline=None)
    def test_var_action_composition(self, a, b):
        p = SparsePoly.variable(2, 0) * SparsePoly.variable(2, 1)
        assert (a * b).act_vars(p) == a.act_vars(b.act_vars(p))


def test_enumerate_basis_counts_and_order():
    for d in range(1, 7):
        for n in range(9):
            assert len(enumerate_basis(d, n)) == comb(n + d - 1, n)
    # 2D convention: position j holds (n-j, j)
    assert enumerate_basis(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_enumerate_basis_is_sorted_grevlex_and_total_at_the_edges():
    for d in range(1, 5):
        for n in range(6):
            order = enumerate_basis(d, n)
            assert order == sorted(order, key=grevlex_key)
            assert len(set(order)) == len(order) and all(sum(nu) == n for nu in order)
    assert enumerate_basis(0, 0) == [()]
    assert enumerate_basis(0, 2) == [] and enumerate_basis(3, -1) == []


def test_enumerate_basis_equals_the_recursive_definition():
    # d = 0 and n = -1 are the edges: [()] at (0, 0), [] at d = 0 with n != 0 and at n < 0
    for d in range(7):
        for n in range(-1, 9):
            assert enumerate_basis(d, n) == recursive_basis(d, n), (d, n)


def test_enumerate_basis_returns_a_new_list_per_call():
    for d, n in ((0, 0), (1, 2), (3, 3)):
        first = enumerate_basis(d, n)
        first.append((9,) * d)
        first[0] = None
        assert enumerate_basis(d, n) == recursive_basis(d, n), (d, n)


def rational_moment(gamma, kappa):
    """prod_i (kappa_i+1)_{gamma_i} / (|kappa|+d+1)_{|gamma|} in rational Pochhammer symbols."""
    val = ONE
    for k, g in zip(kappa, gamma):
        val *= pochhammer(k + 1, g)
    return val / pochhammer(sum(kappa, ZERO) + len(kappa), sum(gamma))


def test_simplex_moment_dirichlet():
    kappa = (R(1, 2), R(1), R(3, 2))
    lam = sum(kappa) + 3
    for gamma in [(0, 0), (1, 0), (2, 3)]:
        expect = (
            pochhammer(kappa[0] + 1, gamma[0])
            * pochhammer(kappa[1] + 1, gamma[1])
            / pochhammer(lam, sum(gamma))
        )
        assert simplex_moment(gamma, kappa) == expect
    assert simplex_moment((0, 0), kappa) == ONE
    # gamma with d and with d + 1 parts, mixed denominators, kappa_i = -1 (a zero
    # factor) and kappa outside the domain, where |kappa| + d + 1 <= 0 can give a zero denominator
    rng = random.Random(33)
    kappas = [kappa, (R(-1), R(1, 3), R(2, 5)), (R(-1), R(-1), R(-1)), (R(-1), R(-1), R(-1), R(-1)),
              (R(-7, 3), R(1, 6), R(-1, 2))]
    kappas += [tuple(R(rng.randint(-3 * q, 3 * q), q) for q in (rng.randint(1, 12) for _ in range(m)))
               for m in (3, 3, 4, 4)]
    outcomes = set()
    for kappa in kappas:
        d = len(kappa) - 1
        for gamma in itertools.chain(*(itertools.product(range(3), repeat=parts) for parts in (d, d + 1))):
            want = value_or_error(rational_moment, gamma, kappa)
            assert value_or_error(simplex_moment, gamma, kappa) == want, (gamma, kappa)
            outcomes.add("zero" if want == 0 else want if isinstance(want, type) else "nonzero")
    assert outcomes == {"zero", "nonzero", ZeroDivisionError}


@pytest.mark.parametrize("gamma, kappa", [((1, 1, 1), (0, 0)), ((1,), (0, 0, 0)), ((), (1, 2, 3)),
                                          ((1, 0, 2, 0), (R(1, 2), 1))])
def test_simplex_moment_rejects_gamma_of_the_wrong_length(gamma, kappa):
    # every part of gamma pairs with an entry of kappa, the last of which may be left out
    with pytest.raises(ValueError, match=f"gamma has {len(gamma)} parts and kappa {len(kappa)} entries"):
        simplex_moment(gamma, kappa)


def test_jacobi_1d_value_at_one():
    # coefficients in z of P_n(2z - 1): P_n(1) = (a+1)_n / n! at z = 1,
    # P_n(-1) = (-1)^n (b+1)_n / n! at z = 0
    for n in range(6):
        a, b = R(1, 2), R(5, 3)
        coeffs = jacobi_1d(n, a, b)
        value = sum(coeffs)
        assert value == pochhammer(a + 1, n) / pochhammer(ONE, n)
        assert coeffs[0] == (-1) ** n * pochhammer(b + 1, n) / pochhammer(ONE, n)


def test_jacobi_1d_orthogonality_via_moments():
    # orthogonality on [0,1] against t^b (1-t)^a realized through the d=1 simplex
    a, b = R(2), R(1, 2)
    kappa1 = (b, a)
    for n in range(4):
        for m in range(n):
            # build polynomials in the single simplex variable t
            def poly(k):
                t = SparsePoly.variable(1, 0)
                coeffs = jacobi_1d(k, a, b)
                out = SparsePoly.zero(1)
                power = SparsePoly.constant(1, ONE)
                for c in coeffs:
                    out = out + power.scale(c)
                    power = power * t
                return out

            assert inner_product_simplex(poly(n), poly(m), kappa1) == ZERO


def test_basis_orthogonality_and_norms_d2():
    kappa = (R(1, 2), R(1, 3), R(2))
    for n in range(4):
        basis = [(nu, jacobi_simplex_basis(nu, kappa)) for nu in enumerate_basis(2, n)]
        for i, (nu, p) in enumerate(basis):
            assert inner_product_simplex(p, p, kappa) == norm_A(nu, kappa)
            for mu, q in basis[i + 1:]:
                assert inner_product_simplex(p, q, kappa) == ZERO


def test_norm_where_kappa_j_plus_a_j_is_minus_one():
    # kappa_d + a_d + 1 = kappa_d + kappa_{d+1} + 1 = 0: a removable 0/0 in the product form
    for kappa in ((R(-1, 2), R(-1, 2)), (R(1, 3), R(-1, 2), R(-1, 2))):
        d = len(kappa) - 1
        for n in range(4):
            for nu in enumerate_basis(d, n):
                p = jacobi_simplex_basis(nu, kappa)
                assert inner_product_simplex(p, p, kappa) == norm_A(nu, kappa)


def assert_orthogonal_across_degrees(kappa, degrees):
    d = len(kappa) - 1
    elems = [
        (nu, jacobi_simplex_basis(nu, kappa))
        for n in range(degrees)
        for nu in enumerate_basis(d, n)
    ]
    for i, (nu, p) in enumerate(elems):
        for mu, q in elems[i + 1:]:
            expected = norm_A(nu, kappa) if nu == mu else ZERO
            assert inner_product_simplex(p, q, kappa) == expected


def test_basis_orthogonality_across_degrees_d3():
    assert_orthogonal_across_degrees((ZERO, R(1, 2), R(1), R(3, 2)), 3)


def test_basis_orthogonality_across_degrees_d4():
    # P_mu is orthogonal to every polynomial of lower degree: the Gram method rests on it
    assert_orthogonal_across_degrees((R(1, 3), ZERO, R(1, 2), R(-1, 2), R(2)), 3)


def seeded_kappas(d, rng):
    """Points in the domain kappa > -1: zeros, integers, (-1/2)^{d+1}, kappa_d + kappa_{d+1} = -1
    (the removable 0/0 of norm_A), generic, and seeded entries with denominators up to 30."""
    return [
        (ZERO,) * (d + 1),
        tuple(R(j % 3) for j in range(d + 1)),
        (R(-1, 2),) * (d + 1),
        tuple(R(1, j + 3) for j in range(d - 1)) + (R(-1, 3), R(-2, 3)),
        tuple(R(j + 1, j + 4) for j in range(d + 1)),
    ] + [tuple(R(rng.randint(1 - q, 2 * q), q) for q in (rng.randint(1, 30) for _ in range(d + 1)))
         for _ in range(2)]


def test_jacobi_1d_equals_the_recurrence():
    params = (ZERO, R(1, 2), R(-1, 2), R(-2, 3), R(5, 3), R(7, 11), R(4))
    for n in range(7):
        for a in params:
            for b in params:
                assert jacobi_1d(n, a, b) == recurrence_jacobi_1d(n, a, b), (n, a, b)


def test_jacobi_1d_is_the_polynomial_limit_outside_the_domain():
    # each coefficient is a polynomial of degree <= n in b, and the recurrence
    # divides by b + k: at b = -1 it raises, while jacobi_1d gives the value of
    # that polynomial, here interpolated from the recurrence at n + 1 other b
    n, a, at = 3, R(1, 2), R(-1)
    with pytest.raises(ZeroDivisionError):
        recurrence_jacobi_1d(n, a, at)
    nodes = [R(i, 2) for i in range(n + 1)]
    weights = [ONE] * len(nodes)
    for i, bi in enumerate(nodes):
        for bj in nodes[:i] + nodes[i + 1:]:
            weights[i] *= (at - bj) / (bi - bj)
    values = [recurrence_jacobi_1d(n, a, b) for b in nodes]
    limit = [sum((w * v[k] for w, v in zip(weights, values)), ZERO) for k in range(n + 1)]
    assert jacobi_1d(n, a, at) == limit == [ZERO, R(7, 2), R(-63, 4), R(231, 16)]


def test_basis_and_leading_form_equal_the_rational_loop():
    # every tau at d <= 3, every fifth at d = 4
    rng = random.Random(3)
    for d in range(1, 5):
        for kappa in seeded_kappas(d, rng):
            for n in range(4 if d < 4 else 3):
                for nu in enumerate_basis(d, n):
                    assert a_coeffs(nu, kappa) == summed_a_coeffs(nu, kappa)
                    p = loop_basis(nu, kappa)
                    assert jacobi_simplex_basis(nu, kappa) == p
                    lead = leading_form(nu, kappa)
                    assert lead == top_part(p, n) and not lead.is_zero()
                    assert {type(c) for c in lead.terms.values()} == {type(ONE)}
                    for tau in all_permutations(d + 1)[:: 5 if d > 3 else 1]:
                        assert leading_form(nu, kappa, tau) == top_part(tau.act_vars(p), n)


def test_batched_product_equals_the_single_product_and_the_rational_loop():
    # the factors and suffix products one call shares between its nu change no
    # form: at one = 1 the basis, tau-acted, and at one = 0 its leading form
    rng = random.Random(27)
    for d in range(2, 5):
        kappa = tuple(R(rng.randint(1 - q, 2 * q), q) for q in (rng.randint(1, 30) for _ in range(d + 1)))
        K, D = over_lcm(kappa)
        for tau in [None] + rng.sample(all_permutations(d + 1), 3):
            for n in range(4):
                order = enumerate_basis(d, n)
                loops = [loop_basis(nu, kappa) for nu in order]
                if tau is not None:
                    loops = [tau.act_vars(p) for p in loops]
                for one in (0, 1):
                    batch = simplex._product_cores(order, K, D, tau, one)
                    assert batch == [simplex._product_cores([nu], K, D, tau, one)[0] for nu in order]
                    for nu, (terms, den), p in zip(order, batch, loops):
                        assert all(terms.values()), (nu, tau, one)
                        want = p if one else top_part(p, n)
                        assert unpacked(terms, den, d, n) == want, (nu, tau, one)


def test_leading_forms_multiply_no_empty_form(monkeypatch):
    # at one = 0, hom_1 = 0: factor 1 is c_n x^n, and no Horner step multiplies
    # by the empty hom_1; the forms equal the rational loop's top parts
    operands = []

    def spy(p, q, combine):
        operands.append((len(p), len(q)))
        return multiply(p, q, combine)

    multiply = simplex.mul_terms
    monkeypatch.setattr(simplex, "mul_terms", spy)
    kappa = (R(1, 2), R(1, 3), R(2, 5), R(3, 7))
    K, D = over_lcm(kappa)
    for n in (3, 6):
        order = enumerate_basis(3, n)
        for tau in [None] + all_permutations(4):
            operands.clear()
            rows = simplex.leading_cores(order, K, D, tau)
            assert operands and all(p and q for p, q in operands), (n, tau)
            if n == 3:
                for nu, (row, den) in zip(order, rows):
                    want = top_part(loop_basis(nu, kappa, tau), n)
                    assert {gamma: R(v, den) for gamma, v in zip(order, row) if v} == want.terms, (nu, tau)


def test_packed_keys_do_not_carry_at_the_largest_exponent():
    # base max(n, 1) + 1 holds every exponent of a degree-n form in one digit: x_1^n
    # and x_d^n, from nu = (n, 0, ..., 0) and (0, ..., 0, n), and the forms in which
    # slot d + 1, which holds every variable, stands in each place, read back digit by
    # digit equal the rational loop, whole and top part
    for d in range(1, 6):
        kappa = tuple(R(j + 1, j + 3) for j in range(d + 1))
        K, D = over_lcm(kappa)
        taus = [None] + [Permutation.from_cycles(f"({p} {d + 1})", d + 1) for p in range(1, d + 1)]
        for n in range(7):
            ends = {(n,) + (0,) * (d - 1), (0,) * (d - 1) + (n,)}
            for nu in sorted(ends):
                for tau in taus:
                    p = loop_basis(nu, kappa, tau)
                    for one in (0, 1):
                        [(terms, den)] = simplex._product_cores([nu], K, D, tau, one)
                        want = p if one else top_part(p, n)
                        assert unpacked(terms, den, d, n) == want and not want.is_zero(), (nu, tau, one)


def test_leading_cores_rows_follow_the_order_given():
    # the rows, and the entries of each, are in the order of the multi-indices given;
    # a list that misses one, repeats one or mixes degrees raises ValueError
    K, D = over_lcm((R(1, 2), R(1, 3), R(2)))
    order = enumerate_basis(2, 3)
    tau = Permutation.from_cycles("(13)", 3)
    forward = simplex.leading_cores(order, K, D, tau)
    backward = simplex.leading_cores(order[::-1], K, D, tau)
    assert backward == [(row[::-1], den) for row, den in forward[::-1]]
    for bad in (order[:-1], order + order[:1], order[:-1] + [(1, 1)], [(1, 1), (0, 3)]):
        with pytest.raises(ValueError, match="each multi-index of degree"):
            simplex.leading_cores(bad, K, D)


def test_the_rational_loop_over_permuted_slots_is_the_acted_basis():
    rng = random.Random(38)
    for d in (1, 2, 3):
        kappa = tuple(R(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(d + 1))
        for n in range(4):
            for nu in enumerate_basis(d, n):
                for tau in all_permutations(d + 1):
                    assert loop_basis(nu, kappa, tau) == tau.act_vars(loop_basis(nu, kappa)), (nu, tau)


def rational_norm_A(nu, kappa):
    """norm_A as a product of rational Pochhammer symbols, one division each."""
    d = len(nu)
    kappa = [R(k) for k in kappa]
    aj = summed_a_coeffs(nu, kappa)
    total = sum(kappa, ZERO) + d + 1
    val = ONE / pochhammer(total, 2 * sum(nu))
    for j in range(d):
        k, a, n = kappa[j], aj[j], nu[j]
        val *= pochhammer(k + a + n + 1, n) * pochhammer(k + 1, n) * pochhammer(a + 1, n) / pochhammer(ONE, n)
    return val


def test_norm_equals_the_rational_product():
    # the domain points, then entries <= -1 too, where (lambda)_{2|nu|} can vanish
    rng = random.Random(5)
    raised = set()
    for d in range(1, 5):
        outside = [tuple(R(rng.randint(-7, 4), rng.choice((1, 2, 3))) for _ in range(d + 1)) for _ in range(60)]
        for kappa in seeded_kappas(d, rng) + outside:
            for n in range(5 if d < 4 else 4):
                for nu in enumerate_basis(d, n):
                    want = value_or_error(rational_norm_A, nu, kappa)
                    got = value_or_error(norm_A, nu, kappa)
                    assert got == want and type(got) is type(want), (nu, kappa)
                    if isinstance(want, type):
                        raised.add(want.__name__)
    assert raised == {"ZeroDivisionError"}
    # zip would truncate: a kappa without one entry per slot of nu raises, never returns a value
    for nu, kappa in (((1, 1, 1), (R(1, 2),) * 3), ((1, 1), (R(1, 2),) * 4)):
        with pytest.raises(ValueError, match=f"needs {len(nu) + 1} kappa entries, got {len(kappa)}"):
            norm_A(nu, kappa)


def test_a_coeffs_checks_the_length_of_kappa():
    # a_core slices kappa, so a long one was cut: (1, 0) at four kappa entries gave [296/105, 52/35]
    for nu, kappa in (((1, 0), (R(1, 2), R(1, 3), R(1, 5), R(2, 7))), ((1, 1, 1), (R(1, 2),) * 3)):
        with pytest.raises(ValueError, match=f"needs {len(nu) + 1} kappa entries, got {len(kappa)}"):
            a_coeffs(nu, kappa)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leading_form_is_triangular_in_basis_order(data):
    # gram_connection back-substitutes on this: x^gamma only for gamma at or
    # before nu in enumerate_basis order, and a nonzero x^nu coefficient
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(0, 3), label="n")
    kappa = [
        R(q.numerator, q.denominator)
        for q in data.draw(
            st.lists(st.fractions(Fraction(-5, 6), 3, max_denominator=6), min_size=d + 1, max_size=d + 1),
            label="kappa",
        )
    ]
    if data.draw(st.booleans(), label="kappa_d + kappa_{d+1} = -1"):
        q = data.draw(st.fractions(Fraction(-5, 6), Fraction(-1, 6), max_denominator=6), label="kappa_d")
        kappa[d - 1], kappa[d] = R(q.numerator, q.denominator), R(-q.numerator - q.denominator, q.denominator)
    order = enumerate_basis(d, n)
    for i, nu in enumerate(order):
        terms = leading_form(nu, kappa).terms
        assert terms.get(nu, ZERO) != 0
        assert {order.index(gamma) for gamma in terms} <= set(range(i + 1))


# the kappa-domain rule of the simplex module docstring, at kappa_1 = -3/2 and |rho| = 5/4
OUTSIDE = (R(-3, 2), R(1, 2), R(1))
OUTSIDE4 = OUTSIDE + (R(1, 3),)
RHO_OUTSIDE = (R(3, 4), R(1, 2))


def formula_calls():
    k, nu, tau = OUTSIDE, (1, 1), Permutation.from_cycles("(12)", 3)
    ball = bs.q_ball((1, 0), (1, 0), k)
    sphere = bs.sphere_basis((1, 0), (1, 0, 0), k, 3)
    return {
        "jacobi_1d": lambda: jacobi_1d(2, k[1], k[0]),
        "a_coeffs": lambda: a_coeffs(nu, k),
        "jacobi_simplex_basis": lambda: jacobi_simplex_basis(nu, k),
        "norm_A": lambda: norm_A(nu, k),
        "simplex_moment": lambda: simplex_moment((1, 2), k),
        "inner_product_simplex": lambda: inner_product_simplex(jacobi_simplex_basis(nu, k), ball.core, k),
        "verify_sum_identity": lambda: cf.verify_sum_identity(1, 1, k, 2),
        "hahn_multi": lambda: ds.hahn_multi(nu, (1, 0, 1), k, 2),
        "p_factor": lambda: ds.p_factor(nu, k),
        "hahn_norm_B": lambda: ds.hahn_norm_B(nu, k, 2),
        "hahn_from_generating": lambda: ds.hahn_from_generating(nu, k, 2),
        "q_ball": lambda: ball,
        "ball_norm": lambda: bs.ball_norm((1, 0), (1, 0), k),
        "sphere_basis": lambda: sphere,
        "sphere_inner_product": lambda: bs.sphere_inner_product(sphere, sphere, k),
        "kraw_multi": lambda: ds.kraw_multi(nu, (1, 0), RHO_OUTSIDE, 2),
        "kraw_weight": lambda: ds.kraw_weight((1, 0), RHO_OUTSIDE, 2),
        "kraw_norm_C": lambda: ds.kraw_norm_C(nu, RHO_OUTSIDE, 2),
        "kraw_dual": lambda: ds.kraw_dual((1, 0), nu, RHO_OUTSIDE),
        "tau_rho": lambda: ds.tau_rho(tau, RHO_OUTSIDE),
        "hahn_kraw_scaled": lambda: ds.hahn_kraw_scaled(nu, (1, 0), RHO_OUTSIDE, 2, R(3)),
    }


def builder_calls():
    k, tau = OUTSIDE, Permutation.from_cycles("(12)", 3)
    return {
        "connection_matrix": lambda: cf.connection_matrix(tau, k, 1),
        "cc_3d_matrix": lambda: cf.cc_3d_matrix(Permutation.from_cycles("(13)", 4), OUTSIDE4, 1),
        "gram_connection": lambda: connection.gram_connection(tau, k, 1),
        "gram_connections": lambda: list(connection.gram_connections([tau], k, 1)),
        "normalize": lambda: connection.normalize(cf.connection_matrix(tau, (1, 1, 1), 1), tau, k),
        "cc_cyclic_hat": lambda: cf.cc_cyclic_hat((1, 0), (0, 1), k, 1),
        "cc_coset_hat": lambda: cf.cc_coset_hat(Permutation.from_cycles("(123)", 3), (1, 0), (0, 1), k, 1),
        "cc_adjacent_hat": lambda: cf.cc_adjacent_hat((1, 0), (0, 1), k, 1, 1),
        "cc_3d_hat13_terms": lambda: cf.cc_3d_hat13_terms((1, 0, 0), (0, 1, 0), OUTSIDE4, 1),
        "hahn_connection": lambda: ds.hahn_connection(tau, k, 2, 1),
        "ball_connection": lambda: bs.ball_connection(Permutation((2, 1)), k, 1),
    }


def test_formula_functions_evaluate_outside_the_domain_and_builders_check_kappa():
    for name, call in formula_calls().items():
        assert call() is not None, name
    for name, call in builder_calls().items():
        try:
            call()
        except ValueError as exc:
            assert str(exc) == "kappa needs at least 2 entries, each > -1", name
        else:
            pytest.fail(f"{name} accepted kappa outside the domain")
