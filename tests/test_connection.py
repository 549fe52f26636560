import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simplexconn import ballsphere, cli, connection, multipoly, racah as rc, simplex
from simplexconn.backend import R, ZERO, ONE, rat_str
from simplexconn.discrete import kraw_grid
from simplexconn.exact_arith import over_lcm
from simplexconn.multipoly import SparsePoly
from simplexconn.simplex import (
    Permutation,
    all_permutations,
    enumerate_basis,
    inner_product_simplex,
    jacobi_simplex_basis,
    norm_A,
)
from simplexconn.closed_forms import connection_matrix
from simplexconn.connection import (
    ConnMatrix,
    clear_caches,
    first_difference,
    gram_connection,
    normalize,
    verify_column_orthogonality,
    verify_convolution,
    verify_inverse_identity,
    verify_row_orthogonality,
    weighted_orthogonal,
)

from oracles import ball_gram, loop_basis, module_caches, top_part

KAPPA = (R(1, 2), R(1, 3), R(2))


def norms(order, tau, kappa):
    """The verifiers' norm lists: A_nu(tau.kappa) and A_mu(kappa) for nu, mu in order."""
    tk = tau.act_params(kappa)
    return [norm_A(nu, tk) for nu in order], [norm_A(mu, kappa) for mu in order]


def definition_gram(tau, kappa, n):
    """Oracle for small sizes: <tau.P_nu^{tau.kappa}, P_mu^kappa> / A_mu(kappa) from full products."""
    tk = tau.act_params(kappa)
    order = enumerate_basis(tau.m - 1, n)
    targets = [(jacobi_simplex_basis(mu, kappa), norm_A(mu, kappa)) for mu in order]
    return tuple(
        tuple(inner_product_simplex(tau.act_vars(jacobi_simplex_basis(nu, tk)), p, kappa) / a for p, a in targets)
        for nu in order
    )


def test_identity_permutation_gives_identity_matrix():
    tau = Permutation.identity(3)
    for n in (1, 2, 3):
        size = len(enumerate_basis(2, n))
        assert gram_connection(tau, KAPPA, n).int_rows == tuple(
            (tuple(int(i == j) for j in range(size)), 1) for i in range(size))


def test_known_swap_matrix_degree_one():
    # frozen oracle: degree-1 swap of the first two parameters at kappa = 0
    tau = Permutation.from_cycles("(12)", 3)
    mat = gram_connection(tau, (ZERO, ZERO, ZERO), 1)
    assert [[rat_str(c) for c in row] for row in mat.rows] == [
        ["-1/2", "3/2"],
        ["1/2", "1/2"],
    ]


def test_row_and_column_orthogonality_all_s3():
    for tau in all_permutations(3):
        for n in (2, 3):
            mat = gram_connection(tau, KAPPA, n)
            assert verify_row_orthogonality(mat, *norms(mat.order, tau, KAPPA)) is None
            assert verify_column_orthogonality(mat, *norms(mat.order, tau, KAPPA)) is None


def test_inverse_identity_all_s3():
    for tau in all_permutations(3):
        inv = tau.inverse()
        mat_at_invk = gram_connection(tau, inv.act_params(KAPPA), 3)
        inv_mat = gram_connection(inv, KAPPA, 3)
        A_src, A_tgt = norms(inv_mat.order, inv, KAPPA)
        assert verify_inverse_identity(mat_at_invk, inv_mat, A_src, A_tgt) is None
        # one entry of C^tau(tau^-1.kappa) changed: the first failing (nu, mu) and both sides, as the rational oracle
        rows = [list(row) for row in mat_at_invk.rows]
        rows[1][3] += R(1, 3)
        bad = ConnMatrix(mat_at_invk.d, mat_at_invk.n, rows, mat_at_invk.order)
        got = verify_inverse_identity(bad, inv_mat, A_src, A_tgt)
        assert got is not None and got == rational_inverse(bad, inv_mat, A_src, A_tgt)
        assert got[:2] == (inv_mat.order[3], inv_mat.order[1])


def test_convolution_all_pairs_s3():
    for t1 in all_permutations(3):
        for t2 in all_permutations(3):
            prod = t1 * t2
            lhs = gram_connection(prod, KAPPA, 2)
            m2 = gram_connection(t2, t1.act_params(KAPPA), 2)
            m1 = gram_connection(t1, KAPPA, 2)
            assert verify_convolution(lhs, m2, m1) is None


def test_verifiers_name_the_first_failing_entry_and_both_sides():
    # one changed entry of C^(12)(kappa) at n = 1: each verifier returns (nu, mu, lhs, rhs)
    tau = Permutation.from_cycles("(12)", 3)
    good = gram_connection(tau, KAPPA, 1)
    rows = [list(row) for row in good.rows]
    rows[0][1] += 1
    bad = ConnMatrix(good.d, good.n, rows, good.order)
    (a0, a1), (b0, b1) = A_src, A_tgt = norms(good.order, tau, KAPPA)
    assert verify_row_orthogonality(good, A_src, A_tgt) is None
    assert verify_row_orthogonality(bad, A_src, A_tgt) == (
        (1, 0), (1, 0), rows[0][0] ** 2 * b0 + rows[0][1] ** 2 * b1, a0)
    assert verify_column_orthogonality(good, A_src, A_tgt) is None
    assert verify_column_orthogonality(bad, A_src, A_tgt) == (
        (1, 0), (0, 1), rows[0][0] * rows[0][1] / a0 + rows[1][0] * rows[1][1] / a1, ZERO)
    # (12) is its own inverse, so the inverse identity reads C^(12) at (12).kappa
    at_inverse = gram_connection(tau, tau.act_params(KAPPA), 1)
    assert verify_inverse_identity(at_inverse, good, A_src, A_tgt) is None
    assert verify_inverse_identity(at_inverse, bad, A_src, A_tgt) == (
        (1, 0), (0, 1), rows[0][1], a0 / b1 * at_inverse.rows[1][0])
    product = good.matmul(good)
    assert verify_convolution(product, good, good) is None
    assert verify_convolution(product, good, bad) == (
        (1, 0), (0, 1), product.rows[0][1], good.matmul(bad).rows[0][1])


def test_normalized_matrix_is_orthogonal():
    # rows of the normalized matrix have unit length and are orthogonal:
    # sum_w chat[i][w]^2 = 1 and cross rows cancel in the squarefree sense
    tau = Permutation.from_cycles("(123)", 3)
    n = 3
    mat = gram_connection(tau, KAPPA, n)
    hat = normalize(mat, tau, KAPPA)
    tk = tau.act_params(KAPPA)
    for i, nu in enumerate(mat.order):
        total = sum((q.square() * q.sign * q.sign for q in hat[i]), ZERO)
        # recompute exactly: sum c^2 * A_mu(kappa) / A_nu(tau kappa)
        direct = sum(
            (
                mat.rows[i][j] ** 2 * norm_A(mu, KAPPA)
                for j, mu in enumerate(mat.order)
            ),
            ZERO,
        ) / norm_A(nu, tk)
        assert total == direct == ONE


def test_matmul_against_convolution():
    t1 = Permutation.from_cycles("(12)", 3)
    t2 = Permutation.from_cycles("(23)", 3)
    prod = t1 * t2
    lhs = gram_connection(prod, KAPPA, 2)
    rhs = gram_connection(t2, t1.act_params(KAPPA), 2).matmul(
        gram_connection(t1, KAPPA, 2)
    )
    assert lhs == rhs


def test_random_convolutions_s4():
    rng = random.Random(11)
    kappa = (R(1, 3), R(1, 2), R(1), R(5, 2))
    perms = all_permutations(4)
    for _ in range(6):
        t1, t2 = rng.choice(perms), rng.choice(perms)
        lhs = gram_connection(t1 * t2, kappa, 2)
        m2 = gram_connection(t2, t1.act_params(kappa), 2)
        m1 = gram_connection(t1, kappa, 2)
        assert verify_convolution(lhs, m2, m1) is None


def test_json_shape():
    tau = Permutation.from_cycles("(12)", 3)
    mat = gram_connection(tau, KAPPA, 1)
    obj = mat.to_json()
    assert obj["order"] == [[1, 0], [0, 1]]
    assert all(isinstance(c, str) for row in obj["entries"] for c in row)


def test_json_entries_are_the_reduced_ratios_of_int_rows():
    # negative and zero entries, an entry whose own ratio reduces, and a row over 1
    mat = ConnMatrix.from_int_rows(2, 2, [((-6, 0, 4), 9), ((3, -5, 0), 1), ((0, 14, -21), 7)])
    entries = [["-2/3", "0", "4/9"], ["3", "-5", "0"], ["0", "2", "-3"]]
    assert mat.to_json()["entries"] == [[rat_str(R(v, den)) for v in nums] for nums, den in mat.int_rows] == entries
    for tau in all_permutations(3):
        mat = gram_connection(tau, KAPPA, 3)
        assert mat.to_json()["entries"] == [[rat_str(v) for v in row] for row in mat.rows]


def test_clear_caches_clears_moments(capsys):
    # the package holds no state between calls: the scan finds the one *_CACHE
    # name that perfbench clears by name, and no moment, Gram, engine or CLI call fills it
    caches = module_caches()
    assert set(caches) == {"simplex._MOMENT_CACHE"}
    tau, kappa = Permutation.from_cycles("(12)", 3), (R(1, 7), R(2, 7), R(3, 7))
    p = jacobi_simplex_basis((1, 0), kappa)
    inner_product_simplex(p, p, kappa)
    ball_gram(Permutation.from_cycles("(12)", 2), (R(1, 2), R(1, 3), R(2, 7)), 2)
    assert ballsphere.example_910_check(4)["failures"] == []
    gram_connection(tau, kappa, 2)
    connection_matrix(tau, kappa, 2, method="closed")
    for suite in cli.SUITES:
        assert cli.main(["verify", "--suite", suite]) == 0, suite
    for family, params in (("simplex", ("--kappa", "1/2,1/3,2")), ("hahn", ("--kappa", "1/2,1/3,2", "--N", "3")),
                           ("kraw", ("--rho", "1/4,1/3", "--N", "3")), ("ball", ("--kappa", "1/2,1/3,2"))):
        assert cli.main(["connect", "--family", family, "--tau", "(12)", "--n", "2", *params]) == 0, family
    capsys.readouterr()
    assert {name: len(cache) for name, cache in caches.items() if cache} == {}
    clear_caches()  # perfbench's reset calls it by name


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_gram_equals_the_definition_and_the_closed_engine(data):
    d = data.draw(st.integers(2, 4), label="d")
    n = data.draw(st.integers(0, 2), label="n")
    tau = Permutation(data.draw(st.permutations(range(1, d + 2)), label="tau"))
    kappa = tuple(
        R(q.numerator, q.denominator)
        for q in data.draw(
            st.lists(st.fractions(Fraction(-5, 6), 3, max_denominator=6), min_size=d + 1, max_size=d + 1),
            label="kappa",
        )
    )
    rows = gram_connection(tau, kappa, n).rows
    assert rows == definition_gram(tau, kappa, n)
    assert rows == connection_matrix(tau, kappa, n, method="closed").rows


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_engine_satisfies_the_inverse_and_convolution_identities(data):
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(0, 2), label="n")
    t1, t2 = (Permutation(data.draw(st.permutations(range(1, d + 2)), label=label)) for label in ("t1", "t2"))
    kappa = tuple(
        R(q.numerator, q.denominator)
        for q in data.draw(
            st.lists(st.fractions(Fraction(-5, 6), 3, max_denominator=6), min_size=d + 1, max_size=d + 1),
            label="kappa",
        )
    )
    inv = t1.inverse()
    inv_mat = connection_matrix(inv, kappa, n)
    assert verify_inverse_identity(
        connection_matrix(t1, inv.act_params(kappa), n), inv_mat, *norms(inv_mat.order, inv, kappa)
    ) is None
    assert verify_convolution(
        connection_matrix(t1 * t2, kappa, n),
        connection_matrix(t2, t1.act_params(kappa), n),
        connection_matrix(t1, kappa, n),
    ) is None


def test_gram_builds_no_acted_polynomial_and_no_full_product(monkeypatch):
    # only the leading forms of tau.P_nu and of the shared target basis are
    # needed, and both are built and back-substituted in integers
    def full_product_path(*args):
        raise AssertionError("gram_connection built a tau-acted polynomial, a full product, a moment, a norm "
                             "or a rational polynomial product, Jacobi coefficient or Pochhammer symbol")

    def leading_product_only(order, K, D, tau, one):
        if one:
            full_product_path()
        return product(order, K, D, tau, one)

    product = simplex._product_cores
    monkeypatch.setattr(simplex, "_product_cores", leading_product_only)
    monkeypatch.setattr(Permutation, "act_vars", full_product_path)
    monkeypatch.setattr(SparsePoly, "__mul__", full_product_path)
    for name in ("inner_product_simplex", "simplex_moment", "jacobi_simplex_basis", "norm_A", "jacobi_1d", "a_coeffs"):
        monkeypatch.setattr(simplex, name, full_product_path)
        monkeypatch.setattr(connection, name, full_product_path, raising=False)
    for d in (2, 3, 4):
        kappa = tuple(R(j + 1, j + 3) for j in range(d + 1))
        for tau in random.Random(d).sample(all_permutations(d + 1), 4):
            assert gram_connection(tau, kappa, 2).d == d


# mul_terms calls that a product built one nu at a time makes in one
# gram_connection call with cold caches: 2 nu_j + 1 for each nu_j > 0 of each
# nu, in both bases; the batched product shares its factors and suffixes
PER_NU_PRODUCTS = {(3, 3): 156, (4, 2): 112}


@pytest.mark.parametrize("d, n", sorted(PER_NU_PRODUCTS))
def test_gram_builds_each_jacobi_factor_once_per_basis(monkeypatch, d, n):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(simplex, "jacobi_core", counted("jacobi_core", simplex.jacobi_core))
    mul = counted("mul_terms", multipoly.mul_terms)
    monkeypatch.setattr(simplex, "mul_terms", mul)
    monkeypatch.setattr(multipoly, "mul_terms", mul)
    gram_connection(Permutation.from_cycles("(12)", d + 1), tuple(R(j + 1, j + 3) for j in range(d + 1)), n)
    # factor j of P_nu depends on nu through (j, nu_j, |nu^{j+1}|) only
    keys = {(j, nu[j], sum(nu[j + 1:])) for nu in enumerate_basis(d, n) for j in range(d) if nu[j]}
    assert calls["jacobi_core"] == 2 * len(keys)
    assert calls["mul_terms"] < PER_NU_PRODUCTS[d, n]


def test_cached_target_rows_are_tuples_a_caller_cannot_change():
    kappa, n = (R(1, 2), R(1, 3), R(2), R(3, 5)), 2
    order = enumerate_basis(3, n)
    rows = connection._target_rows(order, *over_lcm(kappa))
    assert rows == connection._target_rows(order, *over_lcm(kappa))
    assert type(rows) is tuple and all(type(row) is tuple and type(row[0]) is tuple for row in rows)
    # each row is cut at its diagonal
    assert [len(nums) for nums, _ in rows] == list(range(1, len(order) + 1))
    with pytest.raises(TypeError):
        rows[0][0][0] = 0


def test_gram_connections_builds_one_target_triangle_for_all_its_taus(monkeypatch):
    # T depends on (kappa, n) only: one call builds it once, then yields for
    # each tau in order the matrix that gram_connection gives alone
    calls = Counter()

    def spy(order, K, D, tau=None):
        calls["target" if tau is None else "source"] += 1
        return leading_cores(order, K, D, tau)

    leading_cores = connection.leading_cores
    monkeypatch.setattr(connection, "leading_cores", spy)
    kappa4 = (R(1, 2), R(1, 3), R(2), R(3, 5))
    cases = [(all_permutations(4), kappa4, n) for n in range(4)]
    cases += [(random.Random(5).sample(all_permutations(5), 24), kappa4 + (R(-1, 4),), n) for n in range(3)]
    for taus, kappa, n in cases:
        expected = [gram_connection(tau, kappa, n) for tau in taus]
        calls.clear()
        assert list(connection.gram_connections(taus, kappa, n)) == expected, (kappa, n)
        assert calls == {"target": 1, "source": len(taus)}, (kappa, n)


@pytest.mark.parametrize("fault", ["zero pivot", "entry after the diagonal"])
def test_a_target_form_off_the_triangle_raises_naming_mu(monkeypatch, fault):
    order = enumerate_basis(2, 2)
    mu = order[1]

    def corrupted(forms_order, K, D, tau=None):
        forms = [(dict(terms), den) for terms, den in leading_cores(forms_order, K, D, tau)]
        if tau is None:
            terms = forms[1][0]
            if fault == "zero pivot":
                del terms[mu]
            else:
                terms[order[2]] = 1
        return forms

    leading_cores = connection.leading_cores
    monkeypatch.setattr(connection, "leading_cores", corrupted)
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"mu = {mu}")):
            gram_connection(Permutation.from_cycles("(12)", 3), KAPPA, 2)


def rational_gram(tau, kappa, n):
    """Rows of C^tau(kappa) from C T = L by back-substitution on the rational leading forms.

    The leading forms are the top parts of the rational basis loop of the test
    oracles, not the package's integer product.
    """
    tk = tau.act_params(kappa)
    order = enumerate_basis(tau.m - 1, n)
    targets = [top_part(loop_basis(mu, kappa), n).terms for mu in order]
    rows = []
    for nu in order:
        rest = dict(top_part(tau.act_vars(loop_basis(nu, tk)), n).terms)
        row = [ZERO] * len(order)
        for j in range(len(order) - 1, -1, -1):
            mu, terms = order[j], targets[j]
            c = rest.get(mu, ZERO) / terms[mu]
            if c:
                row[j] = c
                for gamma, t in terms.items():
                    rest[gamma] = rest.get(gamma, ZERO) - c * t
        rows.append(tuple(row))
    return tuple(rows)


def gram_kappas(d):
    """Zeros, integers, (-1/2)^{d+1}, kappa_d + kappa_{d+1} = -1, and seeded entries with denominators up to 30."""
    rng = random.Random(d)
    return [(ZERO,) * (d + 1), tuple(R(j % 3) for j in range(d + 1)), (R(-1, 2),) * (d + 1),
            tuple(R(1, j + 3) for j in range(d - 1)) + (R(-1, 3), R(-2, 3))] + [
        tuple(R(rng.randint(1 - q, 2 * q), q) for q in (rng.randint(1, 30) for _ in range(d + 1)))
        for _ in range(2)]


GRAM_GRID = [(m, kappa) for m in (3, 4, 5) for kappa in gram_kappas(m - 1)]


@pytest.mark.parametrize("m, kappa", GRAM_GRID, ids=[f"S{m}-{i % 6}" for i, (m, _) in enumerate(GRAM_GRID)])
def test_integer_gram_equals_the_rational_back_substitution(m, kappa):
    # all of S_3 at n <= 5, S_4 at n <= 3 and 24 tau in S_5 at n <= 2
    taus, degrees = {3: (all_permutations(3), 6), 4: (all_permutations(4), 4),
                     5: (random.Random(5).sample(all_permutations(5), 24), 3)}[m]
    for tau in taus:
        for n in range(degrees):
            rows = gram_connection(tau, kappa, n).rows
            assert rows == rational_gram(tau, kappa, n), (tau, kappa, n)
            assert {type(v) for row in rows for v in row} == {type(ONE)}


def test_gram_equals_the_rational_back_substitution_on_a_cyclic_coset_and_all_of_s4():
    # a seeded coset sigma <c> of the 5-cycle c at (4, 2), and every tau in S_4 at (3, 3)
    rng = random.Random(27)
    coset = [rng.choice(all_permutations(5))]
    for _ in range(4):
        coset.append(coset[-1] * Permutation.from_cycles("(12345)", 5))
    for taus, n in ((coset, 2), (all_permutations(4), 3)):
        kappa = tuple(R(rng.randint(1 - q, 2 * q), q) for q in (rng.randint(1, 30) for _ in range(taus[0].m)))
        for tau in taus:
            assert gram_connection(tau, kappa, n).rows == rational_gram(tau, kappa, n), (tau, kappa, n)


def test_gram_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
        gram_connection(Permutation.from_cycles("(12)", 3), KAPPA, -1)


@pytest.mark.parametrize("kappa", [(R(-1), ZERO, ZERO), (R(-3, 2), R(1, 2), R(1)), (R(1, 2),)])
def test_jacobi_domain_is_checked(kappa):
    # outside kappa_i > -1 the weight is not integrable and no orthogonal basis exists
    tau = Permutation((2, 1, 3))
    for build in (connection_matrix, gram_connection):
        with pytest.raises(ValueError, match="at least 2 entries, each > -1"):
            build(tau, kappa, 2)


def test_cached_gram_matrix_cannot_be_mutated():
    tau = Permutation.from_cycles("(12)", 3)
    # each builder returns a new matrix per call, equal to the last; none can be changed by its caller
    for build in (gram_connection, lambda *args: connection_matrix(*args, method="closed")):
        mat = build(tau, KAPPA, 2)
        before = [list(row) for row in mat.rows]
        with pytest.raises(TypeError):
            mat.rows[0][0] = ONE
        with pytest.raises(TypeError):
            mat.rows[0] = (ONE,) * len(mat.order)
        with pytest.raises(AttributeError):
            mat.order.reverse()
        again = build(tau, KAPPA, 2)
        assert again == mat
        assert [list(row) for row in again.rows] == before
        assert again.order == tuple(enumerate_basis(2, 2))
        assert again.entry((2, 0), (0, 2)) == before[0][2] == R(1927, 1216)
        assert type(again.rows) is tuple and all(type(row) is tuple for row in again.rows)
    # every constructor gives the same row type, so closed and Gram rows compare equal
    assert connection_matrix(tau, KAPPA, 2, method="closed").rows == gram_connection(tau, KAPPA, 2).rows


# ---------------------------------------------------------------------------
# the verifiers in integers, against their rational bodies
# ---------------------------------------------------------------------------


def rational_weighted_orthogonal(rows, weights, diagonal):
    """The check summed in rationals: each (i, j, lhs, rhs), i <= j, with lhs != rhs."""
    for i, f in enumerate(rows):
        for j in range(i, len(rows)):
            lhs = sum((a * b * w for a, b, w in zip(f, rows[j], weights)), ZERO)
            rhs = diagonal[i] if i == j else ZERO
            if lhs != rhs:
                yield i, j, lhs, rhs


def rational_first_at(order, failures):
    return next(((order[i], order[j], lhs, rhs) for i, j, lhs, rhs in failures), None)


def rational_first_difference(order, rows, oracle_rows):
    return next(((nu, mu, a, b) for nu, row, oracle_row in zip(order, rows, oracle_rows)
                 for mu, a, b in zip(order, row, oracle_row) if a != b), None)


def rational_matmul(a, b):
    size = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size)) for i in range(size))


def rational_inverse(mat_tau, mat_inv, A_src, A_tgt):
    expected = [[a / b * c for b, c in zip(A_tgt, column)] for a, column in zip(A_src, zip(*mat_tau.rows))]
    return rational_first_difference(mat_inv.order, mat_inv.rows, expected)


def variants(mat, rng):
    """mat, mat with one entry raised by 1, and mat with one nonzero entry's sign flipped."""
    rows = [list(row) for row in mat.rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    changed = [list(row) for row in rows]
    changed[i][j] += 1
    flipped = [list(row) for row in rows]
    i, j = rng.choice([(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c])
    flipped[i][j] = -flipped[i][j]
    return [mat] + [ConnMatrix(mat.d, mat.n, bad, mat.order) for bad in (changed, flipped)]


VERIFIER_GRID = [(3, all_permutations(3), 5), (4, all_permutations(4), 3),
                 (5, random.Random(55).sample(all_permutations(5), 12), 3)]


@pytest.mark.parametrize("m, taus, degrees", VERIFIER_GRID, ids=["S3", "S4", "S5"])
def test_integer_verifiers_equal_the_rational_oracles(m, taus, degrees):
    # all of S_3 at n <= 4, all of S_4 at n <= 2 and a seeded S_5 sample at n <= 2:
    # the same (nu, mu, lhs, rhs) on the good matrix, one changed entry and one flipped sign,
    # and the same transpose and rescale as on the rational rows
    rng = random.Random(m)
    kappa = tuple(R(rng.randint(-2, 9), rng.randint(3, 7)) for _ in range(m))
    for tau in taus:
        inv = tau.inverse()
        t1 = rng.choice(all_permutations(m))
        t2 = t1.inverse() * tau
        for n in range(degrees):
            mat = connection_matrix(tau, kappa, n)
            order = mat.order
            A_src, A_tgt = norms(order, tau, kappa)
            A_isrc, _ = norms(order, inv, kappa)
            at_inverse, inv_mat = connection_matrix(tau, inv.act_params(kappa), n), connection_matrix(inv, kappa, n)
            m2, m1 = connection_matrix(t2, t1.act_params(kappa), n), connection_matrix(t1, kappa, n)
            product = rational_matmul(m2.rows, m1.rows)
            # rescale factors: a zero, a negative and a positive entry in turn on the left, one sign flip on the right
            left = [ZERO if i % 3 == 0 else (-1) ** i / a for i, a in enumerate(A_src)]
            right = [-b if k == 1 else b for k, b in enumerate(A_tgt)]
            for v in variants(mat, rng):
                rows = v.rows
                transposed = tuple(zip(*rows))
                rescaled = tuple(tuple(x * c * y for c, y in zip(row, right)) for x, row in zip(left, rows))
                assert v.transpose().rows == transposed and v.transpose() == ConnMatrix(v.d, n, transposed, order)
                assert v.scaled(left, right).rows == rescaled
                assert v.scaled(left, right) == ConnMatrix(v.d, n, rescaled, order)
                assert verify_row_orthogonality(v, A_src, A_tgt) == rational_first_at(
                    order, rational_weighted_orthogonal(rows, A_tgt, A_src))
                assert verify_column_orthogonality(v, A_src, A_tgt) == rational_first_at(
                    order, rational_weighted_orthogonal(list(zip(*rows)), [ONE / a for a in A_src],
                                                        [ONE / a for a in A_tgt]))
                assert verify_convolution(v, m2, m1) == rational_first_difference(order, rows, product)
                assert v.matmul(m1).rows == rational_matmul(rows, m1.rows)
            for v in variants(inv_mat, rng):
                assert verify_inverse_identity(at_inverse, v, A_isrc, A_tgt) == rational_inverse(
                    at_inverse, v, A_isrc, A_tgt)
            for v in variants(at_inverse, rng):
                assert verify_inverse_identity(v, inv_mat, A_isrc, A_tgt) == rational_inverse(
                    v, inv_mat, A_isrc, A_tgt)


def test_racah_rows_equal_the_rational_oracle():
    # the Racah relation is one more input of the one integer check: integer rows over D^{3|nu|}
    d, N = 2, 3
    beta = (R(1, 2), R(5, 2), R(13, 2), R(27, 2))
    B, D = over_lcm(beta)
    grid, idxs = rc.lattice_points(d, N), kraw_grid(d, N)
    values = [[rc.racah_multi(nu, x, beta, N) for x in grid] for nu in idxs]
    weights = [rc.racah_weight_multi(x, beta, N) for x in grid]
    norms_sq = [rc.racah_norm_sq(nu, beta, N) + (i == 3) for i, nu in enumerate(idxs)]
    rows = [([rc.multi_core(nu, x, B, D, N)[0] for x in grid], D ** (3 * sum(nu))) for nu in idxs]
    got = list(weighted_orthogonal(rows, weights, norms_sq))
    assert got == list(rational_weighted_orthogonal(values, weights, norms_sq))
    assert [(i, j) for i, j, _, _ in got] == [(3, 3)]


def size_cases():
    tau = Permutation.from_cycles("(12)", 3)
    good = gram_connection(tau, KAPPA, 1)
    A_src, A_tgt = norms(good.order, tau, KAPPA)
    other = ConnMatrix(2, 2, [[1, 0, 5], [0, 1, 7], [9, 9, 9]])
    return {
        "first-difference-sizes": lambda: first_difference(ConnMatrix(2, 1, [[1, 0], [0, 1]]), other),
        "convolution-sizes": lambda: verify_convolution(other, good, good),
        "matmul-sizes": lambda: good.matmul(other),
        "inverse-sizes": lambda: verify_inverse_identity(good, other, A_src, A_tgt),
        "row-short-norms": lambda: verify_row_orthogonality(good, A_src[:1], A_tgt),
        "row-short-weights": lambda: verify_row_orthogonality(good, A_src, A_tgt[:1]),
        "column-short-norms": lambda: verify_column_orthogonality(good, A_src[:1], A_tgt),
        "column-long-weights": lambda: verify_column_orthogonality(good, A_src, A_tgt + A_tgt),
        "inverse-short-norms": lambda: verify_inverse_identity(good, good, A_src, A_tgt[:1]),
        "scaled-short-left": lambda: good.scaled(A_src[:1], A_tgt),
        "normalize-slots": lambda: normalize(good, Permutation.from_cycles("(12)", 4), KAPPA + (ONE,)),
        "weighted-short-row": lambda: list(weighted_orthogonal([((1, 0), 1), ((1,), 1)], A_tgt, A_src)),
        "matrix-short-row": lambda: ConnMatrix(2, 1, [[1, 0], [0]]),
        "matrix-missing-row": lambda: ConnMatrix(2, 1, [[1, 0]]),
    }


@pytest.mark.parametrize("case", list(size_cases()))
def test_verifiers_reject_mismatched_sizes(case):
    # zip would truncate: a size mismatch must raise, never pass
    with pytest.raises(ValueError):
        size_cases()[case]()


def test_equal_matrices_have_equal_integer_rows():
    # rational rows, integer rows with a common factor and a negative denominator: one reduced form
    rows = [[R(1, 2), R(-3, 4)], [ZERO, R(5)]]
    a = ConnMatrix(2, 1, rows)
    b = ConnMatrix.from_int_rows(2, 1, [((-6, 9), -12), ((0, 30), 6)])
    assert a == b and a.int_rows == b.int_rows == (((2, -3), 4), ((0, 5), 1))
    assert a.rows == b.rows == tuple(map(tuple, rows))
    assert ConnMatrix.from_int_rows(2, 1, [((4, 0), 4), ((0, -2), -2)]).int_rows == (((1, 0), 1), ((0, 1), 1))


def test_a_passing_verify_run_makes_no_rational_in_the_verifiers(monkeypatch, capsys):
    # the checks cross-multiply integer rows: a regression to rational sums would
    # construct rationals, or add and multiply them, inside the verifiers
    argv = ["verify", "--suite", "orthogonality", "--d", "2", "--n", "3", "--count", "6", "--seed", "2"]
    assert cli.main(argv) == 0
    made, inside = [], []
    real_R = connection.R
    monkeypatch.setattr(connection, "R", lambda *args: made.append(args) or real_R(*args))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def guarded(self, other, op=getattr(Fraction, name)):
            if inside:
                raise AssertionError("a verifier added or multiplied rationals")
            return op(self, other)

        monkeypatch.setattr(Fraction, name, guarded)
    for name in ("first_difference", "verify_row_orthogonality", "verify_column_orthogonality",
                 "verify_inverse_identity", "verify_convolution"):
        def scoped(*args, fn=getattr(cli, name)):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(cli, name, scoped)
    assert cli.main(argv) == 0
    assert made == []
    capsys.readouterr()
