import itertools
import random

import pytest

from simplexconn.backend import R, ZERO, ONE
from simplexconn.exact_arith import QSqrt, folded_series, hyp_terminating, over_lcm, pochhammer
from simplexconn.simplex import Permutation, enumerate_basis
from simplexconn.connection import ConnMatrix, gram_connection, normalize
from simplexconn import closed_forms as cf
from simplexconn import exact_arith as ea
from simplexconn import connection, simplex
from simplexconn import discrete as ds
from simplexconn import racah as rc
from simplexconn import qsqrt_sums_equal

from oracles import rational_kraw_block, value_or_error

KAPPA2 = (R(1, 2), R(1, 3), R(2))
KAPPA3 = (R(0), R(1, 2), R(1), R(3, 2))
HALF = R(-1, 2)
# kappa_1 + kappa_{d+1} = -1: a Racah weight parameter beta_1 is 0 there
POLE2 = ((R(-1, 3), R(1, 2), R(-2, 3)), (HALF,) * 3)
POLE3 = ((HALF,) * 4, (R(-1, 3), R(1, 2), R(1), R(-2, 3)))


def all_perms(m):
    return [Permutation(img) for img in itertools.permutations(range(1, m + 1))]


def test_2d_closed_matches_gram():
    for tau in all_perms(3):
        for n in range(4):
            assert cf.connection_matrix(tau, KAPPA2, n).rows == gram_connection(tau, KAPPA2, n).rows


def test_2d_closed_at_zero_parameters():
    kappa = (R(0), R(0), R(0))
    for tau in all_perms(3):
        for n in range(4):
            assert cf.connection_matrix(tau, kappa, n).rows == gram_connection(tau, kappa, n).rows


def test_2d_normalized_entries_match_gram_squares():
    tau = Permutation((2, 1, 3))
    n = 3
    for kappa in (KAPPA2,) + POLE2:
        hat_gram = normalize(gram_connection(tau, kappa, n), tau, kappa)
        for j in range(n + 1):
            for m in range(n + 1):
                nu, mu = (n - j, j), (n - m, m)
                q, g = cf.cc_adjacent_hat(nu, mu, kappa, n, 1), hat_gram[j][m]
                assert q.square() == g.square()
                assert q.sign == g.sign


def test_sum_identity():
    for kappa in (KAPPA2, (R(3, 4), R(1, 5), R(3, 4)), POLE2[0]):
        for n in range(5):
            for k in range(n + 1):
                for ell in range(n + 1):
                    lhs, rhs = cf.verify_sum_identity(k, ell, kappa, n)
                    assert lhs == rhs


def test_sum_identity_needs_three_parameters():
    for kappa in (KAPPA2[:2], KAPPA3):
        with pytest.raises(ValueError, match="exactly 3 kappa entries"):
            cf.verify_sum_identity(0, 0, kappa, 1)
    # an index outside 0..n is an input error, not a pair of unequal sides
    kappa = (R(1, 2), R(1, 3), R(1, 5))
    for k, ell in ((3, 1), (1, 3), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=f"k = {k}, ell = {ell}, n = 2"):
            cf.verify_sum_identity(k, ell, kappa, 2)


def test_3d_closed_matches_gram():
    for tau in all_perms(4):
        for n in (1, 2):
            assert cf.cc_3d_matrix(tau, KAPPA3, n).rows == gram_connection(tau, KAPPA3, n).rows


def test_3d_matrix_is_connection_matrix_with_its_checks_and_cache():
    tau = Permutation.from_cycles("(13)", 4)
    assert cf.cc_3d_matrix(tau, KAPPA3, 2) == cf.connection_matrix(tau, KAPPA3, 2)
    with pytest.raises(ValueError, match="at least 2 entries, each > -1"):
        cf.cc_3d_matrix(tau, (R(-3), ONE, ONE, ONE), 1)
    with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
        cf.cc_3d_matrix(tau, KAPPA3, -1)
    with pytest.raises(ValueError, match="permutation of 4 slots"):
        cf.cc_3d_matrix(Permutation((2, 1, 3)), KAPPA2, 1)


def test_3d_normalized_13_as_radical_sum():
    # hat entries for the transposition (13) in S_4 are sums of square roots;
    # check they reproduce the normalized Gram entries exactly.
    tau = Permutation.from_cycles("(13)", 4)
    n = 2
    order = enumerate_basis(3, n)
    for kappa in (KAPPA3,) + POLE3:
        hat_gram = normalize(gram_connection(tau, kappa, n), tau, kappa)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                terms = cf.cc_3d_hat13_terms(nu, mu, kappa, n)
                assert qsqrt_sums_equal(terms, [hat_gram[i][j]])


def test_cyclic_closed_forms_d4():
    d = 4
    tau = Permutation((2, 3, 4, 1, 5))  # cycle on the first d slots
    n = 2
    order = enumerate_basis(d, n)
    for kappa, forms in (
        ((R(1, 3), R(1, 2), R(0), R(2), R(1, 4)), (1, 2, 3)),
        ((R(-1, 3), R(1, 2), R(0), R(2), R(-2, 3)), (1, 2, 3)),
        ((HALF,) * 5, (1, 2, 3)),
    ):
        hat = normalize(gram_connection(tau, kappa, n), tau, kappa)
        for i, nu in enumerate(order):
            for j, mu in enumerate(order):
                for form in forms:
                    q = cf.cc_cyclic_hat(nu, mu, kappa, n, form=form)
                    assert q.square() == hat[i][j].square()
                    assert q.sign == hat[i][j].sign


def coset(d):
    """The double coset s_d^a (12...d)^{+-1} s_d^b in S_{d+1}, s_d = (d, d+1)."""
    s_d = Permutation(tuple(range(1, d)) + (d + 1, d))
    one = Permutation.identity(d + 1)
    cycle = Permutation(tuple(range(2, d + 1)) + (1, d + 1))
    return {a * c * b for a in (one, s_d) for c in (cycle, cycle.inverse()) for b in (one, s_d)}


@pytest.mark.parametrize("d, kappa", [
    (2, (R(1, 2), R(-1, 3), R(2))),
    (4, (R(1, 3), R(1, 2), R(0), R(2), R(-1, 4))),
])
def test_coset_hat_matches_normalized_gram(d, kappa):
    taus = coset(d)
    assert len(taus) == (4 if d == 2 else 8)
    for tau in taus:
        for n in (1, 2):
            order = enumerate_basis(d, n)
            hat = normalize(gram_connection(tau, kappa, n), tau, kappa)
            for i, nu in enumerate(order):
                for j, mu in enumerate(order):
                    q = cf.cc_coset_hat(tau, nu, mu, kappa, n)
                    assert (q.sign, q.square()) == (hat[i][j].sign, hat[i][j].square())


def test_coset_hat_rejects_permutations_outside_the_coset():
    nu = (1, 0, 0)
    for name in ("(13)", "(12)", "e"):
        with pytest.raises(ValueError, match="is not s_d"):
            cf.cc_coset_hat(Permutation.from_cycles(name, 4), nu, nu, KAPPA3, 1)
    with pytest.raises(ValueError, match="d >= 2"):
        cf.cc_coset_hat(Permutation((2, 1)), (1,), (1,), (R(1), R(2)), 1)


def test_adjacent_transposition_closed_form():
    d = 3
    n = 2
    order = enumerate_basis(d, n)
    # the local s_2 has beta_1 = kappa_2 + kappa_4 + 1 = 0 at the last two
    for kappa in (KAPPA3, (R(1, 2), HALF, R(1, 3), HALF), POLE3[0]):
        for jpos in (1, 2):
            tau = Permutation.from_cycles("(%d%d)" % (jpos, jpos + 1), d + 1)
            hat = normalize(gram_connection(tau, kappa, n), tau, kappa)
            for i, nu in enumerate(order):
                for j, mu in enumerate(order):
                    q = cf.cc_adjacent_hat(nu, mu, kappa, n, jpos)
                    assert q.square() == hat[i][j].square()
                    assert q.sign == hat[i][j].sign


def test_last_adjacent_transposition_is_signed_identity():
    d = 3
    n = 2
    order = enumerate_basis(d, n)
    for i, nu in enumerate(order):
        for j, mu in enumerate(order):
            q = cf.cc_adjacent_hat(nu, mu, KAPPA3, n, d)
            if nu == mu:
                sign = 1 if nu[d - 1] % 2 == 0 else -1
                assert q.sign == sign and q.square() == ONE
            else:
                assert q.square() == ZERO


ADJACENT = "cc_adjacent_hat needs 1 <= j <= d = len"
DOMAIN = "kappa needs at least 2 entries, each > -1"


@pytest.mark.parametrize("nu, mu, kappa, n, j, match", [
    ((1, 1), (2, 0), (R(1, 2), R(1, 3), R(2, 5)), 5, 1, ADJACENT),  # |nu| = |mu| = 2, not n
    ((1, 1), (2, 0), (R(1, 2), R(1, 3), R(2, 5)), 2, 3, ADJACENT),  # j = d + 1
    ((1, 1), (2, 0), (R(1, 2), R(1, 3), R(2, 5)), 2, 0, ADJACENT),
    ((1, 1), (1, 1), (R(-3, 2), R(1, 3), R(2, 5)), 2, 2, DOMAIN),  # j = d at kappa_1 <= -1
    ((1, 1), (1, 1), (R(1, 2), R(1, 3), R(-1)), 2, 1, DOMAIN),
    ((1, 0, 1), (0, 1, 2), KAPPA3, 2, 3, ADJACENT),  # j = d, mu of another degree
    ((1, 0, 1), (1, 1, 0), KAPPA3[:3], 2, 1, ADJACENT),  # kappa one entry short
    ((1, 0, 1), (0, 2), KAPPA3, 2, 1, ADJACENT),  # len(mu) != d
    ((2, 0, 0), (0, 1, 1), (R(1, 2), R(1, 3), R(-5, 4), R(1)), 2, 1, DOMAIN),  # an entry that is 0 by its pattern
    ((3, -1), (1, 1), KAPPA2, 2, 1, ADJACENT),
], ids=["degree", "j-above-d", "j-zero", "j-d-kappa-domain", "kappa-domain", "j-d-mu-degree", "short-kappa",
        "mu-length", "zero-entry-kappa-domain", "negative-entry"])
def test_adjacent_hat_checks_its_input(nu, mu, kappa, n, j, match):
    with pytest.raises(ValueError, match=match):
        cf.cc_adjacent_hat(nu, mu, kappa, n, j)


def test_connection_matrix_equals_gram_connection():
    for tau in all_perms(3):
        for n in (1, 3):
            assert cf.connection_matrix(tau, KAPPA2, n).rows == gram_connection(tau, KAPPA2, n).rows


def test_engine_checks_the_parameter_count():
    tau = Permutation((2, 3, 1))
    for kappa in (KAPPA3, KAPPA2[:2]):
        with pytest.raises(ValueError, match="needs 3 parameters"):
            cf.connection_matrix(tau, kappa, 2)


def test_2d_engine_builds_one_block_of_entries_at_most(monkeypatch):
    # s_2 = s_d is a signed diagonal, so only a word holding s_1 evaluates a block,
    # and the reduced word holds it at most once: (13) is s_2 s_1 s_2; the block
    # reaches the engine as (n+1) rows of (n+1) integer pairs (num, den)
    calls = []
    entry = cf.cc_2d_entry

    def counted(K, D, m_loc):
        calls.append((K, D, m_loc))
        block = entry(K, D, m_loc)
        assert len(block) == m_loc + 1 and {len(row) for row in block} == {m_loc + 1}
        for num, den in itertools.chain.from_iterable(block):
            assert type(num) is int and type(den) is int and den != 0, (num, den)
        return block

    monkeypatch.setattr(cf, "cc_2d_entry", counted)
    n = 4
    for tau in all_perms(3):
        calls.clear()
        cf.connection_matrix(tau, KAPPA2, n)
        free = repr(tau) in ("e", "(23)")
        assert free == (1 not in tau.reduced_word())
        assert len(calls) == (0 if free else 1), tau
        assert all(m_loc == n for _, _, m_loc in calls), calls


def test_connection_matrix_rejects_a_negative_degree():
    tau = Permutation.from_cycles("(12)", 3)
    for build in (cf.connection_matrix, gram_connection):
        with pytest.raises(ValueError, match="degree n must be >= 0, got -1"):
            build(tau, KAPPA2, -1)


def test_unknown_method_raises():
    tau = Permutation.from_cycles("(12)", 3)
    with pytest.raises(ValueError, match="method must be 'closed', not 'clsoed'"):
        cf.connection_matrix(tau, KAPPA2, 1, method="clsoed")


def kappa_for(d):
    return tuple(R(1, i + 2) for i in range(d + 1))


def test_closed_matches_gram_all_s5():
    kappa = kappa_for(4)
    for tau in all_perms(5):
        assert cf.connection_matrix(tau, kappa, 1).rows == gram_connection(tau, kappa, 1).rows


def test_closed_matches_gram_top_fixed_moving_slot_1_d4():
    kappa = kappa_for(4)
    taus = [t for t in all_perms(5) if t(5) == 5 and t(1) != 1]
    assert len(taus) == 18
    for tau in taus:
        assert cf.connection_matrix(tau, kappa, 2).rows == gram_connection(tau, kappa, 2).rows


def test_closed_matches_gram_sample_s6():
    kappa = kappa_for(5)
    for tau in random.Random(6).sample(all_perms(6), 24):
        assert cf.connection_matrix(tau, kappa, 1).rows == gram_connection(tau, kappa, 1).rows


def test_closed_method_never_calls_gram(monkeypatch):
    def no_gram(*args):
        raise AssertionError("closed method called gram_connection")

    assert not hasattr(cf, "gram_connection")
    monkeypatch.setattr(connection, "gram_connection", no_gram)
    for d, n in ((2, 3), (3, 2), (4, 2), (5, 1)):
        kappa = kappa_for(d)
        taus = all_perms(d + 1) if d <= 3 else random.Random(d).sample(all_perms(d + 1), 12)
        taus.append(Permutation(tuple(range(d + 1, 0, -1))))  # the longest word
        for tau in taus:
            assert cf.connection_matrix(tau, kappa, n, method="closed").d == d


# ---------------------------------------------------------------------------
# the engine's integer layers against their rational oracles
# ---------------------------------------------------------------------------


def rational_2d_entry(j, m, kappa, n):
    """The (12) local rule in rational arithmetic: one Pochhammer per factor and hyp_terminating."""
    k1, k2, k3 = (R(k) for k in kappa)
    tot = k1 + k2 + k3
    coeff = (
        cf._sign(n + m)
        * pochhammer(R(-n), j)
        * pochhammer(k2 + 1, n - j)
        * pochhammer(k3 + 1, j)
        / (pochhammer(ONE, j) * pochhammer(k2 + 1, m))
        * pochhammer(R(n) + tot + 2, m)
        / (pochhammer(k2 + k3 + 2 * m + 2, n - m) * pochhammer(k2 + k3 + m + 1, m))
    )
    return coeff * hyp_terminating(
        [R(-m), m + k2 + k3 + 1, R(-j), j + k1 + k3 + 1],
        [R(-n), k3 + 1, R(n) + tot + 2],
        ONE,
    )


def block_value(kappa, n):
    """cc_2d_entry's block of integers (num, den), at kappa over the lcm of its denominators, as rationals."""
    return [[R(*entry) for entry in row] for row in cf.cc_2d_entry(*over_lcm(kappa), n)]


def rational_block_or_error(kappa, n):
    """rational_2d_entry at every (j, m) in row-major order, or the type of the first error it raises."""
    block = []
    for j in range(n + 1):
        row = []
        for m in range(n + 1):
            value = value_or_error(rational_2d_entry, j, m, kappa, n)
            if isinstance(value, type):
                return value
            row.append(value)
        block.append(row)
    return block


def seeded_kappas(rng):
    """kappa-hats for the (12) rule, all inside the domain kappa > -1.

    Four fixed ones, (-1/2)^3, 0, kappa_1 + kappa_3 = -1 and kappa_2 + kappa_3 = -1,
    then seeded ones with denominators up to 30, negative entries and zeros,
    a quarter of them with kappa_2 + kappa_3 = -1.
    """
    kappas = [(HALF,) * 3, (R(0),) * 3, (R(-1, 3), R(1, 2), R(-2, 3)), (R(1, 2), HALF, HALF)]
    for _ in range(80):
        dens = [rng.randint(1, 30) for _ in range(3)]
        kappa = [R(rng.randint(1 - q, 2 * q), q) for q in dens]
        if rng.random() < 0.25:  # kappa_2 + kappa_3 = -1
            kappa[1] = R(-rng.randint(1, 29), 30)
            kappa[2] = -1 - kappa[1]
        kappas.append(tuple(kappa))
    return kappas


def test_2d_entry_equals_the_rational_rule():
    # every entry of the block, at every kappa-hat for n <= 8 and at the four fixed ones for n = 12
    rng = random.Random(12)
    for i, kappa in enumerate(seeded_kappas(rng)):
        for n in (*range(9), 12) if i < 4 else range(9):
            assert block_value(kappa, n) == rational_block_or_error(kappa, n), (kappa, n)


def test_2d_entry_poles_outside_the_domain_raise_like_the_rational_rule():
    # integer and half-integer kappa <= -1 put zeros in the prefactor's
    # denominator, the 4F3's bottom parameters, or cut the 4F3 short; the block
    # equals the rational rule or raises what its first raising entry raises
    rng = random.Random(13)
    raised = set()
    for _ in range(600):
        n = rng.randint(0, 8)
        kappa = tuple(R(rng.randint(-7, 3), rng.choice((1, 2))) for _ in range(3))
        want = rational_block_or_error(kappa, n)
        assert value_or_error(block_value, kappa, n) == want, (kappa, n)
        if isinstance(want, type):
            raised.add(want.__name__)
    assert raised == {"BottomPole", "ZeroDivisionError"}


def rational_jacobi_block(j, kappa, m_loc, k, m, tail):
    """The engine's s_j entry in rational arithmetic: rational_2d_entry at the rational kappa-hat."""
    d = len(kappa) - 1
    return rational_2d_entry(k, m, (kappa[j - 1], kappa[j], sum(kappa[j + 1:], ZERO) + 2 * tail + d - j - 1), m_loc)


JACOBI = (cf._local_kappa, cf.cc_2d_entry, cf._jacobi_ratio, rational_jacobi_block, lambda kappa: -ONE)
KRAWTCHOUK = (ds._kraw_local, ds._kraw_block, ds._kraw_ratio, rational_kraw_block, lambda rho: -rho[-2] / rho[-1])


def rational_word_product(tau, params, n, block, ratio):
    """The engine's loop in rational arithmetic: rows {column: rational}, the rational local rules block and ratio.

    The rules read the rational params of each step, so each entry is put over
    its own denominators, not over the word's one lcm as in the engine.
    """
    d = tau.m - 1
    params = tuple(R(p) for p in params)
    order = enumerate_basis(d, n)
    index = {nu: i for i, nu in enumerate(order)}
    rows = [{i: ONE} for i in range(len(order))]
    for a in tau.reduced_word():
        if a == d:
            powers = [ratio(params) ** e for e in range(n + 1)]
            rows = [{c: v * powers[nu[d - 1]] for c, v in row.items()} for nu, row in zip(order, rows)]
        else:
            memo = {}
            new_rows = []
            for nu in order:
                m_loc, k, tail = nu[a - 1] + nu[a], nu[a], sum(nu[a + 1:])
                acc = {}
                for m in range(m_loc + 1):
                    key = (m_loc, k, m, tail)
                    c = memo.get(key)
                    if c is None:
                        c = memo[key] = block(a, params, *key)
                    if c == 0:
                        continue
                    mu = nu[: a - 1] + (m_loc - m, m) + nu[a + 1:]
                    for col, v in rows[index[mu]].items():
                        acc[col] = acc.get(col, ZERO) + c * v
                new_rows.append(acc)
            rows = new_rows
        params = params[: a - 1] + (params[a], params[a - 1]) + params[a + 1:]
    return ConnMatrix(d, n, [[row.get(i, ZERO) for i in range(len(order))] for row in rows], order)


def assert_same_products(taus, params, degrees, family):
    local, block, ratio, rational_block, rational_ratio = family
    for tau in taus:
        for n in degrees:
            got = cf.word_product(tau, *over_lcm(params), n, local, block, ratio)
            assert got == rational_word_product(tau, params, n, rational_block, rational_ratio), (tau, params, n)
            assert {type(v) for row in got.rows for v in row} == {type(ONE)}


@pytest.mark.parametrize("kappa", [KAPPA2, (HALF,) * 3, POLE2[0]], ids=["generic", "half", "pole"])
def test_engine_equals_the_rational_loop_s3(kappa):
    assert_same_products(all_perms(3), kappa, range(9), JACOBI)


def test_engine_equals_the_rational_loop_s4_s5():
    assert_same_products(all_perms(4), KAPPA3, range(4), JACOBI)
    taus = random.Random(5).sample(all_perms(5), 24)
    assert_same_products(taus, (R(1, 3), R(-2, 5), R(0), R(3, 7), R(-1, 2)), range(3), JACOBI)


# slot denominators 3, 5, 7, 11, 13: the word's lcm D = 15015 is a multiple
# of every step's kappa-hat lcm, and larger than each
COPRIME = (R(1, 3), R(2, 5), R(3, 7), R(5, 11), R(6, 13))


def test_engine_over_the_words_lcm_equals_the_rational_loop():
    for m, degrees in ((3, range(6)), (4, range(4))):
        assert_same_products(all_perms(m), COPRIME[:m], degrees, JACOBI)
    assert_same_products(random.Random(7).sample(all_perms(5), 24), COPRIME, range(3), JACOBI)
    # Krawtchouk: rho = (1/3, 1/5, 1/7), extended by 1 - |rho| = 34/105
    rho = (R(1, 3), R(1, 5), R(1, 7))
    for m in (3, 4):
        ext = rho[: m - 1] + (1 - sum(rho[: m - 1]),)
        assert_same_products(all_perms(m), ext, range(4), KRAWTCHOUK)


def test_krawtchouk_engine_equals_the_rational_loop():
    # the extended (rho, 1 - |rho|); the s_d ratio -rho_d / rho_{d+1} is not an integer
    for m, rho in ((3, (R(1, 4), R(2, 5))), (4, (R(1, 6), R(2, 7), R(1, 5)))):
        ext = rho + (1 - sum(rho),)
        assert_same_products(all_perms(m), ext, range(4), KRAWTCHOUK)


def test_a_shared_entry_dict_gives_the_matrices_of_fresh_ones(monkeypatch):
    # all of S_4 at n <= 3 and a seeded S_5 sample at n <= 2, in shuffled order through one
    # dict: at kappa, at several t.kappa and at a second kappa over another lcm D; each
    # matrix equals the one built with no dict, the dict's blocks are evaluated once
    # each, and a second pass evaluates none
    rng = random.Random(30)
    requests = []
    for m, taus, degrees, second in ((4, all_perms(4), range(4), (R(2, 3), R(-1, 2), R(5), R(1, 9))),
                                     (5, rng.sample(all_perms(5), 24), range(3), COPRIME)):
        kappa = tuple(R(rng.randint(-2, 9), rng.randint(3, 7)) for _ in range(m))
        moved = [t.act_params(kappa) for t in rng.sample(all_perms(m), 3)]
        assert over_lcm(second)[1] != over_lcm(kappa)[1]
        requests += [(tau, params, n) for tau in taus for params in [kappa, *moved, second] for n in degrees]
    rng.shuffle(requests)
    calls = []
    entry = cf.cc_2d_entry
    monkeypatch.setattr(cf, "cc_2d_entry", lambda *args: calls.append(args) or entry(*args))
    entries = {}
    shared = [cf.connection_matrix(tau, params, n, entries=entries) for tau, params, n in requests]
    assert entries and len(calls) == len(entries)
    assert shared == [cf.connection_matrix(tau, params, n) for tau, params, n in requests]
    calls.clear()
    for tau, params, n in requests:
        cf.connection_matrix(tau, params, n, entries=entries)
    assert calls == []


def test_one_entry_dict_keeps_the_jacobi_and_krawtchouk_rules_apart():
    # the same integers P over the same D feed both rules; the key holds the rule, so a
    # dict shared by both families gives each family's own matrices
    params = (R(1, 4), R(2, 5), R(7, 20))
    P, D = over_lcm(params)
    entries = {}
    for tau in all_perms(3):
        for n in range(4):
            for family in (JACOBI[:3], KRAWTCHOUK[:3]):
                shared = cf.word_product(tau, P, D, n, *family, entries)
                assert shared == cf.word_product(tau, P, D, n, *family), (tau, n, family)
    assert {key[0] for key in entries} == {cf.cc_2d_entry, ds._kraw_block}


def test_engine_puts_the_params_over_one_lcm_per_word(monkeypatch):
    # the word's D serves every step: one over_lcm per connection matrix, made by the
    # family (scaled_kappa, or kraw_connection on the extended rho), none by the engine or a local rule
    calls = []

    def counted(values):
        calls.append(tuple(values))
        return over_lcm(values)

    assert not hasattr(cf, "over_lcm")
    for module in (simplex, ds):
        monkeypatch.setattr(module, "over_lcm", counted)
    for tau in all_perms(4):
        for run in (lambda: cf.connection_matrix(tau, COPRIME[:4], 3),
                    lambda: ds.kraw_connection(tau, (R(1, 3), R(1, 5), R(1, 7)), 3, 3)):
            calls.clear()
            assert run().n == 3
            assert len(calls) == 1, (tau, calls)


def test_engine_calls_no_pochhammer_and_no_series(monkeypatch):
    # the local rules and the row updates run in integers: a regression to a
    # rational rule would call these in closed_forms or discrete
    def forbidden(*args):
        raise AssertionError("the Coxeter-word engine called a rational kernel")

    monkeypatch.setattr(cf, "pochhammer", forbidden)
    monkeypatch.setattr(cf, "hyp_terminating", forbidden)
    monkeypatch.setattr(ds, "pochhammer", forbidden)
    monkeypatch.setattr(ds, "hyp_with_prefactor", forbidden)
    for tau in all_perms(4):
        assert cf.connection_matrix(tau, KAPPA3, 3).n == 3
        assert ds.kraw_connection(tau, (R(1, 6), R(2, 7), R(1, 5)), 3, 3).n == 3


def test_both_local_rules_sum_with_the_one_series_kernel(monkeypatch):
    # cc_2d_entry and _kraw_block own no term loop: each entry of a block is one call of
    # exact_arith.folded_series; the rational oracle sums with it too, so it runs first
    n = 3
    want = rational_block_or_error(KAPPA2, n)
    calls = []

    def counted(*args):
        calls.append(args)
        return folded_series(*args)

    monkeypatch.setattr(ea, "folded_series", counted)
    monkeypatch.setattr(ds, "folded_series", counted)
    assert block_value(KAPPA2, n) == want
    assert len(calls) == (n + 1) ** 2
    P, D = over_lcm((R(1, 4), R(1, 3), R(5, 12)))
    ds._kraw_block(ds._kraw_local(P, D, 1, 0), D, n)
    assert len(calls) == 2 * (n + 1) ** 2


# ---------------------------------------------------------------------------
# the normalized cycle coefficient from racah's integer cores
# ---------------------------------------------------------------------------


def rational_cyclic_hat(nu, mu, kappa, n, form):
    """cc_cyclic_hat over the public rational Racah functions: its oracle."""
    d = len(nu)
    kappa = tuple(R(k) for k in kappa)
    beta = tuple(kappa[0] + sum(kappa[d + 1 - j:], ZERO) + j for j in range(d + 1))
    x = tuple(sum(nu[d - j:]) for j in range(1, d))
    idx = tuple(reversed(mu[1:]))
    if form > 1:
        x, idx, beta = rc.dual_map(x, idx, beta, n)
    val = rc.racah_multi(idx, x, beta, n)
    norm_sq = rc.racah_norm_sq
    if form == 3:
        x, idx, beta = rc.conj_map(x, idx, beta, n)
        norm_sq = rc.racah_second_norm_sq
    w = rc.racah_weight_multi(x, beta, n)
    return QSqrt.signed(cf._sign(n + nu[d - 1]) * val, w * val * val / norm_sq(idx, beta, n))


def cyclic_points(d):
    """Generic, (-1/2)^{d+1}, kappa_1 + kappa_{d+1} = -1, zero, integer and coprime-denominator kappa."""
    return [tuple(R(i + 1, i + 3) * (-1) ** i for i in range(d + 1)), (HALF,) * (d + 1),
            (R(-1, 3),) + tuple(R(1, i + 2) for i in range(d - 1)) + (R(-2, 3),),
            (R(0),) * (d + 1), tuple(R(i) for i in range(d + 1)), (COPRIME + (R(7, 17),))[: d + 1]]


def test_cyclic_hat_equals_its_rational_oracle():
    for d, n in ((2, 3), (3, 2), (4, 2), (5, 1)):
        order = enumerate_basis(d, n)
        for kappa in cyclic_points(d):
            for nu, mu in itertools.product(order, repeat=2):
                for form in (1, 2, 3):
                    assert cf.cc_cyclic_hat(nu, mu, kappa, n, form) == rational_cyclic_hat(nu, mu, kappa, n, form)


def test_cyclic_hat_reads_no_rational_racah_function(monkeypatch):
    # the value, weight and norms come from racah's integer cores, and beta and
    # both maps are integers over kappa's lcm: a regression to the rational
    # functions, maps or kernels would call these in closed_forms or racah
    grids = []
    for d, n in ((2, 3), (3, 2), (4, 2), (5, 1)):
        kappa = cyclic_points(d)[0]
        order = enumerate_basis(d, n)
        grids += [(nu, mu, kappa, n, form) for nu, mu in itertools.product(order, repeat=2) for form in (1, 2, 3)]
    expected = [cf.cc_cyclic_hat(*args) for args in grids]

    def forbidden(*args):
        raise AssertionError("cc_cyclic_hat called a rational Racah function or kernel")

    names = ("pochhammer", "hyp_with_prefactor", "racah_multi", "racah_weight_multi", "racah_norm_sq",
             "racah_second_norm_sq", "dual_map", "conj_map", "check_kappa")
    for module in (cf, rc):
        for name in names:
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert [cf.cc_cyclic_hat(*args) for args in grids] == expected


@pytest.mark.parametrize("nu, mu, kappa, n, match", [
    ((1, 0), (0, 1), (R(1), R(2)), 1, "3 kappa entries"),
    ((1, 0), (0, 1), (R(1), R(2), R(3), R(4)), 1, "3 kappa entries"),
    ((1, 0), (0, 2), KAPPA2, 1, r"\|nu\| = \|mu\| = 1"),
    ((2, 0), (0, 1), KAPPA2, 1, r"\|nu\| = \|mu\| = 1"),
    ((1, 0), (0, 0, 1), KAPPA2, 1, "len\\(mu\\) = 2"),
    ((1, 0), (0, 1), (R(-1), R(2), R(3)), 1, "each > -1"),
    ((3, -1), (1, 1), KAPPA2, 2, r"entries >= 0, got nu = \(3, -1\)"),
    ((1, 1), (3, -1), KAPPA2, 2, r"entries >= 0, got nu = \(1, 1\) and mu = \(3, -1\)"),
], ids=["short-kappa", "long-kappa", "mu-degree", "nu-degree", "mu-length", "kappa-domain", "negative-nu",
        "negative-mu"])
def test_cyclic_hat_checks_its_input(nu, mu, kappa, n, match):
    for form in (1, 2, 3):
        with pytest.raises(ValueError, match=match):
            cf.cc_cyclic_hat(nu, mu, kappa, n, form)


def test_float_and_string_parameters_raise_type_error():
    # parameters are exact rationals: a float kappa, rho or beta is refused, not converted
    t3, t4 = Permutation.from_cycles("(12)", 3), Permutation.from_cycles("(123)", 4)
    calls = [
        lambda: cf.connection_matrix(t3, (0.1, 0.2, 0.3), 2),
        lambda: cf.connection_matrix(t4, (R(1, 2), 0.25, R(1, 2), R(1)), 2),
        lambda: cf.connection_matrix(t3, ("1/2", "1/3", "1/5"), 2),
        lambda: ds.kraw_connection(t3, (0.25, R(1, 2)), 3, 2),
        lambda: ds.kraw_cc_cyclic_hat((1, 1), (2, 0), (0.25, R(1, 2)), 2),
        lambda: cf.cc_adjacent_hat((1, 1), (2, 0), (R(1, 2), 0.25, R(1, 2)), 2, 1),
        lambda: rc.dual_map((1,), (1,), (R(1, 2), 0.25, R(1, 2)), 3),
        lambda: rc.conj_map((1,), (1,), (R(1, 2), 0.25, R(1, 2)), 3),
    ] + [lambda form=form: cf.cc_cyclic_hat((1, 1), (2, 0), (R(1, 2), R(1, 3), 0.5), 2, form) for form in (1, 2, 3)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
