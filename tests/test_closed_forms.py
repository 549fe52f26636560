import itertools
import random

import pytest

from simplexconn.backend import R, ZERO, ONE
from simplexconn.simplex import Permutation, enumerate_basis
from simplexconn.connection import clear_caches, gram_connection, normalize
from simplexconn import closed_forms as cf
from simplexconn.radicals import qsqrt_sums_equal

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


def test_3d_closed_matches_gram():
    for tau in all_perms(4):
        for n in (1, 2):
            assert cf.cc_3d_matrix(tau, KAPPA3, n).rows == gram_connection(tau, KAPPA3, n).rows


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


def test_connection_matrix_dispatch_agrees():
    for tau in all_perms(3):
        for n in (1, 3):
            a = cf.connection_matrix(tau, KAPPA2, n, method="closed")
            b = cf.connection_matrix(tau, KAPPA2, n, method="gram")
            assert a.rows == b.rows


def test_engine_checks_the_parameter_count():
    tau = Permutation((2, 3, 1))
    for kappa in (KAPPA3, KAPPA2[:2]):
        with pytest.raises(ValueError, match="needs 3 parameters"):
            cf.connection_matrix(tau, kappa, 2)


def test_2d_engine_builds_one_block_of_entries_at_most(monkeypatch):
    # s_2 = s_d is a signed diagonal, so only a word holding s_1 evaluates entries,
    # and the reduced word holds it at most once: (13) is s_2 s_1 s_2
    calls = []
    entry = cf.cc_2d_entry
    monkeypatch.setattr(cf, "cc_2d_entry", lambda *args: calls.append(args) or entry(*args))
    n = 4
    for tau in all_perms(3):
        calls.clear()
        clear_caches()  # a cached matrix would evaluate no entry
        cf.connection_matrix(tau, KAPPA2, n)
        free = repr(tau) in ("e", "(23)")
        assert free == (1 not in tau.reduced_word())
        assert len(calls) == (0 if free else (n + 1) ** 2), tau


def test_unknown_method_raises():
    tau = Permutation.from_cycles("(12)", 3)
    with pytest.raises(ValueError, match="'closed' or 'gram'"):
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

    monkeypatch.setattr(cf, "gram_connection", no_gram)
    for d, n in ((2, 3), (3, 2), (4, 2), (5, 1)):
        kappa = kappa_for(d)
        taus = all_perms(d + 1) if d <= 3 else random.Random(d).sample(all_perms(d + 1), 12)
        taus.append(Permutation(tuple(range(d + 1, 0, -1))))  # the longest word
        for tau in taus:
            assert cf.connection_matrix(tau, kappa, n, method="closed").d == d
