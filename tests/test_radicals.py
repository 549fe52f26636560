from simplexconn import qsqrt_sums_equal
from simplexconn.backend import R
from simplexconn.exact_arith import QSqrt


def test_equal_sums_in_one_class():
    # sqrt(8) = sqrt(2) + sqrt(2)
    assert qsqrt_sums_equal([QSqrt(1, 8)], [QSqrt(1, 2), QSqrt(1, 2)])
    # sqrt(1/2) = (1/2) sqrt(2), written as two quarters sqrt(1/8)
    assert qsqrt_sums_equal([QSqrt(1, R(1, 2))], [QSqrt(1, R(1, 8)), QSqrt(1, R(1, 8))])
    assert qsqrt_sums_equal([QSqrt(1, R(1, 2))], [QSqrt(1, 2).scale(R(1, 2))])


def test_unequal_sums_across_classes():
    # sqrt(2) + sqrt(3) != sqrt(5)
    assert not qsqrt_sums_equal([QSqrt(1, 2), QSqrt(1, 3)], [QSqrt(1, 5)])
    assert not qsqrt_sums_equal([QSqrt(1, 2)], [QSqrt(-1, 2)])


def test_zero_terms_and_cancellation():
    assert qsqrt_sums_equal([QSqrt(0, 0), QSqrt(1, 3), QSqrt(-1, 3)], [])
    assert qsqrt_sums_equal([QSqrt(1, 12), QSqrt(-1, 3)], [QSqrt(1, 3)])
