"""Exact connection coefficients for orthogonal polynomials on the simplex,
with companions on discrete lattices, the ball, and the sphere."""

from .backend import R, rat_from_str, rat_str
from .exact_arith import BottomPole, QSqrt, hyp_terminating, hyp_with_prefactor, pochhammer, qsqrt_sums_equal
from .multipoly import DimensionMismatch, SparsePoly, substitute_homogeneous
from .simplex import (
    Permutation,
    all_permutations,
    enumerate_basis,
    inner_product_simplex,
    jacobi_1d,
    jacobi_simplex_basis,
    norm_A,
    simplex_moment,
)

from .connection import ConnMatrix, gram_connection, normalize
from .closed_forms import connection_matrix
from .ballsphere import ParityPoly, ball_connection, q_ball, sphere_basis

__version__ = "0.1.0"
