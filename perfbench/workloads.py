"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Every operation calls a public simplexconn function in-process, with the
module caches reset first. Its check runs afterwards, outside the timing,
against a computation made apart from the program (reference.py) or against
a property the method must have. A check returns None when the result is
right and a message when it is not.

Parameters kappa and rho come from the seed in a narrow family: each slot
keeps a fixed prime denominator and the seed picks the numerator next to
half of it. The cost of exact arithmetic follows the size of these
rationals, so the family keeps the work of a round steady across seeds.
Permutation samples are seeded cosets sigma.C of the cyclic group C of
S_{d+1}, so each sample moves the special last slot to every position once.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

from simplexconn import backend, cli, connection, simplex
from simplexconn import closed_forms as cf
from simplexconn import discrete as ds
from simplexconn import racah as rc

import reference as ref

DENOMS = (3, 5, 7, 11, 13, 17)


class Op:
    """One timed call and the check of its result."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def reset_caches():
    """Cold start for one operation.

    connection.clear_caches() leaves simplex._MOMENT_CACHE filled, so the
    moment cache is cleared here as well.
    """
    connection.clear_caches()
    simplex._MOMENT_CACHE.clear()


def call(module, name, *args, **kwargs):
    """Deferred module.name(*args): looked up at call time, so traced when wrapped."""
    return lambda: getattr(module, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def fmt(values):
    return ",".join(backend.rat_str(v) for v in values)


def draw_kappa(rng, d):
    return tuple(backend.R(q // 2 + rng.randint(0, 1), q) for q in DENOMS[: d + 1])


def draw_rho(rng, d):
    return tuple(backend.R(1, j + 3 + rng.randint(0, 1)) for j in range(d))


def draw_beta(rng, d):
    shift = backend.R(rng.randint(0, 4), 5)
    return tuple(backend.R(2 * i + 1, 2) + i * i + shift for i in range(d + 2))


def perm(img):
    return simplex.Permutation(img)


def cyclic_coset(rng, m):
    """sigma * c^k for k = 0..m-1, with c = (12...m) and sigma seeded."""
    sigma = perm(rng.sample(range(1, m + 1), m))
    c = perm(tuple(range(2, m + 1)) + (1,))
    out, ck = [], perm(range(1, m + 1))
    for _ in range(m):
        out.append(sigma * ck)
        ck = ck * c
    return out


def cycle_d(d):
    """The full cycle (12...d) on d+1 slots, fixing slot d+1."""
    return perm(tuple(range(2, d + 1)) + (1, d + 1))


def transposition(j, m):
    img = list(range(1, m + 1))
    img[j - 1], img[j] = img[j], img[j - 1]
    return perm(img)


def all_perms(m):
    return [perm(img) for img in itertools.permutations(range(1, m + 1))]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def orthogonality_error(rows, src_norms, tgt_norms):
    """Row and column orthogonality of an exact connection matrix.

    sum_w c[i,w] c[j,w] B_w = delta_ij A_i and
    sum_w c[w,i] c[w,j] / A_w = delta_ij / B_i, with A the source norms and
    B the target norms.
    """
    size = len(rows)
    zero = backend.ZERO
    for i in range(size):
        for j in range(i, size):
            s = sum((rows[i][w] * rows[j][w] * tgt_norms[w] for w in range(size)), zero)
            if s != (src_norms[i] if i == j else zero):
                return f"rows {i} and {j} are not orthogonal"
            s = sum((rows[w][i] * rows[w][j] / src_norms[w] for w in range(size)), zero)
            if s != (1 / tgt_norms[i] if i == j else zero):
                return f"columns {i} and {j} are not orthogonal"
    return None


def jacobi_norms(mat, tau, kappa):
    tk = tau.act_params(kappa)
    return ([simplex.norm_A(nu, tk) for nu in mat.order],
            [simplex.norm_A(mu, kappa) for mu in mat.order])


def check_matrix(tau, kappa, points, mat, orthogonal=False, oracle=None):
    """Exact Jacobi connection matrix: expansion, orthogonality, an oracle."""
    err = ref.expansion_error(tau.img, kappa, mat.order, mat.rows, points)
    if err is None and orthogonal:
        err = orthogonality_error(mat.rows, *jacobi_norms(mat, tau, kappa))
    if err is None and oracle is not None and oracle().rows != mat.rows:
        err = "differs from the oracle matrix"
    return err


def hat_error(tau, kappa, n, points, hat, nus=None):
    """Normalized entries: unit rows of squares, and the rational matrix behind them.

    c[nu,mu] = sign * sqrt(hat^2 A_nu(tau.kappa) / A_mu(kappa)) must be
    rational and satisfy the point-wise expansion. The rows of `hat` are
    those of the multi-indices `nus`, all of degree n by default.
    """
    order = simplex.enumerate_basis(len(kappa) - 1, n)
    nus = order if nus is None else nus
    for i, row in enumerate(hat):
        if sum((q.square() for q in row), backend.ZERO) != 1:
            return f"row {i} of squared normalized entries does not sum to 1"
    tk = tau.act_params(kappa)
    rows = []
    for nu, row in zip(nus, hat):
        src = simplex.norm_A(nu, tk)
        out = []
        for mu, q in zip(order, row):
            root = ref.rational_sqrt(q.square() * src / simplex.norm_A(mu, kappa))
            if root is None:
                return f"entry ({nu}, {mu}) is not sqrt of a rational square"
            out.append(q.sign * root)
        rows.append(out)
    return ref.expansion_error(tau.img, kappa, order, rows, points, nus)


def same_hats(a, b):
    return [[(q.sign, q.radicand) for q in row] for row in a] == \
        [[(q.sign, q.radicand) for q in row] for row in b]


def hat_grid(d, n, entry, nus=None):
    """Normalized entries entry(nu, mu) at degree n: rows nus, all by default."""
    order = simplex.enumerate_basis(d, n)
    return [[entry(nu, mu) for mu in order] for nu in (order if nus is None else nus)]


def hat_op(d, n, entry):
    return lambda: hat_grid(d, n, entry)


def hat_row_ops(label, d, n, entry, check):
    """One operation per row nu of a normalized grid, checked by check(hat, nu, results).

    A whole grid takes up to 3 s; a row takes at most about 0.2 s, short
    enough for the host-speed brackets around it to follow the host.
    """
    return [Op(f"{label} row {nu}", lambda nu=nu: hat_grid(d, n, entry, [nu]),
               lambda hat, results, nu=nu: check(hat, nu, results))
            for nu in simplex.enumerate_basis(d, n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def gram_oracle(rng, small):
    """Definition-level Gram matrices: all of S_4 at d=3, sampled S_5 at d=4."""
    n2, n3 = (1, 1) if small else (2, 3)
    ops = []
    parts = [(3, n2, all_perms(4)), (3, n2, all_perms(4)),
             (3, n3, cyclic_coset(rng, 4)), (4, n2, cyclic_coset(rng, 5))]
    for d, n, taus in parts:
        kappa = draw_kappa(rng, d)
        points = ref.simplex_points(rng, d, 2)
        for tau in taus:
            oracle = call(cf, "cc_3d_matrix", tau, kappa, n) if d == 3 else None

            def check(mat, results, tau=tau, kappa=kappa, points=points, d=d, oracle=oracle):
                return check_matrix(tau, kappa, points, mat, orthogonal=d == 4, oracle=oracle)

            ops.append(Op(f"gram d={d} n={n} {tau!r} kappa={fmt(kappa)}",
                          call(connection, "gram_connection", tau, kappa, n), check))
    return ops


def closed_forms(rng, small):
    """Closed-method requests, including ones that fall back to Gram, and normalized grids."""
    ops = []

    def request(d, n, tau, kappa, points):
        def check(mat, results):
            err = check_matrix(tau, kappa, points, mat, orthogonal=d >= 4)
            if err is None and cf.connection_matrix(tau, kappa, 1, method="closed").rows \
                    != connection.gram_connection(tau, kappa, 1).rows:
                err = "closed form differs from gram_connection at degree 1"
            return err

        ops.append(Op(f"closed d={d} n={n} {tau!r} kappa={fmt(kappa)}",
                      call(cf, "connection_matrix", tau, kappa, n, method="closed"), check))

    kappa = draw_kappa(rng, 2)
    points = ref.simplex_points(rng, 2, 2)
    for tau in all_perms(3):
        request(2, 3 if small else 12, tau, kappa, points)
    kappa = draw_kappa(rng, 3)
    points = ref.simplex_points(rng, 3, 2)
    for tau in all_perms(4):
        request(3, 2 if small else 4, tau, kappa, points)
    # d=4 fixing slot 1 and d=5 fixing slots 1-2, all of them: prefix
    # reductions to d=3, whose cost differs tenfold between permutations, so
    # a seeded sample would make the work of a round depend on the seed.
    # Permutations that fix the top slots but move slot 1 raise ValueError
    # and are left out.
    fixed = {4: [t for t in all_perms(5) if t(1) == 1 and not t.is_identity()],
             5: [t for t in all_perms(6) if t(1) == 1 and t(2) == 2 and not t.is_identity()]}
    fallback = [t for t in all_perms(5) if t(1) != 1 and t(5) != 5]
    for d, n, taus in ((4, 2 if small else 3, fixed[4][:4] if small else fixed[4]),
                       (5, 1 if small else 2, fixed[5][:4] if small else fixed[5]),
                       (4, 1 if small else 2, rng.sample(fallback, 3))):
        kappa = draw_kappa(rng, d)
        points = ref.simplex_points(rng, d, 2)
        for tau in taus:
            request(d, n, tau, kappa, points)
    for d, n in ((4, 1), (5, 1)) if small else ((4, 3), (5, 2)):
        kappa = draw_kappa(rng, d)
        points = ref.simplex_points(rng, d, 2)
        cyc = cycle_d(d)
        form1 = f"cyclic hat form 1 d={d} n={n} kappa={fmt(kappa)}"
        for form in (1, 2):

            def check(hat, nu, results, kappa=kappa, points=points, cyc=cyc, n=n, form=form,
                      form1=form1):
                err = hat_error(cyc, kappa, n, points, hat, [nu])
                if err is None and form == 2 and not same_hats(hat, results[f"{form1} row {nu}"]):
                    err = "forms 1 and 2 disagree"
                return err

            entry = (lambda nu, mu, kappa=kappa, n=n, form=form:
                     cf.cc_cyclic_hat(nu, mu, kappa, n, form=form))
            ops += hat_row_ops(form1.replace("form 1", f"form {form}"), d, n, entry, check)
        for j in range(1, d + 1):
            tau = transposition(j, d + 1)

            def check(hat, results, tau=tau, kappa=kappa, points=points, n=n):
                return hat_error(tau, kappa, n, points, hat)

            entry = (lambda nu, mu, kappa=kappa, n=n, j=j: cf.cc_adjacent_hat(nu, mu, kappa, n, j))
            ops.append(Op(f"adjacent hat j={j} d={d} n={n} kappa={fmt(kappa)}", hat_op(d, n, entry), check))
    return ops


def lattice(rng, small):
    """Whole-lattice sums: Racah form 3, Racah orthogonality, Hahn and Krawtchouk."""
    ops = []
    for d in (4, 5):
        n = 1 if small else 2
        kappa = draw_kappa(rng, d)
        points = ref.simplex_points(rng, d, 2)
        cyc = cycle_d(d)

        def check(hat, nu, results, kappa=kappa, points=points, cyc=cyc, n=n, d=d):
            err = hat_error(cyc, kappa, n, points, hat, [nu])
            form1 = hat_grid(d, n, lambda nu, mu: cf.cc_cyclic_hat(nu, mu, kappa, n, form=1), [nu])
            if err is None and not same_hats(hat, form1):
                err = "form 3 differs from form 1"
            return err

        entry = (lambda nu, mu, kappa=kappa, n=n: cf.cc_cyclic_hat(nu, mu, kappa, n, form=3))
        ops += hat_row_ops(f"cyclic hat form 3 d={d} n={n} kappa={fmt(kappa)}", d, n, entry, check)
    for d, N in ((2, 2), (3, 2)) if small else ((2, 4), (3, 3)):
        beta = draw_beta(rng, d)

        def check(sums, results, d=d, N=N, beta=beta):
            idxs = racah_indices(d, N)
            for i, nu in enumerate(idxs):
                for j, mu in enumerate(idxs):
                    expect = rc.racah_norm_sq(nu, beta, N) if i == j else backend.ZERO
                    if sums[i][j] != expect:
                        return f"Racah sum ({nu}, {mu}) differs from racah_norm_sq"
            return None

        ops.append(Op(f"racah orthogonality d={d} N={N} beta={fmt(beta)}",
                      lambda d=d, N=N, beta=beta: racah_sums(d, N, beta), check))
    # At d=3, degree 2 keeps each call near 0.15 s, short enough for the
    # host-speed brackets; several seeded tau make up the work.
    hahn = [(2, 1, 1), (3, 1, 1)] if small else [(2, 3, 1), (3, 2, 3)]
    for d, n, count in hahn:
        kappa = draw_kappa(rng, d)
        points = ref.simplex_points(rng, d, 2)
        for tau in rng.sample([t for t in all_perms(d + 1) if not t.is_identity()], count):

            def check(mat, results, tau=tau, kappa=kappa, points=points):
                tk = tau.act_params(kappa)
                rows = [[c * ref.p_factor(nu, tk) / ref.p_factor(mu, kappa)
                         for mu, c in zip(mat.order, row)] for nu, row in zip(mat.order, mat.rows)]
                return ref.expansion_error(tau.img, kappa, mat.order, rows, points)

            ops.append(Op(f"hahn d={d} n={n} N={n + 1} {tau!r} kappa={fmt(kappa)}",
                          call(ds, "hahn_connection", tau, kappa, n + 1, n), check))
    # The cycle (12...d) at each d, for the kraw_cc_cyclic_hat check, and
    # seeded other tau at d=3.
    kraw = [(2, 1, 0), (3, 1, 0)] if small else [(2, 4, 0), (3, 2, 2)]
    for d, n, count in kraw:
        rho = draw_rho(rng, d)
        others = [t for t in all_perms(d + 1) if t != cycle_d(d) and not t.is_identity()]
        for tau in [cycle_d(d)] + rng.sample(others, count):

            def check(mat, results, tau=tau, rho=rho, n=n):
                return kraw_error(tau, rho, n + 1, n, mat)

            ops.append(Op(f"kraw d={d} n={n} N={n + 1} {tau!r} rho={fmt(rho)}",
                          call(ds, "kraw_connection", tau, rho, n + 1, n), check))
    return ops


def racah_indices(d, N):
    return [nu for t in range(N + 1) for nu in ref.compositions(t, d)]


def racah_sums(d, N, beta):
    """sum_x w(x) R_nu(x) R_mu(x) over the lattice, for all |nu|, |mu| <= N."""
    grid = rc.lattice_points(d, N)
    idxs = racah_indices(d, N)
    weights = [rc.racah_weight_multi(x, beta, N) for x in grid]
    vals = [[rc.racah_multi(nu, x, beta, N) for x in grid] for nu in idxs]
    zero = backend.ZERO
    sums = [[zero] * len(idxs) for _ in idxs]
    for i, j in itertools.combinations_with_replacement(range(len(idxs)), 2):
        sums[i][j] = sums[j][i] = sum((w * a * b for w, a, b in zip(weights, vals[i], vals[j])), zero)
    return sums


def kraw_error(tau, rho, N, n, mat):
    """Krawtchouk matrix: expansion on the whole grid, orthogonality, cyclic form."""
    d = tau.m - 1
    trho = ds.tau_rho(tau, rho)
    for x in ds.kraw_grid(d, N):
        ext = tuple(x) + (N - sum(x),)
        tx = tuple(ext[tau(i) - 1] for i in range(1, d + 1))
        basis = [ds.kraw_multi(mu, x, rho, N) for mu in mat.order]
        for nu, row in zip(mat.order, mat.rows):
            if ds.kraw_multi(nu, tx, trho, N) != sum((c * b for c, b in zip(row, basis)), backend.ZERO):
                return f"Krawtchouk expansion fails for nu={nu} at x={x}"
    src = [ds.kraw_norm_C(nu, trho, N) for nu in mat.order]
    tgt = [ds.kraw_norm_C(mu, rho, N) for mu in mat.order]
    err = orthogonality_error(mat.rows, src, tgt)
    if err is None and tau == cycle_d(d):
        for i, nu in enumerate(mat.order):
            for j, mu in enumerate(mat.order):
                c = mat.rows[i][j]
                q = ds.kraw_cc_cyclic_hat(nu, mu, rho, n)
                if q.square() != c * c * tgt[j] / src[i] or (c != 0 and q.sign != (1 if c > 0 else -1)):
                    return f"kraw_cc_cyclic_hat differs at ({nu}, {mu})"
    return err


def verify_session(rng, small):
    """In-process `simplexconn verify --suite orthogonality` runs through cli.main."""
    ops = []
    # Short calls, so that the host-speed brackets follow the host: about
    # 0.1 s at d=2, n=2 and 0.3 s at d=2, n=3 and at d=3, n=1, where a call
    # builds the Gram matrices of all 24 tau.
    parts = ((2, 1), (3, 1)) if small else ((2, 2),) * 6 + ((2, 3), (3, 1), (3, 1))
    for d, n in parts:
        kappa = draw_kappa(rng, d)
        count = rng.randint(2, 3) if small else rng.randint(16, 24)
        seed = rng.randrange(10**6)
        argv = ["verify", "--suite", "orthogonality", "--d", str(d), "--n", str(n),
                "--kappa", fmt(kappa),
                "--count", str(count), "--seed", str(seed)]

        def check(result, results, seed=seed):
            code, text = result
            try:
                report = json.loads(text)
            except ValueError:
                return "verify did not emit JSON"
            if code != 0 or report.get("failures") != [] or report.get("seed") != seed \
                    or report.get("suite") != "orthogonality":
                return f"verify exited {code} with report {report}"
            return None

        ops.append(Op("verify " + " ".join(argv[4:]), lambda argv=argv: run_cli(argv), check))
    # One `connect --normalized`, the default Gram method, so that
    # normalize and emit see a matrix payload.
    n = 1 if small else 3
    kappa = draw_kappa(rng, 3)
    tau = rng.choice([t for t in all_perms(4) if not t.is_identity()])
    points = ref.simplex_points(rng, 3, 2)
    argv = ["connect", "--tau", repr(tau), "--kappa", fmt(kappa), "--n", str(n), "--normalized"]

    def check(result, results):
        code, text = result
        if code != 0:
            return f"connect exited {code}"
        payload = json.loads(text)
        order = [tuple(nu) for nu in payload["order"]]
        rows = [[Fraction(c) for c in row] for row in payload["entries"]]
        hat = payload["normalized"]["entries"]
        for row, hat_row in zip(rows, hat):
            if sum(Fraction(q["radicand"]) for q in hat_row) != 1 or \
                    any(q["sign"] != (c > 0) - (c < 0) for c, q in zip(row, hat_row)):
                return "normalized entries do not match the matrix"
        return ref.expansion_error(tau.img, kappa, order, rows, points)

    ops.append(Op(" ".join(argv), lambda: run_cli(argv), check))
    return ops


def run_cli(argv):
    """cli.main(argv) with its standard output captured: (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


BUILDERS = {
    "gram-oracle": gram_oracle,
    "closed-forms": closed_forms,
    "lattice": lattice,
    "verify-session": verify_session,
}
WORKLOADS = tuple(BUILDERS)


def build(name, seed, small=False):
    """The operations of one round of workload `name`; `small` is for smoke tests."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), small)


def canonical(result):
    """A comparable form of an operation's result, for checking repeated rounds."""
    if isinstance(result, connection.ConnMatrix):
        return (tuple(result.order), tuple(tuple(r) for r in result.rows))
    if isinstance(result, list):
        return tuple(tuple((q.sign, q.radicand) if hasattr(q, "radicand") else q for q in row)
                     for row in result)
    return result
