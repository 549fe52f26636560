"""Command-line interface: basis construction, connection matrices, verification.

Rationals are written "p/q", permutations in 1-based cycle notation such as
"(12)" or "(1 3)(2 4)". Exit codes: 0 success, 1 verification failure,
2 usage error.  Each verify failure is a list of strings: the identity, the
permutations it involves, then name=value for the failing case and its two
sides (lhs and rhs; closed and gram for closed-vs-gram).
"""

import argparse
import functools
import json
import os
import random
import sys

from .backend import R, rat_from_str, rat_str
from .exact_arith import hyp_with_prefactor, over_lcm
from .simplex import (
    Permutation,
    all_permutations,
    enumerate_basis,
    jacobi_simplex_basis,
    norm_A,
    scaled_kappa,
)
from .connection import (
    first_difference,
    gram_connections,
    normalize,
    verify_row_orthogonality,
    verify_column_orthogonality,
    verify_inverse_identity,
    verify_convolution,
    weighted_orthogonal,
)
from .closed_forms import connection_matrix, verify_sum_identity
from . import racah as rc
from . import discrete as ds
from . import ballsphere as bs


def parse_rationals(text, option):
    """The comma-separated rationals of `option`; ValueError naming it and the bad entry."""
    out = []
    for part in text.split(","):
        try:
            out.append(rat_from_str(part))
        except ValueError:
            raise ValueError("%s entry %r is not a rational p or p/q with q != 0"
                             % (option, part.strip())) from None
    return tuple(out)


def parse_kappa(text):
    """kappa = (kappa_1, ..., kappa_{d+1}) with d >= 1 and every kappa_i > -1."""
    kappa = parse_rationals(text, "--kappa")
    scaled_kappa(kappa, "--kappa")
    return kappa


def hat_json(order, grid):
    return {
        "order": [list(nu) for nu in order],
        "entries": [[q.to_json() for q in row] for row in grid],
    }


# the connect options each family reads; all but --normalized are required
_FAMILY_OPTIONS = {
    "simplex": ("kappa", "normalized"),
    "hahn": ("kappa", "N"),
    "kraw": ("rho", "N"),
    "ball": ("kappa",),
}
_OPTIONAL = ("normalized",)

_VERIFY_DEFAULTS = {"kappa": None, "d": 2, "n": 3, "N": 4, "count": 20, "seed": 0}


def check_options(args):
    """ValueError for a missing or ignored option, an unknown suite or a file as --out, before any work.

    CSV holds only the rational matrix of connect --family simplex, hahn or
    kraw, without the normalized entries.
    """
    if args.command == "connect":
        reads = _FAMILY_OPTIONS[args.family]
        for name in reads:
            if name not in _OPTIONAL and getattr(args, name) is None:
                raise ValueError("--%s is required for --family %s" % (name, args.family))
        for name in ("kappa", "rho", "N") + _OPTIONAL:
            if name not in reads and getattr(args, name) is not None:
                raise ValueError("--%s is not used by --family %s" % (name, args.family))
    if args.command == "verify":
        if args.suite not in SUITES:
            raise ValueError("unknown suite: %s (choose from %s)"
                             % (args.suite, ", ".join(sorted(SUITES))))
        reads = SUITES[args.suite][1]
        for name in _VERIFY_DEFAULTS:
            if name not in reads and getattr(args, name) is not None:
                raise ValueError("--%s is not used by --suite %s" % (name, args.suite))
    if args.output == "csv" and (args.command != "connect" or args.family == "ball" or args.normalized):
        raise ValueError("--output csv is only for connect --family simplex, hahn or kraw "
                         "without --normalized")
    if args.out is not None and os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ValueError("--out %s exists and is not a directory" % args.out)


def emit(args, payload, name):
    fmt = args.output
    if fmt == "csv":
        text = "\n".join(",".join(row) for row in payload["entries"]) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name + "." + fmt)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def cmd_basis(args):
    kappa = parse_kappa(args.kappa)
    d = len(kappa) - 1
    if args.family == "simplex":
        basis = [{"nu": list(nu), "poly": jacobi_simplex_basis(nu, kappa).to_json(),
                  "norm": rat_str(norm_A(nu, kappa))} for nu in enumerate_basis(d, args.n)]
    elif args.family == "ball":
        basis = [{"nu": list(nu), "eps": list(eps), "core": bs.q_ball(nu, eps, kappa).core.to_json(),
                  "norm": rat_str(bs.ball_norm(nu, eps, kappa))} for nu, eps in bs.ball_enumerate(d, args.n)]
    else:  # sphere
        basis = [{"nu": list(nu), "eps": list(eps), "core": bs.sphere_basis(nu, eps, kappa, args.n).core.to_json()}
                 for nu, eps in bs.sphere_enumerate(d, args.n)]
    emit(args, {"family": args.family, "kappa": [rat_str(k) for k in kappa], "basis": basis}, "basis")
    return 0


def cmd_connect(args):
    """One path for every family: parameters, tau on their slots, the matrix, emit."""
    if args.family == "kraw":
        params = parse_rationals(args.rho, "--rho")
        slots = len(params) + 1
    else:
        params = parse_kappa(args.kappa)
        slots = len(params) - 1 if args.family == "ball" else len(params)
    tau = Permutation.from_cycles(args.tau, slots)
    if args.family == "ball":
        conn = sorted(bs.ball_connection(tau, params, args.n).items())
        entries = [{"nu": list(nu), "eps": list(eps), "mu": list(mu), "eta": list(eta), "value": val.to_json()}
                   for ((nu, eps), (mu, eta)), val in conn]
        emit(args, {"family": "ball", "entries": entries}, "connect")
        return 0
    if args.family == "simplex":
        mat = connection_matrix(tau, params, args.n)
    elif args.family == "hahn":
        mat = ds.hahn_connection(tau, params, args.N, args.n)
    else:
        mat = ds.kraw_connection(tau, params, args.N, args.n)
    payload = mat.to_json()
    if args.normalized:
        payload["normalized"] = hat_json(mat.order, normalize(mat, tau, params))
    emit(args, payload, "connect")
    return 0


def _random_kappa(rng, d):
    return tuple(R(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(d + 1))


def _failure(identity, *taus, **fields):
    """One failure record: the identity, the permutations (or elements), then name=value for the case and its values."""
    return [identity, *map(repr, taus), *("%s=%s" % item for item in fields.items())]


def _entry_failure(identity, taus, diff, sides=("lhs", "rhs")):
    """The failure record of a matrix identity at its first failing (nu, mu, lhs, rhs)."""
    nu, mu, lhs, rhs = diff
    return _failure(identity, *taus, nu=nu, mu=mu, **dict(zip(sides, (lhs, rhs))))


def _suite_structural(args, rng):
    """The paper's identities on the closed engine's matrices, and each C^tau against Gram.

    The norm list A_nu(tau.kappa) of each tau is built once: the identity's
    list is every target, and tau^-1's list is the inverse identity's source.
    Each C^{t2}(t1.kappa) is built once and held under (t2, i), where i is
    the index of the first permutation whose action on kappa gives the same
    tuple as t1's: each t1.kappa is hashed once per run, not per lookup, and
    equal parameters, as at kappa = (-1/2)^4, share one matrix.  Every
    matrix is a product of adjacent factors at permutations of kappa, so one
    connection_matrix table, made here and dropped with the run, serves them
    all: each local-rule block is evaluated once, and the basis and each
    letter's row groups are built once.  One gram_connections call yields
    every C^tau from one T (a T per tau made the run's solve_s about 6 %
    slower).
    """
    kappa = parse_kappa(args.kappa) if args.kappa else _random_kappa(rng, args.d)
    d = len(kappa) - 1
    n = args.n
    failures = []
    perms = all_permutations(d + 1)
    order = enumerate_basis(d, n)
    first, moved, norms = {}, {}, {}
    for i, tau in enumerate(perms):
        tk = tau.act_params(kappa)
        moved[tau.img] = first.setdefault(tk, i), tk
        norms[tau.img] = [norm_A(nu, tk) for nu in order]
    one = Permutation.identity(d + 1)
    target = norms[one.img]
    held, entries = {}, {}

    def matrix(t2, t1=one):
        i, tk = moved[t1.img]
        key = (t2.img, i)
        mat = held.get(key)
        if mat is None:
            mat = held[key] = connection_matrix(t2, tk, n, entries=entries)
        return mat

    for tau, gram in zip(perms, gram_connections(perms, kappa, n)):
        mat = matrix(tau)
        diff = first_difference(mat, gram)
        if diff is not None:
            failures.append(_entry_failure("closed-vs-gram", [tau], diff, ("closed", "gram")))
        inv = tau.inverse()
        checks = (
            ("row-orthogonality", verify_row_orthogonality(mat, norms[tau.img], target)),
            ("column-orthogonality", verify_column_orthogonality(mat, norms[tau.img], target)),
            ("inverse", verify_inverse_identity(matrix(tau, inv), matrix(inv),
                                                norms[inv.img], target)),
        )
        failures.extend(_entry_failure(identity, [tau], diff) for identity, diff in checks if diff is not None)
    for _ in range(args.count):
        t1, t2 = rng.choice(perms), rng.choice(perms)
        diff = verify_convolution(matrix(t1 * t2), matrix(t2, t1), matrix(t1))
        if diff is not None:
            failures.append(_entry_failure("convolution", [t1, t2], diff))
    return failures


def _suite_whipple(args, rng):
    failures = []
    for _ in range(args.count):
        m = rng.randint(0, 6)
        X = R(rng.randint(-20, 20), rng.randint(1, 5))
        Y = R(rng.randint(-20, 20), rng.randint(1, 5))
        Z = R(rng.randint(-20, 20), rng.randint(1, 5))
        U = R(rng.randint(1, 20), rng.randint(1, 5))
        V = R(rng.randint(1, 20), rng.randint(1, 5))
        W = 1 - m + X + Y + Z - U - V
        lhs = hyp_with_prefactor([X, Y, Z], [U, V, W], m)
        rhs = hyp_with_prefactor([U - X, U - Y, Z], [1 - V + Z - m, 1 - W + Z - m, U], m)
        if lhs != rhs:
            failures.append(_failure("whipple", m=m, X=X, Y=Y, Z=Z, U=U, V=V, lhs=lhs, rhs=rhs))
    return failures


def _suite_sum_identity(args, rng):
    kappa = parse_kappa(args.kappa) if args.kappa else (R(1, 2), R(1, 3), R(1, 2))
    cases = [(n, k, ell, *verify_sum_identity(k, ell, kappa, n))
             for n in range(args.n + 1) for k in range(n + 1) for ell in range(n + 1)]
    return [_failure("sum-identity", n=n, k=k, ell=ell, lhs=lhs, rhs=rhs)
            for n, k, ell, lhs, rhs in cases if lhs != rhs]


def _suite_racah(args, rng):
    """sum_x R_nu(x) R_mu(x) w(x) = delta(nu,mu) h_nu on the lattice, by the connection matrices' check.

    Row nu is racah.multi_core's integer values over their one denominator.
    """
    d, N = args.d, args.N
    beta = tuple(R(2 * i + 1, 2) + i * i for i in range(d + 2))
    B, D = over_lcm(beta)
    grid = rc.lattice_points(d, N)
    idxs = ds.kraw_grid(d, N)
    values = []
    for nu in idxs:
        cores = [rc.multi_core(nu, x, B, D, N) for x in grid]
        values.append(([num for num, _ in cores], cores[0][1]))
    weights = [rc.racah_weight_multi(x, beta, N) for x in grid]
    norms = [rc.racah_norm_sq(nu, beta, N) for nu in idxs]
    return [_failure("racah-orthogonality", nu=idxs[i], mu=idxs[j], lhs=lhs, rhs=rhs)
            for i, j, lhs, rhs in weighted_orthogonal(values, weights, norms)]


def _suite_example_910(args, rng):
    return [_failure(identity, *keys, value=value)
            for n in range(args.n + 1) for identity, *keys, value in bs.example_910_check(n)["failures"]]


def _suite_dimensions(args, rng):
    from math import comb
    counts = [("simplex", d, n, len(enumerate_basis(d, n)), comb(n + d - 1, n))
              for d in range(1, 7) for n in range(9)]
    for d in range(1, 4):
        for n in range(6):
            counts.append(("ball", d, n, len(bs.ball_enumerate(d, n)), comb(n + d - 1, n)))
            counts.append(("sphere", d, n, len(bs.sphere_enumerate(d, n)), bs.dim_harmonic(n, d + 1)))
    return [_failure(family, d=d, n=n, lhs=lhs, rhs=rhs)
            for family, d, n, lhs, rhs in counts if lhs != rhs]


# each suite: (runner, the verify options it reads); orthogonality reads --d when --kappa is absent
SUITES = {
    "orthogonality": (_suite_structural, ("kappa", "d", "n", "count", "seed")),
    "whipple": (_suite_whipple, ("count", "seed")),
    "sum-identity": (_suite_sum_identity, ("kappa", "n")),
    "racah-orthogonality": (_suite_racah, ("d", "N")),
    "example-9-10": (_suite_example_910, ("n",)),
    "dimensions": (_suite_dimensions, ()),
}


def cmd_verify(args):
    if args.d is not None and args.kappa is not None:
        entries = len(parse_kappa(args.kappa))
        if args.d != entries - 1:
            raise ValueError("--d %d needs %d --kappa entries, got %d" % (args.d, args.d + 1, entries))
    for name, default in _VERIFY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.d < 1:
        raise ValueError("--d must be >= 1")
    rng = random.Random(args.seed)
    failures = SUITES[args.suite][0](args, rng)
    report = {"suite": args.suite, "seed": args.seed, "failures": failures}
    emit(args, report, "verify-" + args.suite)
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so main reports them in one line."""

    def error(self, message):
        if message.endswith("expected one argument"):  # as argparse reads a value such as -1/2 as an option
            message += "; a value that starts with '-' is written %s=-..." % message.split()[1].rstrip(":")
        raise ValueError(message)


def build_parser():
    p = _Parser(prog="simplexconn",
                description="Exact connection coefficients for multivariate orthogonal polynomials")
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="directory for artifact files")
    common.add_argument("--output", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="print an orthogonal basis", parents=[common])
    b.add_argument("--family", choices=("simplex", "ball", "sphere"), default="simplex")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--kappa", required=True, help="comma-separated rationals, d+1 entries")
    b.set_defaults(func=cmd_basis)

    c = sub.add_parser("connect", help="compute a connection matrix", parents=[common])
    c.add_argument("--family", choices=("simplex", "hahn", "kraw", "ball"), default="simplex")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--N", type=int, default=None, help="lattice size for discrete families")
    c.add_argument("--kappa", default=None)
    c.add_argument("--rho", default=None)
    c.add_argument("--tau", required=True, help='cycle notation, e.g. "(12)" or "e"')
    c.add_argument("--normalized", action="store_true", default=None, help="simplex only")
    c.set_defaults(func=cmd_connect)

    v = sub.add_parser("verify", help="run a verification suite", parents=[common])
    v.add_argument("--suite", required=True)
    # defaults are _VERIFY_DEFAULTS, filled in once the suite is known to read the option
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--N", type=int, default=None)
    v.add_argument("--kappa", default=None)
    v.add_argument("--count", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(func=cmd_verify)
    return p


@functools.cache
def _main_parser():
    """The one parser main reads, built on main's first call; build_parser gives others a fresh one."""
    return build_parser()


def main(argv=None):
    """Run one command; 0 on success, 1 on a verification failure, 2 on a usage error.

    Every call parses with the one parser of _main_parser, which holds no
    state between calls: each call gets its own Namespace.
    """
    try:
        args = _main_parser().parse_args(argv)
        for name in ("n", "N", "count"):
            if getattr(args, name, None) is not None and getattr(args, name) < 0:
                raise ValueError("--%s must be >= 0" % name)
        check_options(args)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
