import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from simplexconn import ballsphere as bs
from simplexconn import cli, connection
from simplexconn import racah as rc
from simplexconn import closed_forms as cf
from simplexconn.backend import R
from simplexconn.connection import ConnMatrix, gram_connection
from simplexconn.multipoly import SparsePoly
from simplexconn.simplex import Permutation, enumerate_basis, norm_A


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "simplexconn.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_connect_known_matrix():
    proc = run_cli("connect", "--family", "simplex", "--tau", "(12)", "--kappa", "0,0,0", "--n", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["entries"] == [["-1/2", "3/2"], ["1/2", "1/2"]]
    assert data["order"] == [[1, 0], [0, 1]]


def test_connect_d2_cycle_matches_gram():
    proc = run_cli("connect", "--family", "simplex", "--tau", "(123)", "--kappa", "1/2,1/3,2", "--n", "3")
    assert proc.returncode == 0, proc.stderr
    tau = Permutation.from_cycles("(123)", 3)
    assert json.loads(proc.stdout) == gram_connection(tau, (R(1, 2), R(1, 3), R(2)), 3).to_json()


def test_connect_closed_d4_transposition():
    proc = run_cli("connect", "--tau", "(12)", "--kappa", "1/2,1/3,1/4,1/5,1/6", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    tau = Permutation.from_cycles("(12)", 5)
    kappa = (R(1, 2), R(1, 3), R(1, 4), R(1, 5), R(1, 6))
    assert json.loads(proc.stdout) == gram_connection(tau, kappa, 1).to_json()


@pytest.mark.parametrize("argv", [
    ("--tau", "(132)", "--kappa", "1/2,1/3,2", "--n", "2", "--normalized"),
    ("--family", "hahn", "--tau", "(12)", "--kappa", "1/2,1/3,2", "--N", "3", "--n", "2"),
    ("--family", "ball", "--tau", "(12)", "--kappa", "1/2,1/3,2", "--n", "2"),
], ids=["simplex", "hahn", "ball"])
def test_connect_never_calls_gram(monkeypatch, capsys, argv):
    def no_gram(*args):
        raise AssertionError("connect called the Gram oracle")

    names = ("gram_connection", "gram_connections")
    assert not any(hasattr(cf, name) for name in names)
    imported = [name for name in names if hasattr(cli, name)]
    assert imported
    for module, name in [(connection, name) for name in names] + [(cli, name) for name in imported]:
        monkeypatch.setattr(module, name, no_gram)
    assert cli.main(["connect", *argv]) == 0
    assert json.loads(capsys.readouterr().out)


def test_connect_discrete_without_N_exits_2():
    for family, params in (("hahn", ("--kappa", "1/2,1/3,1/4")), ("kraw", ("--rho", "1/4,1/3"))):
        proc = run_cli("connect", "--family", family, *params, "--tau", "(12)", "--n", "1")
        assert proc.returncode == 2, (family, proc.stderr)
        assert proc.stderr == "error: --N is required for --family %s\n" % family


def test_connect_without_family_parameters_exits_2():
    for family, name in (("simplex", "kappa"), ("hahn", "kappa"), ("kraw", "rho"), ("ball", "kappa")):
        proc = run_cli("connect", "--family", family, "--tau", "(12)", "--n", "1", "--N", "2")
        assert proc.returncode == 2, (family, proc.stderr)
        assert proc.stderr == "error: --%s is required for --family %s\n" % (name, family)


@pytest.mark.parametrize("kappa", [None, "-1/2,-1/2,-1/2,-1/2", "1/2,1/2,1/3,2/5"],
                         ids=["seeded", "minus-half", "two-equal"])
def test_orthogonality_suite_builds_each_matrix_once(monkeypatch, capsys, kappa):
    # the suite holds what it reads again, keyed by value: at kappa = (-1/2)^4 many
    # t1.kappa are equal, and each (tau, parameters) still reaches the engine once
    engine = cli.connection_matrix
    calls = Counter()

    def counted(tau, kap, n, **kwargs):
        calls[tau.img, tuple(kap)] += 1
        return engine(tau, kap, n, **kwargs)

    monkeypatch.setattr(cli, "connection_matrix", counted)
    argv = ["verify", "--suite", "orthogonality", "--d", "3", "--n", "1", "--count", "30", "--seed", "4"]
    assert cli.main(argv + (["--kappa=" + kappa] if kappa else [])) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []
    assert len(calls) >= 24 and set(calls.values()) == {1}, calls.most_common(3)


def test_main_calls_in_one_process_share_no_options(monkeypatch, capsys):
    # main parses with one parser per process; each call still gets its own Namespace,
    # with no option left over from an earlier call, and prints what a fresh process prints
    seen = []
    check = cli.check_options
    monkeypatch.setattr(cli, "check_options", lambda args: seen.append(args) or check(args))
    verify = ["verify", "--suite", "orthogonality", "--n", "1", "--count", "2"]
    calls = [verify + ["--kappa", "1/2,1/3,2"], verify + ["--seed", "5"],
             ["connect", "--tau", "(12)", "--kappa", "1/2,1/3,2", "--n", "1"]]
    assert [cli.main(argv) for argv in calls] == [0, 0, 0]
    assert capsys.readouterr().out == "".join(run_cli(*argv).stdout for argv in calls)
    with_kappa, without, connect = seen
    assert (with_kappa.kappa, with_kappa.d) == ("1/2,1/3,2", 2)
    assert (without.kappa, without.d, without.seed) == (None, 2, 5)
    assert connect.command == "connect" and connect.normalized is None
    assert not any(hasattr(connect, name) for name in ("suite", "count", "seed", "d"))


def test_a_usage_error_leaves_the_next_main_call_clean(capsys):
    # a call that fails in the parser, or after it, does not reach the next one
    whipple = ["verify", "--suite", "whipple", "--count", "3", "--seed", "1"]
    for bad in (["verify", "--suite", "whipple", "--count", "x"],
                ["verify", "--suite", "whipple", "--bogus", "1"],
                ["verify", "--suite", "whipple", "--kappa", "1,2,3"]):
        assert cli.main(bad) == 2, bad
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (bad, err)
        assert cli.main(whipple) == 0, bad
        assert capsys.readouterr().out == run_cli(*whipple).stdout


def test_build_parser_gives_a_fresh_parser_that_cannot_reach_main():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._main_parser()
    assert cli._main_parser() is cli._main_parser()


def test_orthogonality_suite_evaluates_each_local_rule_entry_once(monkeypatch, capsys):
    # one dict of local-rule blocks serves every matrix of the run, keyed by what the
    # Jacobi rule reads, its kappa-hat over D and the local degree: each key reaches
    # cc_2d_entry once, whichever letter and parameters it comes from (keyed by the
    # letter and the whole parameters, the same runs read 114 and 777 blocks).  Rows of
    # local degree 0 request no block (with them, the runs read 93 and 414 blocks)
    entry = cf.cc_2d_entry
    calls = Counter()

    def counted(K, D, m_loc):
        calls[tuple(K), D, m_loc] += 1
        return entry(K, D, m_loc)

    monkeypatch.setattr(cf, "cc_2d_entry", counted)
    for d, blocks in ((3, 62), (4, 237)):
        calls.clear()
        argv = ["verify", "--suite", "orthogonality", "--d", str(d), "--n", "2", "--count", "20", "--seed", "3"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []
        assert len(calls) == blocks and set(calls.values()) == {1}, (d, calls.most_common(3))
        assert min(m_loc for _, _, m_loc in calls) == 1


def test_closed_vs_gram_failure_names_tau_the_entry_and_both_values(monkeypatch, capsys):
    # one changed entry of C^(12)(kappa) must show in the report, with both values
    engine = cli.connection_matrix
    kappa = (R(1, 2), R(1, 3), R(2))

    def one_bad_entry(tau, kap, n, **kwargs):
        mat = engine(tau, kap, n, **kwargs)
        if repr(tau) != "(12)" or kap != kappa:
            return mat
        rows = [list(row) for row in mat.rows]
        rows[0][1] += 1
        return ConnMatrix(mat.d, mat.n, rows, mat.order)

    monkeypatch.setattr(cli, "connection_matrix", one_bad_entry)
    argv = ["verify", "--suite", "orthogonality", "--n", "1", "--kappa", "1/2,1/3,2", "--count", "2"]
    assert cli.main(argv) == 1
    gram = gram_connection(Permutation.from_cycles("(12)", 3), kappa, 1).rows[0][1]
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert ["closed-vs-gram", "(12)", "nu=(1, 0)", "mu=(0, 1)", "closed=%s" % (gram + 1),
            "gram=%s" % gram] in failures
    assert [f for f in failures if f[0] == "closed-vs-gram"] == failures[:1]
    # the row relation fails first at the changed row's own squared norm
    tau = Permutation.from_cycles("(12)", 3)
    row = one_bad_entry(tau, kappa, 1).rows[0]
    lhs = sum(c * c * norm_A(mu, kappa) for c, mu in zip(row, enumerate_basis(2, 1)))
    rhs = norm_A((1, 0), tau.act_params(kappa))
    assert ["row-orthogonality", "(12)", "nu=(1, 0)", "mu=(1, 0)", "lhs=%s" % lhs, "rhs=%s" % rhs] in failures


def test_orthogonality_suite_builds_each_norm_list_once(monkeypatch, capsys):
    # one list of A_nu(tau.kappa) per tau in S_3, shared by the row, column and inverse checks
    calls = []

    def counted(nu, kappa):
        calls.append(nu)
        return norm_A(nu, kappa)

    for module in (cli, connection):
        monkeypatch.setattr(module, "norm_A", counted)
    argv = ["verify", "--suite", "orthogonality", "--n", "2", "--kappa", "1/2,1/3,2", "--count", "2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []
    assert len(calls) == 6 * len(enumerate_basis(2, 2))


def test_racah_failure_names_the_index_and_both_sides(monkeypatch, capsys):
    # a squared norm changed for one nu gives one record, on the diagonal, with both sides
    norm_sq = rc.racah_norm_sq

    def one_bad_norm(nu, beta, N):
        return norm_sq(nu, beta, N) + (1 if nu == (1, 0) else 0)

    monkeypatch.setattr(rc, "racah_norm_sq", one_bad_norm)
    assert cli.main(["verify", "--suite", "racah-orthogonality", "--d", "2", "--N", "2"]) == 1
    beta = tuple(R(2 * i + 1, 2) + i * i for i in range(4))
    true = norm_sq((1, 0), beta, 2)
    assert json.loads(capsys.readouterr().out)["failures"] == [
        ["racah-orthogonality", "nu=(1, 0)", "mu=(1, 0)", "lhs=%s" % true, "rhs=%s" % (true + 1)]]


def test_sum_identity_failure_names_n_k_ell_and_both_sides(monkeypatch, capsys):
    def one_bad_case(k, ell, kappa, n):
        return (R(1), R(2)) if (n, k, ell) == (1, 1, 0) else (R(3), R(3))

    monkeypatch.setattr(cli, "verify_sum_identity", one_bad_case)
    assert cli.main(["verify", "--suite", "sum-identity", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        ["sum-identity", "n=1", "k=1", "ell=0", "lhs=1", "rhs=2"]]


def test_whipple_failure_names_m_the_parameters_and_both_sides(monkeypatch, capsys):
    # each series call returns the number of calls so far, so the two sides differ
    calls = []

    def counted(top, bottom, m):
        calls.append((top, bottom, m))
        return R(len(calls))

    monkeypatch.setattr(cli, "hyp_with_prefactor", counted)
    assert cli.main(["verify", "--suite", "whipple", "--count", "1", "--seed", "7"]) == 1
    (X, Y, Z), (U, V, _), m = calls[0]
    assert json.loads(capsys.readouterr().out)["failures"] == [
        ["whipple", "m=%d" % m, "X=%s" % X, "Y=%s" % Y, "Z=%s" % Z, "U=%s" % U, "V=%s" % V, "lhs=1", "rhs=2"]]


def test_example_910_laplacian_failure_names_the_element_and_its_value(monkeypatch, capsys):
    # a Laplacian that leaves 3/7 + 5 x_1 fails every element, with the coefficient at the least exponent
    monkeypatch.setattr(bs, "laplacian", lambda p: SparsePoly(3, {(1, 0, 0): R(5), (0, 0, 0): R(3, 7)}))
    assert cli.main(["verify", "--suite", "example-9-10", "--n", "1"]) == 1
    keys = bs.sphere_enumerate(2, 0) + bs.sphere_enumerate(2, 1)
    assert json.loads(capsys.readouterr().out)["failures"] == [
        ["laplacian", repr(key), "value=3/7"] for key in keys]


def test_example_910_orthogonality_failure_names_both_elements_and_the_product(monkeypatch, capsys):
    monkeypatch.setattr(bs, "sphere_inner_product", lambda p, q, kappa: R(-2, 9))
    assert cli.main(["verify", "--suite", "example-9-10", "--n", "1"]) == 1
    a, b, c = bs.sphere_enumerate(2, 1)
    assert json.loads(capsys.readouterr().out)["failures"] == [
        ["orthogonality", repr(x), repr(y), "value=-2/9"] for x, y in ((a, b), (a, c), (b, c))]


def test_verify_whipple_deterministic():
    a = run_cli("verify", "--suite", "whipple", "--count", "20", "--seed", "7")
    b = run_cli("verify", "--suite", "whipple", "--count", "20", "--seed", "7")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["failures"] == []


def test_verify_suites_pass():
    for suite, extra in (
        ("orthogonality", ["--d", "2", "--n", "3", "--kappa", "1/2,1/3,2"]),
        ("sum-identity", ["--n", "3", "--kappa", "1/2,1/3,1/2"]),
        ("sum-identity", ["--n", "2", "--kappa=-1/3,1/2,-2/3"]),
        ("dimensions", []),
        ("example-9-10", ["--n", "4"]),
        ("racah-orthogonality", ["--d", "2", "--N", "4"]),
    ):
        proc = run_cli("verify", "--suite", suite, *extra)
        assert proc.returncode == 0, (suite, proc.stdout, proc.stderr)


def test_every_suite_has_an_option_table():
    assert all(set(reads) <= set(cli._VERIFY_DEFAULTS) for _, reads in cli.SUITES.values())


def test_ignored_verify_option_names_the_option_and_the_suite():
    proc = run_cli("verify", "--suite", "whipple", "--kappa", "1,2,3", "--count", "2")
    assert (proc.returncode, proc.stderr) == (2, "error: --kappa is not used by --suite whipple\n")


def test_bad_command_exits_2():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("connect", "--family", "simplex", "--n", "1").returncode == 2


def test_help_exits_0():
    for args in (("--help",), ("connect", "--help")):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: simplexconn")


def test_csv_artifact(tmp_path):
    proc = run_cli(
        "connect", "--family", "simplex", "--tau", "(12)", "--kappa", "0,0,0",
        "--n", "1", "--output", "csv", "--out", str(tmp_path),
    )
    assert proc.returncode == 0
    files = list(tmp_path.iterdir())
    assert any(f.suffix == ".csv" for f in files)
    csv_text = next(f for f in files if f.suffix == ".csv").read_text()
    assert "-1/2" in csv_text


def test_basis_listing():
    proc = run_cli("basis", "--family", "simplex", "--n", "2", "--kappa", "1/2,1/3,2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["basis"]) == 3


@pytest.mark.parametrize("value", ["bogus", "gmpy2"])
def test_the_cli_reads_no_backend_variable(value):
    # Fraction is the one rational type: a former backend switch in the environment changes nothing
    args = ("basis", "--kappa", "1/2,1/3", "--n", "1")
    plain = run_cli(*args)
    proc = run_cli(*args, env=dict(os.environ, SIMPLEXCONN_BACKEND=value))
    assert plain.returncode == 0 and plain.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")


@pytest.mark.parametrize("args", [
    pytest.param(("connect", "--kappa", "1/0,1,1", "--tau", "(12)", "--n", "1"), id="zero-denominator"),
    pytest.param(("basis", "--kappa", "1", "--n", "1"), id="basis-d0"),
    pytest.param(("verify", "--suite", "racah-orthogonality", "--d", "0"), id="verify-d0"),
    pytest.param(("connect", "--kappa", "1/2,1/3,2", "--tau", "(12)", "--n", "-1"), id="negative-n"),
    pytest.param(("connect", "--family", "hahn", "--kappa", "1/2,1/3,1/4", "--N", "1", "--n", "2",
                  "--tau", "(12)"), id="hahn-N-below-n"),
    pytest.param(("connect", "--family", "kraw", "--rho", "1/4,1/3", "--N", "1", "--n", "2",
                  "--tau", "(12)"), id="kraw-N-below-n"),
    pytest.param(("connect", "--family", "kraw", "--rho", "1/2,1/2", "--N", "2", "--n", "1",
                  "--tau", "(12)"), id="rho-sum-1"),
    pytest.param(("connect", "--family", "kraw", "--rho", "1/2,1,2", "--N", "2", "--n", "1",
                  "--tau", "(12)"), id="rho-sum-above-1"),
    pytest.param(("connect", "--kappa=-1,1,1", "--tau", "(12)", "--n", "1"), id="kappa-minus-1"),
    pytest.param(("connect", "--kappa=-3/2,1,1", "--tau", "(12)", "--n", "1"), id="kappa-below-minus-1"),
    pytest.param(("connect", "--kappa", "1/2,1/3,2", "--tau", "(12", "--n", "1"), id="unbalanced-tau"),
    pytest.param(("verify", "--suite", "sum-identity", "--kappa", "1,2", "--n", "2"), id="sum-identity-kappa-2"),
    pytest.param(("verify", "--suite", "sum-identity", "--kappa", "1,2,3,4", "--n", "2"),
                 id="sum-identity-kappa-4"),
    pytest.param(("connect", "--family", "hahn", "--kappa", "1,1,1", "--N", "3", "--n", "1",
                  "--tau", "(12)", "--method", "gram"), id="hahn-method"),
    pytest.param(("connect", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)", "--method", "closed"),
                 id="simplex-method"),
    pytest.param(("connect", "--family", "hahn", "--kappa", "1,1,1", "--N", "3", "--n", "1",
                  "--tau", "(12)", "--normalized"), id="hahn-normalized"),
    pytest.param(("connect", "--family", "ball", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)",
                  "--method", "closed"), id="ball-method"),
    pytest.param(("connect", "--family", "kraw", "--rho", "1/4,1/3", "--N", "2", "--n", "1",
                  "--tau", "(12)", "--normalized"), id="kraw-normalized"),
    pytest.param(("connect", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)", "--N", "3"), id="simplex-N"),
    pytest.param(("connect", "--family", "ball", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)",
                  "--N", "3"), id="ball-N"),
    pytest.param(("connect", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)", "--rho", "1/3,1/4"),
                 id="simplex-rho"),
    pytest.param(("connect", "--family", "hahn", "--kappa", "1,1,1", "--N", "3", "--n", "1",
                  "--tau", "(12)", "--rho", "1/3,1/4"), id="hahn-rho"),
    pytest.param(("connect", "--family", "kraw", "--rho", "1/4,1/3", "--kappa", "1,1,1", "--N", "2",
                  "--n", "1", "--tau", "(12)"), id="kraw-kappa"),
    pytest.param(("connect", "--family", "ball", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)",
                  "--output", "csv"), id="ball-csv"),
    pytest.param(("connect", "--kappa", "1,1,1", "--n", "1", "--tau", "(12)", "--normalized",
                  "--output", "csv"), id="normalized-csv"),
    pytest.param(("basis", "--kappa", "1,1,1", "--n", "1", "--output", "csv"), id="basis-csv"),
    pytest.param(("verify", "--suite", "dimensions", "--output", "csv"), id="verify-csv"),
    pytest.param(("verify", "--suite", "nonsense"), id="verify-unknown-suite"),
    pytest.param(("verify", "--suite", "whipple", "--kappa", "1,2,3", "--N", "9", "--d", "5", "--count", "2"),
                 id="whipple-kappa-N-d"),
    pytest.param(("verify", "--suite", "whipple", "--n", "2"), id="whipple-n"),
    pytest.param(("verify", "--suite", "orthogonality", "--d", "2", "--N", "3"), id="orthogonality-N"),
    pytest.param(("verify", "--suite", "orthogonality", "--d", "5", "--kappa", "1,2,3", "--n", "1", "--count", "1"),
                 id="orthogonality-d-disagrees-with-kappa"),
    pytest.param(("verify", "--suite", "sum-identity", "--seed", "1"), id="sum-identity-seed"),
    pytest.param(("verify", "--suite", "racah-orthogonality", "--kappa", "1,2,3"), id="racah-kappa"),
    pytest.param(("verify", "--suite", "racah-orthogonality", "--count", "2"), id="racah-count"),
    pytest.param(("verify", "--suite", "example-9-10", "--d", "3"), id="example-d"),
    pytest.param(("verify", "--suite", "dimensions", "--n", "2"), id="dimensions-n"),
    pytest.param(("verify", "--suite", "dimensions", "--seed", "0"), id="dimensions-seed"),
    pytest.param(("verify", "--suite", "orthogonality", "--count", "-1", "--n", "1", "--kappa", "1,2,3"),
                 id="orthogonality-negative-count"),
    pytest.param(("verify", "--suite", "whipple", "--count", "-3"), id="whipple-negative-count"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1", "--foo"), id="unknown-option"),
    pytest.param(("basis", "--family", "sphere", "--kappa", "-1/2,-1/2,-1/2", "--n", "2"), id="minus-kappa"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1"), id="missing-n"),
    pytest.param(("connect", "--family", "jacobi", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1"),
                 id="bad-family"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "one"), id="non-integer-n"),
    pytest.param(("connect", "--tau", "(1 a)", "--kappa", "1/2,1/3,1/4", "--n", "1"), id="letter-in-cycle"),
    pytest.param(("connect", "--tau", "(1 2x)", "--kappa", "1/2,1/3,1/4", "--n", "1"), id="letter-after-entry"),
    pytest.param(("connect", "--tau", "(a)", "--kappa", "1/2,1/3,1/4", "--n", "1"), id="letter-cycle"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1", "--out", __file__),
                 id="out-is-a-file"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1", "--out",
                  os.path.join(__file__, "sub")), id="out-cannot-be-made"),
])
def test_bad_input_exits_2_with_one_line_error(request, args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if request.node.callspec.id == "minus-kappa":
        # argparse reads -1/2,... as an option; the message says how to write the value
        assert proc.stderr == ("error: argument --kappa: expected one argument; "
                               "a value that starts with '-' is written --kappa=-...\n")


def test_csv_matrix_for_each_discrete_family():
    for family, params in (("hahn", ("--kappa", "0,0,0")), ("kraw", ("--rho", "1/4,1/3"))):
        proc = run_cli("connect", "--family", family, *params, "--N", "2", "--n", "1",
                       "--tau", "(12)", "--output", "csv")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()]
        assert rows == json.loads(run_cli("connect", "--family", family, *params, "--N", "2", "--n", "1",
                                          "--tau", "(12)").stdout)["entries"]


def test_kappa_outside_the_domain_names_the_option():
    for kappa in ("--kappa=-1,1,1", "--kappa=1"):
        proc = run_cli("connect", kappa, "--tau", "(12)", "--n", "1")
        assert (proc.returncode, proc.stderr) == (2, "error: --kappa needs at least 2 entries, each > -1\n")


def test_malformed_rational_or_negative_count_names_the_option():
    rational = "error: %s entry %s is not a rational p or p/q with q != 0\n"
    for args, message in (
        (("connect", "--tau", "(12)", "--kappa", "1,,1", "--n", "1"), rational % ("--kappa", "''")),
        (("connect", "--family", "kraw", "--rho", "1/4,x", "--N", "2", "--n", "1", "--tau", "(12)"),
         rational % ("--rho", "'x'")),
        (("verify", "--suite", "orthogonality", "--count", "-1", "--n", "1", "--kappa", "1,2,3"),
         "error: --count must be >= 0\n"),
        (("verify", "--suite", "whipple", "--count", "-3"), "error: --count must be >= 0\n"),
    ):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stderr) == (2, message), args


def test_basis_sphere_matches_library():
    kappa = (R(-1, 2),) * 3
    n = 3
    proc = run_cli("basis", "--family", "sphere", "--kappa=-1/2,-1/2,-1/2", "--n", str(n))
    assert proc.returncode == 0, proc.stderr
    basis = json.loads(proc.stdout)["basis"]
    order = bs.sphere_enumerate(2, n)
    assert len(basis) == len(order) == bs.dim_harmonic(n, 3) == 7
    for elem, (nu, eps) in zip(basis, order):
        assert (elem["nu"], elem["eps"]) == (list(nu), list(eps))
        assert elem["core"] == bs.sphere_basis(nu, eps, kappa, n).core.to_json()
