import json
import subprocess
import sys

import pytest

from simplexconn import ballsphere as bs
from simplexconn import cli
from simplexconn.backend import R


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "simplexconn.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_connect_known_matrix():
    proc = run_cli("connect", "--family", "simplex", "--tau", "(12)", "--kappa", "0,0,0", "--n", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["entries"] == [["-1/2", "3/2"], ["1/2", "1/2"]]
    assert data["order"] == [[1, 0], [0, 1]]


def test_connect_method_both_consistent():
    proc = run_cli(
        "connect", "--family", "simplex", "--tau", "(123)",
        "--kappa", "1/2,1/3,2", "--n", "3", "--method", "both",
    )
    assert proc.returncode == 0


def test_connect_closed_d4_transposition():
    args = ("connect", "--tau", "(12)", "--kappa", "1/2,1/3,1/4,1/5,1/6", "--n", "1")
    closed = run_cli(*args, "--method", "closed")
    assert closed.returncode == 0, closed.stderr
    gram = run_cli(*args, "--method", "gram")
    assert json.loads(closed.stdout) == json.loads(gram.stdout)
    assert run_cli(*args, "--method", "both").returncode == 0


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
    assert set(cli._SUITE_OPTIONS) == set(cli.SUITES)
    assert all(set(reads) <= set(cli._VERIFY_DEFAULTS) for reads in cli._SUITE_OPTIONS.values())


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
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1", "--foo"), id="unknown-option"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1"), id="missing-n"),
    pytest.param(("connect", "--family", "jacobi", "--tau", "(12)", "--kappa", "1,1,1", "--n", "1"),
                 id="bad-family"),
    pytest.param(("connect", "--tau", "(12)", "--kappa", "1,1,1", "--n", "one"), id="non-integer-n"),
])
def test_bad_input_exits_2_with_one_line_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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
