"""Tests of the benchmark itself: negative controls, smoke runs and tracing.

Run from the repository root with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run

run.load_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from simplexconn import connection  # noqa: E402
from simplexconn.exact_arith import QSqrt  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def corrupt(result, how):
    """A copy of a matrix result with its last nonzero entry changed or negated."""
    rows = [list(r) for r in (result.rows if isinstance(result, connection.ConnMatrix) else result)]
    i, j = max((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
               if (v.sign if isinstance(v, QSqrt) else v) != 0)
    v = rows[i][j]
    if how == "sign":
        rows[i][j] = -v
    else:
        rows[i][j] = QSqrt(v.sign, 2 * v.radicand) if isinstance(v, QSqrt) else v + 1
    if isinstance(result, connection.ConnMatrix):
        return connection.ConnMatrix(result.d, result.n, rows, result.order)
    return rows


def run_ops(ops):
    results = {}
    for op in ops:
        workloads.reset_caches()
        results[op.label] = op.run()
    return results


@pytest.mark.parametrize("name", ["gram-oracle", "closed-forms", "lattice"])
def test_checks_reject_one_changed_entry_and_one_flipped_sign(name):
    ops = workloads.build(name, 1, small=True)
    results = run_ops(ops)
    for op in ops:
        assert op.check(results[op.label], results) is None, op.label
        for how in ("entry", "sign"):
            bad = corrupt(results[op.label], how)
            assert op.check(bad, dict(results, **{op.label: bad})) is not None, (op.label, how)


@pytest.mark.parametrize("how", ["entry", "sign"])
def test_verify_session_check_rejects_a_corrupted_matrix(how):
    """The CLI reads matrices from gram_connection; one bad entry must fail the call."""
    real = connection.gram_connection

    def corrupted(tau, kappa, n):
        mat = real(tau, kappa, n)
        return mat if tau.is_identity() else corrupt(mat, how)

    for op in workloads.build("verify-session", 1, small=True):
        undo = tracing.rebind(connection, "gram_connection", corrupted)
        try:
            workloads.reset_caches()
            result = op.run()
        finally:
            tracing.undo(undo)
        assert op.check(result, {}) is not None, op.label
        workloads.reset_caches()
        assert op.check(op.run(), {}) is None, op.label


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_on_tiny_inputs(name, trace):
    result, details = run.run_workload(name, 3, 0.0, trace, small=True, probes=1)
    assert result["correct"], details["errors"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.build(name, 3, small=True)) * details["rounds"]
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_lists_what_the_runner_prints():
    assert [m["name"] for m in BENCH["end_to_end"]] == [k for k, _ in run.END_TO_END]
    assert [m["name"] for m in BENCH["per_layer"]] == [k for k, _ in run.PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_normalized_time_does_not_see_a_uniformly_slower_host():
    wall = 0.2
    assert wall * hostspeed.scale(hostspeed.REF_S, hostspeed.REF_S) == wall
    slow = 1.7
    assert slow * wall * hostspeed.scale(slow * hostspeed.REF_S, slow * hostspeed.REF_S) \
        == pytest.approx(wall)


def test_tracer_rebinds_every_by_name_import():
    originals = []
    for module_name, attr, _ in tracing.SPANS + tracing.COUNTS:
        owner, name = tracing.resolve(module_name, attr)
        originals.append(getattr(owner, name))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in tracing._package_modules():
            for name, value in vars(module).items():
                assert not any(value is f for f in originals), (module.__name__, name)
    finally:
        tracer.uninstall()
    for (module_name, attr, _), fn in zip(tracing.SPANS + tracing.COUNTS, originals):
        owner, name = tracing.resolve(module_name, attr)
        assert getattr(owner, name) is fn


def test_two_traced_runs_give_identical_counts():
    def counts():
        result, _ = run.run_workload("closed-forms", 5, 0.0, 1, small=True, probes=1)
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    first = counts()
    assert first["exact_arith.pochhammer.calls"] > 0
    assert first["closed_forms.gram_fallbacks"] > 0
    assert first == counts()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "gram-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
