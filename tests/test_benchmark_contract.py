"""The names and workloads that the benchmark under perfbench/ relies on.

perfbench calls simplexconn in-process and wraps named functions for its
per-layer counts, so a rename or a changed result in simplexconn can break
it without any other test noticing.  These checks read perfbench/ and
change nothing in it.
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import simplexconn
from simplexconn import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.SPANS + tracer.COUNTS])
def test_traced_name_resolves(module, attr):
    owner, name = tracer.resolve(module, attr)
    assert callable(getattr(owner, name))


def module_caches():
    """Every module-level *_CACHE dict in simplexconn, by qualified name."""
    out = {}
    for info in pkgutil.iter_modules(simplexconn.__path__):
        module = importlib.import_module(f"simplexconn.{info.name}")
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                out[f"{info.name}.{attr}"] = value
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_runs_and_checks(name):
    results = {}
    ops = workloads.build(name, 0, small=True)
    caches = module_caches()
    assert caches
    for op in ops:
        workloads.reset_caches()
        results[op.label] = op.run()
        # each op starts cold: reset_caches empties every cache the op filled
        workloads.reset_caches()
        assert {k: len(v) for k, v in caches.items() if v} == {}, op.label
    for op in ops:
        assert op.check(results[op.label], results) is None, op.label


def test_traced_closed_forms_round_sees_the_local_rule_and_the_cycle_form():
    # the per-layer rows read these counts: an integer refactor must still reach
    # both functions through the names the tracer rebinds
    ops = workloads.build("closed-forms", 0, small=True)
    trace = tracer.Tracer()
    trace.install()
    try:
        for op in ops:
            workloads.reset_caches()
            trace.begin_op()
            op.run()
    finally:
        trace.uninstall()
        workloads.reset_caches()
    assert trace.counts["closed_forms.cc_2d_entry.calls"] > 0
    assert trace.counts["closed_forms.cc_cyclic_hat.calls"] > 0


# The two argv shapes of the verify-session workload, at small sizes.
def test_verify_session_orthogonality_argv(capsys):
    argv = ["verify", "--suite", "orthogonality", "--d", "2", "--n", "1", "--kappa", "1/3,2/5,3/7",
            "--count", "3", "--seed", "4711"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["suite"], report["seed"], report["failures"]) == ("orthogonality", 4711, [])


def test_verify_session_connect_argv(capsys):
    argv = ["connect", "--tau", "(1342)", "--kappa", "1/3,2/5,3/7,5/11", "--n", "1", "--normalized"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["normalized"]["entries"]) == len(payload["entries"]) == 3
