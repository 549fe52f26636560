"""The names and workloads that the benchmark under perfbench/ relies on.

perfbench calls simplexconn in-process and wraps named functions for its
per-layer counts, so a rename or a changed result in simplexconn can break
it without any other test noticing.  These checks read perfbench/ and
change nothing in it.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import simplexconn

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
