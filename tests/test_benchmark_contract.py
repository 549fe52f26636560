"""The names and workloads that the benchmark under perfbench/ relies on.

perfbench calls simplexconn in-process and wraps named functions for its
per-layer counts, so a rename or a changed result in simplexconn can break
it without any other test noticing.  These checks read perfbench/ and
change nothing in it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.SPANS + tracer.COUNTS])
def test_traced_name_resolves(module, attr):
    owner, name = tracer.resolve(module, attr)
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_runs_and_checks(name):
    results = {}
    ops = workloads.build(name, 0, small=True)
    for op in ops:
        workloads.reset_caches()
        results[op.label] = op.run()
    for op in ops:
        assert op.check(results[op.label], results) is None, op.label
