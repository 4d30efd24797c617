"""Every name the benchmark's tracer wraps still exists in the library.

`benchmarks/tracer.py` wraps library functions by module, class and
attribute name, and raises `MissingTarget` when one is gone; that only
shows when a traced benchmark pass runs.  Here each target is resolved
the way the tracer resolves it, without installing a wrapper, so a
rename in `src` fails the test suite as well.  Every span a workload in
`benchmarks/workloads.py` must see called is one the tracer declares.
"""

import importlib.util
import sys

import pytest
from conftest import REPO


def _load(name):
    """A benchmark module by file, registered under a private name (its dataclasses need one)."""
    spec = importlib.util.spec_from_file_location(
        f"_benchmark_{name}", REPO / "benchmarks" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{name}@{owner}") for name, owner, attr in TRACER.TARGETS
])
def test_every_traced_name_resolves(owner, attr):
    obj = TRACER._resolve(owner)
    assert callable(getattr(obj, attr, None)), f"{owner}.{attr} no longer exists"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_exercised_span_is_declared(workload):
    declared = {name for name, _, _ in TRACER.TARGETS}
    assert set(WORKLOADS[workload].exercises) <= declared
