"""Every name the benchmark's tracer wraps still exists in the library.

`benchmarks/tracer.py` wraps library functions by module, class and
attribute name, and raises `MissingTarget` when one is gone; that only
shows when a traced benchmark pass runs.  Here each target is resolved
the way the tracer resolves it, without installing a wrapper, so a
rename in `src` fails the test suite as well.
"""

import importlib.util

import pytest
from conftest import REPO


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracer", REPO / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{name}@{owner}") for name, owner, attr in TRACER.TARGETS
])
def test_every_traced_name_resolves(owner, attr):
    obj = TRACER._resolve(owner)
    assert callable(getattr(obj, attr, None)), f"{owner}.{attr} no longer exists"

