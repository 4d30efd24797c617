"""Every name the benchmark's tracer wraps still exists in the library.

`benchmarks/tracer.py` wraps library functions by module, class and
attribute name, and raises `MissingTarget` when one is gone; that only
shows when a traced benchmark pass runs.  Here each target is resolved
the way the tracer resolves it, without installing a wrapper, so a
rename in `src` fails the test suite as well.  Every span a workload in
`benchmarks/workloads.py` must see called is one the tracer declares,
the tracer times exactly the searchers the command line runs, and every
`Run.x`, `Problem.x`, `Neighborhood.x` or `TankNet.x` the README names
in backticks is a method or property of that class.
"""

import importlib.util
import re
import sys

import pytest
from conftest import REPO

from stochopt import Neighborhood, Problem, Run
from stochopt.cli import ALGORITHMS
from stochopt.hopfield import TankNet


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


def test_the_tracer_times_exactly_the_searchers_the_command_line_runs():
    assert set(TRACER.ENTRY_POINTS) == {entry for entry, _ in ALGORITHMS.values()}


README_CLASSES = {"Run": Run, "Problem": Problem, "Neighborhood": Neighborhood,
                  "TankNet": TankNet}


@pytest.mark.parametrize("owner, attr", sorted(set(re.findall(
    rf"`({'|'.join(README_CLASSES)})\.(\w+)", (REPO / "README.md").read_text(encoding="utf-8")))))
def test_every_attribute_the_readme_names_exists(owner, attr):
    assert hasattr(README_CLASSES[owner], attr), f"README names {owner}.{attr}, which is gone"
