import ast
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochopt
from conftest import REPO
from stochopt import (
    BinPackingInstance,
    Budget,
    BudgetExhaustedError,
    ContinuousLandscape,
    Move,
    NoNeighborError,
    Problem,
    Run,
    TspInstance,
    UnsupportedOperationError,
    ValidationError,
    cube_fixture,
    seeded_rng,
)
from stochopt.core import split_streams, success_time


def test_the_package_root_exports_exactly_its_public_api():
    names = stochopt.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(stochopt, name)

    readme = (REPO / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert sources, "the README has no python block"
    sources += [p.read_text() for p in sorted((REPO / "demos").glob("*.py"))]
    imported = {
        alias.name
        for src in sources
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.ImportFrom) and node.module == "stochopt"
        for alias in node.names
    }
    assert imported <= set(names), sorted(imported - set(names))

    unlisted = {n for n in dir(stochopt) if not n.startswith("_")} - set(names)
    assert all(inspect.ismodule(getattr(stochopt, n)) for n in unlisted), sorted(unlisted)


def test_seeded_rng_is_reproducible():
    a = seeded_rng(7).random(5)
    b = seeded_rng(7).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, seeded_rng(8).random(5))


def test_split_streams_are_stable_and_distinct():
    first = [s.random(3).tolist() for s in split_streams(seeded_rng(3), 4)]
    second = [s.random(3).tolist() for s in split_streams(seeded_rng(3), 4)]
    assert first == second
    assert len({tuple(row) for row in first}) == 4


def test_budget_rejects_zero_evaluations():
    with pytest.raises(ValidationError):
        Budget(0)
    assert Budget(5).target_fitness is None


def test_move_is_frozen():
    m = Move(attributes=(1, 2), reverse_attributes=(2, 1), label="swap")
    with pytest.raises(AttributeError):
        m.label = "other"


class _Countdown(Problem):
    """Cost 10 - solution; solutions are small ints."""

    kind = "state"

    def evaluate(self, solution):
        return 10.0 - solution

    def freeze(self, solution):
        return int(solution)


def test_run_counts_and_enforces_budget():
    run = Run(_Countdown(), Budget(3), seed=0, algorithm="probe")
    for s in (1, 2, 3):
        run.evaluate(s)
    assert run.evaluations == 3
    assert run.out_of_budget
    with pytest.raises(BudgetExhaustedError):
        run.evaluate(4)


def test_best_curve_records_strict_improvements_only():
    run = Run(_Countdown(), Budget(10), seed=0, algorithm="probe")
    for s in (1, 3, 3, 2, 5):
        run.evaluate(s)
    # improvements at evaluations 1, 2 and 5; the repeat and the worse
    # candidate leave no trace
    assert run.best_curve == [(1, 9.0), (2, 7.0), (5, 5.0)]
    assert run.best_fitness == 5.0
    assert run.best_solution == 5


def test_target_crossing_is_stamped_once():
    run = Run(_Countdown(), Budget(10, target_fitness=7.0), seed=0, algorithm="probe")
    run.evaluate(1)
    assert not run.target_reached
    run.evaluate(3)
    assert run.evaluations_to_success == 2
    run.evaluate(9)
    assert run.evaluations_to_success == 2
    assert run.finished
    rec = run.record()
    assert rec.status == "target_reached"


def test_record_reports_budget_exhaustion():
    run = Run(_Countdown(), Budget(1), seed=0, algorithm="probe")
    run.evaluate(1)
    rec = run.record()
    assert rec.status == "budget_exhausted"
    assert rec.evaluations_to_success is None


def test_record_roundtrips_through_json():
    run = Run(_Countdown(), Budget(4, target_fitness=8.0), seed=11, algorithm="probe")
    for s in (1, 2):
        run.evaluate(s)
    rec = run.record(extras={"note": 1})
    blob = json.dumps(rec.to_dict(), sort_keys=True)
    again = json.loads(blob)
    assert again["algorithm"] == "probe"
    assert again["seed"] == 11
    assert again["best_curve"] == [[1, 9.0], [2, 8.0]]
    assert again["extras"] == {"note": 1}


def test_success_time_reads_the_curve():
    run = Run(_Countdown(), Budget(10), seed=0, algorithm="probe")
    for s in (1, 3, 7):
        run.evaluate(s)
    rec = run.record()
    assert success_time(rec, 7.0) == 2
    assert success_time(rec, 3.0) == 3
    assert success_time(rec, 1.0) is None


def test_base_problem_refuses_enumeration():
    with pytest.raises(UnsupportedOperationError):
        Problem().neighbors(None)


def test_freeze_handles_numpy_types():
    p = Problem()
    assert p.freeze(np.array([1, 2])) == (1, 2)
    assert p.freeze(np.int64(4)) == 4
    assert isinstance(p.freeze(np.float64(0.5)), float)
    assert p.freeze([3, 4]) == (3, 4)


def _instance(kind: str, n: int, rng) -> Problem:
    if kind == "tsp":
        return TspInstance.from_coords(rng.random((n, 2)))
    if kind == "binpacking":
        return BinPackingInstance(rng.uniform(0.05, 1.0, size=n))
    if kind == "cube":
        return cube_fixture()
    return ContinuousLandscape(("abs_linear", "multimodal_test")[n % 2], dim=n)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["tsp", "binpacking", "cube", "continuous"]),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 12),
)
def test_neighbors_are_valid_by_construction(kind, n, seed, steps):
    """What `sample_neighbor` and `neighbors` build passes `validate` unchanged.

    Only `evaluate` validates, so every solution a problem builds itself
    must already be valid and freeze exactly as its canonical form does.
    """
    rng = seeded_rng(seed)
    problem = _instance(kind, n, rng)

    def check(solution):
        assert problem.freeze(problem.validate(solution)) == problem.freeze(solution)

    current = problem.random_solution(rng)
    check(current)
    for _ in range(steps):
        hood = [] if kind == "continuous" else problem.neighbors(current)
        for neighbor, _ in hood:
            check(neighbor)
        try:
            current = problem.sample_neighbor(current, rng)
        except NoNeighborError:
            assert not hood
            return
        check(current)
