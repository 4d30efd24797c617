import ast
import inspect
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochopt
from conftest import REPO
from stochopt import (
    AcoConfig,
    BinPackingInstance,
    Budget,
    BudgetExhaustedError,
    ContinuousLandscape,
    Neighborhood,
    NoNeighborError,
    Problem,
    Run,
    TspInstance,
    UnsupportedOperationError,
    ValidationError,
    cube_fixture,
    hill_climb_first_accept,
    hill_climb_steepest,
    seeded_rng,
    simulated_annealing,
    tabu_search,
)
from stochopt import aco
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


def test_neighborhood_is_frozen():
    atoms = np.array([[1, 2]])
    hood = Neighborhood(
        solutions=[7], costs=[3.0], broken=atoms, made=atoms, label=lambda k: "swap"
    )
    assert len(hood) == 1 and hood.label(0) == "swap"
    with pytest.raises(AttributeError):
        hood.costs = [4.0]


class _Countdown(Problem):
    """Cost 10 - solution; solutions are small ints."""

    kind = "state"

    def validate(self, solution):
        return int(solution)

    def cost(self, solution):
        return 10.0 - solution

    def freeze(self, solution):
        return int(solution)


def test_an_invalid_improvement_is_refused_where_it_would_enter_the_record():
    inst = TspInstance.from_coords(seeded_rng(0).random((5, 2)))
    run = Run(inst, Budget(10), seed=0, algorithm="probe")
    run.evaluate(np.arange(5))
    first = run.best_curve[:]
    # a tour that repeats one city costs 0, so it would be an improvement
    with pytest.raises(ValidationError, match="every city exactly once"):
        run.evaluate(np.zeros(5, dtype=np.intp))
    assert run.evaluations == 2
    assert run.best_curve == first
    assert run.best_solution == (0, 1, 2, 3, 4)


class _Drifting(_Countdown):
    """`validate` canonicalizes to a different solution, so `evaluate` != `cost`."""

    def validate(self, solution):
        return int(solution) + 1


def test_run_refuses_an_improvement_whose_cost_disagrees_with_evaluate():
    run = Run(_Drifting(), Budget(5), seed=0, algorithm="probe")
    with pytest.raises(ValidationError, match=r"cost 9\.0 .* evaluation 8\.0"):
        run.evaluate(1)
    assert run.best_solution is None
    assert run.best_curve == []
    # a precomputed value is held to the same check, and skips `cost`
    run = Run(_Countdown(), Budget(5), seed=0, algorithm="probe")
    assert run.evaluate(4, value=6.0) == 6.0
    assert run.evaluate(3, value=100.0) == 100.0  # no improvement: taken as given
    with pytest.raises(ValidationError, match=r"cost 5\.5 .* evaluation 5\.0"):
        run.evaluate(5, value=5.5)
    assert run.best_curve == [(1, 6.0)]


@pytest.mark.parametrize("search", [
    lambda p, start: simulated_annealing(p, Budget(50), 0, start=start),
    lambda p, start: hill_climb_first_accept(p, Budget(50), 0, start=start),
    lambda p, start: hill_climb_steepest(p, Budget(50), 0, start=start),
    lambda p, start: tabu_search(p, Budget(50), 0, start=start),
], ids=["annealing", "first_accept", "steepest", "tabu"])
@pytest.mark.parametrize("kind, start", [
    ("tsp", [0, 1, 1, 3, 4]),
    ("tsp", [0, 1, 2]),
    ("binpacking", [0, 1, 2, 3, 5]),
    ("cube", 8),
], ids=["repeated-city", "short-tour", "bin-out-of-range", "no-such-state"])
def test_an_invalid_start_fails_before_any_evaluation(monkeypatch, search, kind, start):
    problem = _instance(kind, 5, seeded_rng(1))
    monkeypatch.setattr(Run, "evaluate", lambda *a: pytest.fail("an evaluation ran"))
    with pytest.raises(ValidationError):
        search(problem, start)


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

    Inside a run candidates are costed with `cost`, which does not
    validate, so every solution a problem builds itself must already be
    valid, freeze exactly as its canonical form does, and cost exactly
    (`==`) what the checked `evaluate` gives.  Ant tours are checked in
    the form `aco_run` meters them.
    """
    rng = seeded_rng(seed)
    problem = _instance(kind, n, rng)

    def check(solution):
        assert problem.freeze(problem.validate(solution)) == problem.freeze(solution)
        assert problem.cost(solution) == problem.evaluate(solution)

    current = problem.random_solution(rng)
    check(current)
    if kind == "tsp":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg, eta = aco._resolved(AcoConfig(), problem)
        tau = np.full((problem.n, problem.n), cfg.tau0)
        for _ in range(steps):
            check(aco._build_tour(tau, eta, cfg, rng))
    for _ in range(steps):
        hood = [] if kind == "continuous" else problem.neighbors(current).solutions
        for neighbor in hood:
            check(neighbor)
        try:
            current = problem.sample_neighbor(current, rng)
        except NoNeighborError:
            assert len(hood) == 0
            return
        check(current)
