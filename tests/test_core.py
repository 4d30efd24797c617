import ast
import copy
import inspect
import json
import os
import re
import subprocess
import sys
import types
import typing
import warnings
from array import array
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochopt
from conftest import CONFIGS, FIXTURES, REPO
from stochopt import (
    AcoConfig,
    BinPackingInstance,
    Budget,
    BudgetExhaustedError,
    ContinuousLandscape,
    CoolingSchedule,
    Neighborhood,
    NoNeighborError,
    Problem,
    Run,
    TabletopInstance,
    TspInstance,
    UnsupportedOperationError,
    ValidationError,
    cube_fixture,
    hill_climb_first_accept,
    hill_climb_steepest,
    parse_binpacking_file,
    parse_tsp_file,
    pso_run,
    random_search,
    seeded_rng,
    simulated_annealing,
    tabu_search,
)
from stochopt import aco
from stochopt.core import MOVE_TOLERANCE, field_types, success_time


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


def test_importing_the_package_loads_numpy_random():
    """numpy loads `numpy.random` lazily; the package loads it, so no run pays for it."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, stochopt; print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_spawned_streams_are_stable_and_distinct():
    first = [s.random(3).tolist() for s in seeded_rng(3).spawn(4)]
    second = [s.random(3).tolist() for s in seeded_rng(3).spawn(4)]
    assert first == second
    assert len({tuple(row) for row in first}) == 4
    # spawned one at a time, as Hopfield restarts spawn theirs, the same streams
    rng = seeded_rng(3)
    assert [rng.spawn(1)[0].random(3).tolist() for _ in range(4)] == first


def test_budget_rejects_zero_evaluations():
    with pytest.raises(ValidationError):
        Budget(0)
    assert Budget(5).target_fitness is None


NAN, INF = float("nan"), float("inf")


def _wrong_values(kind):
    """Values of the wrong type for a field annotated `kind`."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
    if typing.get_origin(kind) is typing.Annotated:  # a bounded alias: its base's wrong values
        kind = typing.get_args(kind)[0]
    if kind is int:
        return [NAN, INF, 2.5, True, "x", "3"]
    if kind is float:
        return [NAN, INF, True, "x"]
    if kind is str:
        return [2.5, True]  # any text is a str
    if typing.get_origin(kind) is typing.Literal:
        return [2.5, True, "x"]
    return []  # left to the class


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{value!r}")
    for cls in CONFIGS
    for name, kind in field_types(cls).items()
    for value in _wrong_values(kind)
])
def test_every_config_field_refuses_a_value_of_the_wrong_type(cls, name, value):
    with pytest.raises(ValidationError, match=f"'{name}'"):
        cls(**{**CONFIGS[cls], name: value})


def test_neighborhood_is_frozen():
    atoms = np.array([[1, 2]])
    hood = Neighborhood(
        costs=[3.0], broken=atoms, made=atoms, label=lambda k: "swap",
        row=[7].__getitem__,
    )
    assert len(hood) == 1 and hood.label(0) == "swap" and hood.exact(0) == (7, 3.0)
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


class _Undercosted(TspInstance):
    """Every move cost a millionth of the tour length too low."""

    def move_cost(self, tour, f, move):
        return super().move_cost(tour, f, move) - 1e-6 * f


def test_run_refuses_an_improvement_whose_move_cost_disagrees_with_its_cost():
    coords = seeded_rng(4).random((8, 2))
    tour = np.arange(8)
    run = Run(_Undercosted.from_coords(coords), Budget(5), seed=0, algorithm="probe")
    f = run.problem.cost(tour)
    with pytest.raises(ValidationError, match=r"move cost .* full cost"):
        run.evaluate_move(tour, f, (2, 5))
    assert run.best_solution is None
    assert run.best_curve == []
    # the same move, costed correctly, enters the record at its full cost
    exact = Run(TspInstance.from_coords(coords), Budget(5), seed=0, algorithm="probe")
    value = exact.evaluate_move(tour, f, (2, 5))
    built = exact.problem.apply(tour, (2, 5))
    assert exact.best_solution == exact.problem.freeze(built)
    assert value == exact.problem.cost(built)
    assert exact.best_curve == [(1, value)]
    # a search stops at its first improvement from a move
    with pytest.raises(ValidationError, match=r"move cost .* full cost"):
        simulated_annealing(_Undercosted.from_coords(coords), Budget(500), 0)


@pytest.mark.parametrize("search", [
    lambda problem, seed: simulated_annealing(problem, Budget(10_000), seed),
    lambda problem, seed: hill_climb_first_accept(problem, Budget(3000), seed),
], ids=["annealing", "first_accept"])
def test_a_sampled_search_builds_each_kept_move_once(monkeypatch, search):
    """Whole-number packings carry a kept move in `advance` without `apply`, so
    only `Run.evaluate_move` builds one: no (state, move) pair reaches `apply`
    twice.  The pairs are held, so no id is reused."""
    built = {}

    def counted(self, state, move):
        built.setdefault((id(state), id(move)), [state, move, 0])[2] += 1
        return apply(self, state, move)

    apply = BinPackingInstance.apply
    monkeypatch.setattr(BinPackingInstance, "apply", counted)
    problem = parse_binpacking_file(FIXTURES / "pack10.txt")
    for seed in range(5):
        search(problem, seed)
    assert built
    assert max(count for _, _, count in built.values()) == 1


@pytest.mark.parametrize("name", ["pack10", "eight", "cube", "continuous"])
def test_a_sampled_search_leaves_its_problem_as_it_found_it(name):
    """Sampled searches keep their chain in the searcher: no attribute of the
    problem is set, replaced or added along the way, but for a `cached_property`
    of the instance's fixed data, built once on first use and never replaced."""
    problem = {
        "pack10": lambda: parse_binpacking_file(FIXTURES / "pack10.txt"),
        "eight": lambda: parse_tsp_file(FIXTURES / "eight.tsp"),
        "cube": cube_fixture,
        "continuous": lambda: ContinuousLandscape("multimodal_test", dim=3),
    }[name]()
    before = {k: id(v) for k, v in vars(problem).items()}
    simulated_annealing(problem, Budget(3000), 0)
    attributes = {k: id(v) for k, v in vars(problem).items()}
    added = attributes.keys() - before.keys()
    assert all(isinstance(getattr(type(problem), k, None), cached_property) for k in added)
    assert {k: attributes[k] for k in before} == before
    hill_climb_first_accept(problem, Budget(3000), 1)
    simulated_annealing(problem, Budget(3000), 2)
    assert {k: id(v) for k, v in vars(problem).items()} == attributes


def test_a_neighborhood_cost_past_its_window_raises_where_it_is_read():
    atoms = np.array([[1, 2], [3, 4]])
    hood = Neighborhood(
        costs=[3.25, 5.0], broken=atoms, made=atoms, label=str, row=[7, 2].__getitem__,
        window=0.5, cost=_Countdown().cost,
    )
    assert hood.exact(0) == (7, 3.0)  # within the window: read at its full cost
    with pytest.raises(ValidationError, match=r"move cost 5\.0 .* full cost 8\.0"):
        hood.exact(1)


class _Overcosted(TspInstance):
    """Every reversal costed a millionth of the tour length too high."""

    def neighbors(self, solution):
        hood = super().neighbors(solution)
        f = self.cost(solution)
        return replace(hood, costs=[c + 1e-6 * f for c in hood.costs])


@pytest.mark.parametrize("search", [tabu_search, hill_climb_steepest])
def test_searchers_read_neighborhood_costs_in_full_where_they_decide(search):
    coords = seeded_rng(5).random((30, 2))
    with pytest.raises(ValidationError, match=r"move cost .* full cost"):
        search(_Overcosted.from_coords(coords), Budget(2000), 0)
    built = []

    class Counting(TspInstance):
        def apply(self, tour, move):
            built.append(move)
            return super().apply(tour, move)

    record = search(Counting.from_coords(coords), Budget(20 * 432), 0)  # 20 neighborhoods
    # a row per new best, and a few more where ties or twin reversals are settled
    assert len(built) <= len(record.best_curve) + 2 * 20


def test_long_rescaled_annealing_on_irrational_lengths_keeps_its_energies_non_negative():
    """Shifted energies f - best stay >= 0 when moves are costed from their edges.

    A cold, long chain revisits its best tour many times; a move cost a few
    ulps below the recorded best would make the shifted energy negative.
    """
    tour = TspInstance.from_coords(seeded_rng(50).random((50, 2)))
    schedule = CoolingSchedule(t0=0.5, rate=0.9, steps_per_temperature=500)
    rec = simulated_annealing(tour, Budget(60_000), 1, schedule, rescaled=True)
    assert rec.status == "budget_exhausted" and rec.evaluations == 60_000
    assert rec.best_fitness == tour.evaluate(rec.best_solution)


class _FullCostTsp(TspInstance):
    """Tours on the base path: every sampled neighbor built and costed edge by edge.

    Its moves are whole tours, so its chain state is the tour itself."""

    chain = Problem.chain
    move_cost = Problem.move_cost
    apply = Problem.apply
    advance = Problem.advance

    def sample_move(self, tour, rng):
        return TspInstance.apply(self, tour, TspInstance.sample_move(self, tour, rng))


def _penalty_distances(n, penalty, seed):
    """Fractional plane distances, with `penalty` on about a fifth of the edges."""
    rng = seeded_rng(seed)
    coords = rng.random((n, 2))
    d = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
    forbidden = np.triu(rng.random((n, n)) < 0.2, 1)
    d[forbidden | forbidden.T] = penalty
    return d


@pytest.mark.parametrize("penalty", [1e8, 1e10, 1e12])
def test_moves_on_a_penalty_edge_matrix_keep_full_cost_records(penalty):
    """A running cost that has carried 1e10-sized edges is off by their rounding.

    Leaving the last penalty edge lands a fractional tour cost whose
    carried value is off by about ulp(penalty), far more than 1e-9 of
    it; the window scales with the largest cost the run carried, so the
    re-cost resyncs instead of raising.  First-accept moves only to
    costs within the window of the best, so it decides on full costs
    and its records equal a full-costing run's.  Annealing also decides
    away from the best, on carried costs whose rounding can tip a
    Metropolis test, so its record is held to its own checked best.
    """
    d = _penalty_distances(30, penalty, seed=0)
    tour, full_cost = TspInstance(d), _FullCostTsp(d)
    for seed in range(2):
        for walk in (False, True):
            rec = hill_climb_first_accept(tour, Budget(3000), seed, random_walk=walk)
            assert rec == hill_climb_first_accept(full_cost, Budget(3000), seed, random_walk=walk)
        assert rec.best_fitness < penalty
        for rescaled in (False, True):
            rec = simulated_annealing(tour, Budget(10_000), seed, rescaled=rescaled)
            assert rec.evaluations == 10_000
            assert rec.best_fitness == tour.evaluate(rec.best_solution) < penalty
            assert rec.best_curve[-1][1] == rec.best_fitness


def test_a_reversal_that_trades_edges_for_equal_ones_leaves_the_cost_exact():
    """On a lattice, a move whose made edges have its broken edges' lengths is a tie.

    Its move cost is the tour's cost to the bit, so annealing accepts it
    without a draw; a full recompute sums the reordered tour and can
    land an ulp either side.
    """
    grid = TspInstance.from_coords([(x, y) for x in range(4) for y in range(4)])
    d, n, ties = grid.d, grid.n, 0
    for seed in range(4):
        tour = seeded_rng(seed).permutation(n)
        f = grid.cost(tour)
        for i, j in zip(grid._i.tolist(), grid._j.tolist()):
            a, b, c, e = tour[i - 1], tour[i], tour[j], tour[(j + 1) % n]
            if sorted((d[a, c], d[b, e])) == sorted((d[a, b], d[c, e])):
                ties += 1
                assert grid.move_cost(tour, f, (i, j)) == f
    assert ties


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
    assert run.finished and run.evaluations_to_success is None
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


def test_the_best_solution_is_a_copy_frozen_when_read():
    """`Run` keeps a copy of each new best and freezes it where it is read, so
    writing into a solution after it was counted leaves the record as it was."""
    inst = TspInstance.from_coords(seeded_rng(0).random((5, 2)))
    run = Run(inst, Budget(10), seed=0, algorithm="probe")
    assert run.best_solution is None
    x = np.array([0, 2, 1, 3, 4])
    run.evaluate(x)
    x[:] = [4, 3, 2, 1, 0]
    assert run.best_solution == run.record().best_solution == (0, 2, 1, 3, 4)
    with pytest.raises(AttributeError):
        run.best_solution = (0, 1, 2, 3, 4)


def test_a_run_freezes_its_best_solution_once_per_record(monkeypatch):
    freeze, frozen = Problem.freeze, []
    monkeypatch.setattr(Problem, "freeze", lambda self, s: frozen.append(s) or freeze(self, s))
    rec = simulated_annealing(parse_tsp_file(FIXTURES / "eight.tsp"), Budget(3000), 0)
    assert len(rec.best_curve) > 1
    assert len(frozen) == 1


def test_target_crossing_is_stamped_once():
    run = Run(_Countdown(), Budget(10, target_fitness=7.0), seed=0, algorithm="probe")
    run.evaluate(1)
    assert run.evaluations_to_success is None and not run.finished
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


@pytest.mark.parametrize("start", [[5, 4, 3, 2, 1, 0], None], ids=["given", "drawn"])
def test_start_returns_the_first_solution_counted(start):
    tour = TspInstance.from_coords(seeded_rng(2).random((6, 2)))
    run = Run(tour, Budget(5), seed=3, algorithm="probe")
    solution, cost = run.start(start)
    expected = tour.random_solution(seeded_rng(3)) if start is None else np.array(start)
    assert np.array_equal(solution, expected)
    assert cost == tour.cost(expected)
    assert run.evaluations == 1
    assert run.best_curve == [(1, cost)]


def test_evaluate_rows_costs_every_row_and_counts_up_to_the_target_row():
    run = Run(_Countdown(), Budget(10, target_fitness=6.0), seed=0, algorithm="probe")
    costs, counted = run.evaluate_rows([1, 3, 5, 2, 7])
    assert costs == [9.0, 7.0, 5.0, 8.0, 3.0]
    assert counted == run.evaluations == run.evaluations_to_success == 3
    assert run.best_curve == [(1, 9.0), (2, 7.0), (3, 5.0)]


@pytest.mark.parametrize("search, problem", [
    (random_search, TspInstance.from_coords(seeded_rng(6).random((9, 2)))),
    (pso_run, ContinuousLandscape("multimodal_test", dim=3)),
    (aco.aco_run, TspInstance.from_coords(seeded_rng(6).random((9, 2)))),
], ids=["random", "swarm", "ants"])
def test_block_searchers_cost_rows_only_inside_evaluate_rows(monkeypatch, search, problem):
    depth, calls = [0], []
    evaluate_rows, cost_rows = Run.evaluate_rows, type(problem).cost_rows

    def meter(self, rows):
        depth[0] += 1
        try:
            return evaluate_rows(self, rows)
        finally:
            depth[0] -= 1

    def watched(self, rows):
        calls.append(depth[0])
        return cost_rows(self, rows)

    monkeypatch.setattr(Run, "evaluate_rows", meter)
    monkeypatch.setattr(type(problem), "cost_rows", watched)
    search(problem, Budget(150), 0)
    assert calls and all(calls)


def test_base_problem_refuses_enumeration():
    with pytest.raises(UnsupportedOperationError):
        Problem().neighbors(None)


class _Ring(Problem):
    """The least a problem kind writes: positions on a ring of 40, stepped one either way."""

    kind = "ring"

    def validate(self, solution):
        if isinstance(solution, (int, np.integer)) and 0 <= solution < 40:
            return int(solution)
        raise ValidationError(f"no position {solution!r} on the ring")

    def cost(self, x):
        return float((x * 7) % 11) + abs(x - 25) / 4

    def random_solution(self, rng):
        return int(rng.integers(40))

    def sample_move(self, x, rng):
        return (x + (1 if rng.random() < 0.5 else -1)) % 40


def test_a_kind_with_only_the_four_required_methods_runs_every_sampled_searcher():
    """`validate`, `cost`, `random_solution` and `sample_move` are all a sampled search needs.

    Annealing calibrates its starting temperature through
    `sample_neighbor`, which the base class composes from `sample_move`.
    """
    ring = _Ring()
    records = [
        random_search(ring, Budget(300), 0),
        hill_climb_first_accept(ring, Budget(300), 1),
        hill_climb_first_accept(ring, Budget(300), 2, start=np.int64(3), random_walk=True),
        simulated_annealing(ring, Budget(300), 3),
    ]
    for rec in records:
        assert rec.evaluations == 300
        assert ring.evaluate(rec.best_solution) == rec.best_fitness
    assert records[3].extras["t0"] > 0
    assert records[2].best_curve[0] == (1, ring.cost(3))
    assert ring.sample_neighbor(5, seeded_rng(4)) == ring.sample_move(5, seeded_rng(4))


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
        scores = aco.edge_desirability(np.full((problem.n, problem.n), cfg.tau0), eta, cfg)
        for tour in aco._build_tours(scores, rng.spawn(steps), []):
            check(tour)
    for _ in range(steps):
        hood = [] if kind == "continuous" else problem.neighbors(current)
        for neighbor in [hood.row(k) for k in range(len(hood))]:
            check(neighbor)
        try:
            current = problem.sample_neighbor(current, rng)
        except NoNeighborError:
            assert len(hood) == 0
            return
        check(current)


def _reference_tour_neighbor(tour, rng):
    """A uniformly drawn reversal other than the three that keep the cycle."""
    n = len(tour)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not (i == 0 and j >= n - 2) and not (i == 1 and j == n - 1)]
    if not pairs:
        return np.array(tour)
    i, j = pairs[int(rng.integers(len(pairs)))]
    return np.concatenate((tour[:i], tour[i : j + 1][::-1], tour[j + 1 :]))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["tsp", "binpacking", "cube", "continuous"]),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 25),
)
@example(kind="tsp", n=1, seed=0, steps=3)
@example(kind="tsp", n=2, seed=0, steps=3)
@example(kind="tsp", n=3, seed=0, steps=3)
@example(kind="tsp", n=4, seed=0, steps=25)
def test_a_sampled_move_builds_and_costs_the_sampled_neighbor(kind, n, seed, steps):
    """`sample_move`, `move_cost` and `apply` agree with `sample_neighbor` and `cost`.

    Along a random chain, two identically seeded generators give the
    same neighbor through either path and are left in the same state,
    and for tours that neighbor is the one a reference draw of a
    non-trivial reversal gives; the move's cost matches the built
    neighbor's full cost within `MOVE_TOLERANCE` of the largest cost the
    chain has carried (exactly for every kind but tours),
    also when the cost is carried along the chain; and `apply` leaves the
    solution it starts from untouched.
    """
    problem = _instance(kind, n, seeded_rng(seed))
    chain = seeded_rng(seed + 1)
    rng, rng2, rng3 = seeded_rng(seed + 2), seeded_rng(seed + 2), seeded_rng(seed + 2)
    x = problem.random_solution(chain)
    state, f = problem.chain(x), problem.cost(x)
    scale = max(1.0, abs(f))
    for _ in range(steps):
        try:
            move = problem.sample_move(state, rng)
        except NoNeighborError:
            with pytest.raises(NoNeighborError):
                problem.sample_neighbor(x, rng2)
            return
        neighbor = problem.sample_neighbor(x, rng2)
        assert rng.bit_generator.state == rng2.bit_generator.state
        if kind == "tsp":
            assert np.array_equal(neighbor, _reference_tour_neighbor(x, rng3))
        before = copy.deepcopy(x)
        y = problem.apply(state, move)
        assert problem.freeze(y) == problem.freeze(neighbor)
        assert problem.freeze(x) == problem.freeze(before)
        full = problem.cost(y)
        scale = max(scale, abs(full))
        tolerance = MOVE_TOLERANCE * scale if kind == "tsp" else 0.0
        assert abs(problem.move_cost(state, problem.cost(x), move) - full) <= tolerance
        f_y = problem.move_cost(state, f, move)  # from a cost carried along the chain
        assert abs(f_y - full) <= tolerance
        if chain.random() < 0.8:  # move on, as a search mostly does
            x, state, f = y, problem.advance(state, move), f_y


def test_the_base_chain_state_is_the_solution():
    """A kind that draws whole neighbours carries the solution itself."""
    cube, rng = cube_fixture(), seeded_rng(0)
    x = cube.random_solution(rng)
    assert cube.chain(x) is x
    move = cube.sample_move(x, rng)
    assert cube.advance(x, move) == cube.apply(x, move) == move


@pytest.mark.parametrize("kind", [TspInstance, BinPackingInstance, TabletopInstance,
                                  ContinuousLandscape], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("method", ["chain", "sample_move", "move_cost", "apply", "advance",
                                    "sample_neighbor"])
def test_a_kind_takes_the_move_parameters_of_problem_and_no_more(kind, method):
    """The searchers pass a move method `Problem`'s parameters alone, so a kind's
    extra parameter, or a default on one of them, would never be passed."""
    params = inspect.signature(getattr(kind, method)).parameters.values()
    assert len(params) == len(inspect.signature(getattr(Problem, method)).parameters)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


def _plain(state):
    """A chain state as nested Python values, each float by its bits, for `==`:
    a copy, so a state changed in place no longer equals it."""
    if isinstance(state, (tuple, list)):
        return type(state)(_plain(part) for part in state)
    if isinstance(state, np.ndarray):
        return state.dtype.str, _plain(state.tolist())
    if isinstance(state, array):
        return state.typecode, _plain(state.tolist())
    return state.hex() if isinstance(state, float) else state


def _chain_instance(kind, n, rng) -> Problem:
    if kind == "whole":
        capacity = int(rng.integers(2, 1000))
        return BinPackingInstance(rng.integers(1, capacity + 1, size=n), capacity=capacity)
    return _instance("binpacking" if kind == "fractional" else kind, n, rng)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["tsp", "whole", "fractional", "cube", "continuous"]),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
)
@example(kind="tsp", n=140, seed=0, steps=40)
@example(kind="tsp", n=300, seed=1, steps=40)
def test_a_carried_chain_state_is_that_of_its_solution(kind, n, seed, steps):
    """Two chains interleaved on one instance, driven by `chain`,
    `sample_move`, `move_cost` and `advance`, each carry the state a fresh
    `chain` of their solution gives; every move costs what it builds (bit
    for bit but on tours, where a carried cost may round within
    `MOVE_TOLERANCE` of the largest cost seen); and no call changes the
    state it is given.
    """
    rng = seeded_rng(seed)
    problem = _chain_instance(kind, n, rng)
    chains = []
    for _ in range(2):
        x = problem.random_solution(rng)
        chains.append([problem.chain(x), problem.cost(x)])
    scale = max(1.0, *(abs(f) for _, f in chains))
    for _ in range(steps):
        for link in chains:
            state, f = link
            before = _plain(state)
            try:
                move = problem.sample_move(state, rng)
            except NoNeighborError:
                return
            value = problem.move_cost(state, f, move)
            built = problem.apply(state, move)
            full = problem.cost(built)
            scale = max(scale, abs(value), abs(full))
            if kind == "tsp":
                assert abs(value - full) <= MOVE_TOLERANCE * scale
            else:
                assert value.hex() == full.hex()
            keep = rng.random()
            if keep < 0.7:  # move on, as a search mostly does
                after = problem.advance(state, move)
                assert _plain(after) == _plain(problem.chain(built))
                link[:] = after, value
            assert _plain(state) == before
