"""One stop rule: every searcher ends its run at the evaluation that finishes it.

Each searcher runs on budgets that end part way through what it
evaluates together (a neighbourhood, a calibration walk or temperature
step, a swarm sweep, an ant iteration) and on targets it reaches.  A spy
on `Run.evaluate` fails the test if a searcher asks for an evaluation
once its run has finished, so no searcher relies on
`BudgetExhaustedError` to stop; a target stop must end at the
evaluation that reached the target.  Ants build the tours of an
iteration together: a budget stop builds exactly the tours it counts,
and a target stop may build the rest of its last iteration, as a swarm
costs the rest of its sweep, but only counted tours lay a deposit.
"""

from types import SimpleNamespace

import pytest

from conftest import FIXTURES
from stochopt import (
    Budget,
    ContinuousLandscape,
    CoolingSchedule,
    Run,
    SwarmConfig,
    TankParams,
    TspInstance,
    aco_run,
    hill_climb_first_accept,
    hill_climb_steepest,
    hopfield_solve,
    parse_tsp_file,
    pso_run,
    random_search,
    seeded_rng,
    simulated_annealing,
    tabu_search,
)
from stochopt import aco

EIGHT = parse_tsp_file(FIXTURES / "eight.tsp")  # 25 neighbours per tour, 8 ants by default
UNIT5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)), name="unit5")  # decodes are valid
LINE = ContinuousLandscape("abs_linear")

# name: (problem, searcher(problem, budget) -> record, batch size a target must fall inside)
SEARCHERS = {
    "random": (EIGHT, lambda p, b: random_search(p, b, 0), 1),
    "first_accept": (EIGHT, lambda p, b: hill_climb_first_accept(p, b, 0), 1),
    "steepest": (EIGHT, lambda p, b: hill_climb_steepest(p, b, 0, restart_on_optimum=True), 1),
    "annealing": (
        EIGHT,
        lambda p, b: simulated_annealing(p, b, 0, CoolingSchedule(steps_per_temperature=30)),
        1,
    ),
    "tabu": (EIGHT, lambda p, b: tabu_search(p, b, 0), 1),
    "hopfield": (UNIT5, lambda p, b: hopfield_solve(p, b, 0, TankParams(d=40.0), restarts=40), 1),
    "swarm": (LINE, lambda p, b: pso_run(p, b, 0, SwarmConfig(size=20)), 20),
    "ants": (EIGHT, lambda p, b: aco_run(p, b, 0), 8),
}

BUDGET_CASES = [
    ("random", 7),
    ("first_accept", 7),
    ("steepest", 13),  # the start, then 12 of the first 25 neighbours
    ("steepest", 500),  # across local optima and restarts
    ("annealing", 50),  # inside the 101-evaluation calibration walk
    ("annealing", 250),  # inside a temperature step of 30 proposals
    ("tabu", 13),
    ("tabu", 500),  # (500 - 1) % 25 != 0: inside a neighbourhood
    ("hopfield", 3),  # fewer than its 40 restarts
    ("swarm", 7),  # inside the first sweep
    ("swarm", 50),  # inside the third sweep
    ("ants", 12),  # inside the second iteration
    ("ants", 100),  # inside the thirteenth iteration
]


@pytest.fixture(autouse=True)
def tours(monkeypatch):
    """Fail an evaluation asked for once the run has finished; list the tours ants build
    and the tours that lay a local deposit."""
    evaluate = Run.evaluate

    def guarded(run, solution, value=None):
        if run.finished:
            pytest.fail(f"{run.algorithm} asked for evaluation {run.evaluations + 1} "
                        f"after its run finished")
        return evaluate(run, solution, value)

    monkeypatch.setattr(Run, "evaluate", guarded)
    seen = SimpleNamespace(built=[], deposited=[])
    build, deposit = aco._build_tours, aco.local_update

    def building(*args):
        block = build(*args)
        seen.built.extend(block)
        return block

    def depositing(tau, block, cfg):
        seen.deposited.extend(block)
        deposit(tau, block, cfg)

    monkeypatch.setattr(aco, "_build_tours", building)
    monkeypatch.setattr(aco, "local_update", depositing)
    return seen


@pytest.mark.parametrize("name, budget", BUDGET_CASES, ids=[f"{n}-{b}" for n, b in BUDGET_CASES])
def test_a_budget_stop_ends_at_the_last_counted_evaluation(tours, name, budget):
    problem, search, _ = SEARCHERS[name]
    rec = search(problem, Budget(budget))
    if rec.status == "budget_exhausted":
        assert rec.evaluations == budget
    assert rec.evaluations <= budget
    if name == "ants":
        assert len(tours.built) == len(tours.deposited) == rec.evaluations


@pytest.mark.parametrize("name", list(SEARCHERS))
def test_a_target_stop_ends_at_the_evaluation_that_reached_it(tours, name):
    problem, search, batch = SEARCHERS[name]
    free = search(problem, Budget(3000))
    # the same draws reach this curve point again, so the target stops the run right there
    n, target = [(n, f) for n, f in free.best_curve[1:] if batch == 1 or n % batch][-1]
    del tours.built[:], tours.deposited[:]
    rec = search(problem, Budget(3000, target))
    assert rec.status == "target_reached"
    assert rec.evaluations == rec.evaluations_to_success == n
    if name == "ants":  # the whole last iteration is built; the tours past the target lay nothing
        assert len(tours.built) == -(-rec.evaluations // batch) * batch > rec.evaluations
        assert len(tours.deposited) == rec.evaluations


def test_ants_build_only_the_tours_the_budget_counts(tours):
    rec = aco_run(EIGHT, Budget(12), 0)
    assert len(tours.built) == rec.evaluations == 12
    assert rec.extras["iterations"] == len(rec.extras["iteration_best"]) == 2


def test_a_swarm_stops_at_the_particle_that_reaches_the_target():
    rec = pso_run(LINE, Budget(5000, 0.01), 0)
    assert rec.evaluations == rec.evaluations_to_success == 166  # 8 * 20 + 6: mid-sweep


def test_a_sweep_the_budget_cuts_short_still_counts():
    rec = pso_run(LINE, Budget(7), 0)
    assert rec.extras["sweeps"] == 0
    assert rec.extras["gbest_curve"] == [rec.best_fitness]
    cut = pso_run(LINE, Budget(50), 0)
    assert cut.extras["sweeps"] == 2  # 20 + 20 + 10
    assert len(cut.extras["gbest_curve"]) == 3
    assert cut.extras["gbest_curve"][-1] == cut.best_fitness
