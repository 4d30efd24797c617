"""Random search and the two hill-climbing strategies.

`random_search` draws independent uniform solutions and keeps the best.
`hill_climb_first_accept` samples one neighbor at a time and, by default,
moves whenever the neighbor is no worse than the current solution, so
plateaus can drift; `random_walk=True` switches to the unconditional-move
variant, where only the best-so-far bookkeeping does the optimizing.
`hill_climb_steepest` enumerates the whole neighborhood, moves to the
neighbor `Neighborhood.lowest` picks only on a strict improvement (ties
go to the lowest index), and stops at the first local optimum.
"""

from __future__ import annotations

from .core import Budget, Run, RunRecord


def random_search(problem, budget: Budget, seed: int) -> RunRecord:
    run = Run(problem, budget, seed, "random_search")
    while not run.finished:
        run.evaluate(problem.random_solution(run.rng))
    return run.record()


def hill_climb_first_accept(
    problem,
    budget: Budget,
    seed: int,
    start=None,
    random_walk: bool = False,
) -> RunRecord:
    run = Run(problem, budget, seed, "hill_climb")
    current = run.start(start)
    f_current = run.evaluate(current)
    with run.scalar_draws():
        while not run.finished:
            move = problem.sample_move(current, run.rng)
            f_candidate = run.evaluate_move(current, f_current, move)
            if random_walk or f_candidate <= f_current:
                current, f_current = problem.apply(current, move), f_candidate
    return run.record(extras={"random_walk": random_walk})


def hill_climb_steepest(
    problem,
    budget: Budget,
    seed: int = 0,
    start=None,
    restart_on_optimum: bool = False,
) -> RunRecord:
    run = Run(problem, budget, seed, "steepest_descent")
    current = run.start(start)
    f_current = run.evaluate(current)
    status = None
    restarts = 0
    while not run.finished:
        hood = problem.neighbors(current)
        evaluated = hood.evaluate(run)
        if evaluated:
            neighbor, f_neighbor = hood.exact(hood.lowest(evaluated))
            if f_neighbor < f_current:  # strict
                current, f_current = neighbor, f_neighbor
                del hood  # else the next build peaks higher: 51.2, not 45.9 MB on `neighbourhood`
                continue
        if evaluated < len(hood):
            break  # budget died mid-enumeration; local optimality unknown
        del hood
        if restart_on_optimum and not run.finished:
            restarts += 1
            current = run.start()
            f_current = run.evaluate(current)
            continue
        status = "local_optimum"
        break
    return run.record(status, extras={"restarts": restarts})
