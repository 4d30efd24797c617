"""Random search and the two hill-climbing strategies.

`random_search` draws independent uniform solutions and keeps the best.
`hill_climb_first_accept` samples one neighbor at a time and, by default,
moves whenever the neighbor is no worse than the current solution, so
plateaus can drift; `random_walk=True` switches to the unconditional-move
variant, where only the best-so-far bookkeeping does the optimizing.
`hill_climb_steepest` enumerates the whole neighborhood, moves only on a
strict improvement (ties go to the lowest-index neighbor), and stops at
the first local optimum.
"""

from __future__ import annotations

import numpy as np

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
        evaluated = run.evaluate_batch(hood.costs, hood.exact, hood.window)
        if evaluated:
            costs = np.array(hood.costs[:evaluated])
            best = int(np.argmin(costs))
            # Only a move within two windows of the lowest cost can tie or beat it in
            # full; of the lowest full costs the first wins.
            near = np.flatnonzero(costs < costs[best] + 2 * hood.window)
            if near.size > 1:
                best = min(near.tolist(), key=lambda m: hood.exact(m)[1])
            neighbor, f_neighbor = hood.exact(best)
            if f_neighbor < f_current:  # strict
                current, f_current = neighbor, f_neighbor
                del hood  # free it before `neighbors` builds the next: a packing's holds a block
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
