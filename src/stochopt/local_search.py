"""Random search and the two hill-climbing strategies.

`random_search` draws independent uniform solutions and keeps the best.
Like a particle swarm's sweep, it works in blocks: it draws up to `BLOCK`
solutions at once through `Problem.random_solutions`, and
`Run.evaluate_rows` costs them with one `Problem.cost_rows` call and
counts them in order, one `Run.evaluate` call per candidate, so the run
stops at the candidate that spends the budget or reaches the target.
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

# Solutions drawn and costed per block.  A 64 x n tour block and its gathered
# edges stay smaller than the n x n distance matrix once n > 64.  The 100
# replicas of `eight_random` took 83, 47, 41-46 and 54-57 ms at 16, 64, 256
# and 1024 rows a block (2 vCPU, Python 3.11.7, numpy 2.4.6).
BLOCK = 64


def random_search(problem, budget: Budget, seed: int) -> RunRecord:
    """Uniform random solutions, drawn and costed `BLOCK` at a time, best kept.

    The last block is cut to the budget left.  A target reached part-way
    through a block leaves the rest of it drawn and costed but not
    counted; those draws only move `run.rng`, which nothing reads after
    the loop, so the record is the one drawing and costing each solution
    alone would give, bit for bit.
    """
    run = Run(problem, budget, seed, "random_search")
    while not run.finished:
        size = min(BLOCK, budget.max_evaluations - run.evaluations)
        run.evaluate_rows(problem.random_solutions(run.rng, size))
    return run.record()


def hill_climb_first_accept(
    problem,
    budget: Budget,
    seed: int,
    start=None,
    random_walk: bool = False,
) -> RunRecord:
    run = Run(problem, budget, seed, "hill_climb")
    current, f_current = run.start(start)
    state = problem.chain(current)
    with run.scalar_draws():
        rng, sample_move = run.rng, problem.sample_move
        evaluate_move, advance = run.evaluate_move, problem.advance
        for _ in range(budget.max_evaluations - run.evaluations):  # one evaluation each
            if run.evaluations_to_success is not None:
                break
            move = sample_move(state, rng)
            f_candidate = evaluate_move(state, f_current, move)
            if random_walk or f_candidate <= f_current:
                state, f_current = advance(state, move), f_candidate
    return run.record(extras={"random_walk": random_walk})


def hill_climb_steepest(
    problem,
    budget: Budget,
    seed: int = 0,
    start=None,
    restart_on_optimum: bool = False,
) -> RunRecord:
    run = Run(problem, budget, seed, "steepest_descent")
    current, f_current = run.start(start)
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
            current, f_current = run.start()
            continue
        status = "local_optimum"
        break
    return run.record(status, extras={"restarts": restarts})
