"""Metropolis acceptance and simulated annealing with cooling schedules.

Temperature carries the whole scale (the Boltzmann constant is absorbed,
k = 1): a worsening step of size delta is accepted with probability
exp(-delta / T), and any non-worsening step is accepted outright without
consuming a random draw.

The rescaled mode replaces the plain energy difference by

    (sqrt(E_j) - sqrt(E_i))^2 - (sqrt(E_i) - sqrt(E_t))^2,

with target energy E_t = alpha * T^2 recomputed whenever the temperature
moves.  Energies fed to the transform are the objective shifted by the
running minimum, so they stay non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from .core import (Budget, Count, Positive, Run, RunRecord, ValidationError, check_fields,
                   conform)

# geometric schedules never hit zero algebraically; below this the float
# has underflowed and the chain is stuck anyway
T_UNDERFLOW = 1e-300
PROBES = 100  # steps of the random walk `calibrate_t0` takes

@dataclass(frozen=True)
class CoolingSchedule:
    """Temperature sequence; `t0=None` asks the run to calibrate it.

    Geometric: T_i = t0 * rate**i.  Linear: T_i = max(t0 - i*decrement,
    t_floor).  `steps_per_temperature` proposals happen at each index i;
    `max_temperature_steps`, when set, exhausts the schedule and freezes
    the run.
    """

    kind: Literal["geometric", "linear"] = "geometric"
    t0: Positive | None = None
    rate: float = 0.95
    decrement: float = 0.0
    t_floor: float = 1e-9
    steps_per_temperature: Count = 100
    max_temperature_steps: Count | None = None

    def __post_init__(self):
        check_fields(self, "schedule")
        if self.kind == "geometric" and not (0.0 < self.rate < 1.0):
            raise ValidationError("geometric factor must lie in (0, 1)")
        if self.kind == "linear" and self.decrement <= 0:
            raise ValidationError("linear schedules need a positive decrement")
        if self.kind == "linear" and self.t_floor <= 0:
            raise ValidationError("linear schedules need a positive floor")


def next_temperature(schedule: CoolingSchedule, i: int) -> float:
    """Temperature at step index i of a schedule whose `t0` is set."""
    if i < 0:
        raise ValidationError("temperature step index must be >= 0")
    if schedule.t0 is None:
        raise ValidationError("schedule has no initial temperature; a run calibrates one")
    if schedule.kind == "geometric":
        return schedule.t0 * schedule.rate**i
    return max(schedule.t0 - i * schedule.decrement, schedule.t_floor)


def metropolis_accept(delta: float, temperature: float, rng) -> bool:
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / temperature)


def rescaled_delta(e_i: float, e_j: float, e_t: float) -> float:
    if e_i < 0 or e_j < 0 or e_t < 0:
        raise ValidationError(
            "rescaled energies must be non-negative; shift the objective first"
        )
    return (math.sqrt(e_j) - math.sqrt(e_i)) ** 2 - (math.sqrt(e_i) - math.sqrt(e_t)) ** 2


def calibrate_t0(run: Run, start, f_start: float) -> tuple[float, object, float]:
    """T0 = 10 x mean |step| along a random walk of up to `PROBES` steps from
    `start`, already counted at cost `f_start`.

    The walk reads no cost, so it is drawn first: `PROBES` steps, or as
    many as the budget has left, none once the run is finished.  Then
    `Run.evaluate_rows` costs it as one block and counts it in order,
    stopping at the step that spends the budget or reaches the target.
    Steps drawn past a target stop are built and costed but not counted;
    they move only `run.rng`, which nothing reads once the run is
    finished.  The mean is over the counted steps, summed left to right.
    Returns (t0, last counted solution, its fitness) so the caller can
    resume from where the probe left the chain.
    """
    current, f_current = start, f_start
    total, steps = 0.0, 0  # summed left to right: `sum` compensates from Python 3.12 on
    if not run.finished:
        sample_neighbor, rng = run.problem.sample_neighbor, run.rng
        walk = []
        for _ in range(min(PROBES, run.budget.max_evaluations - run.evaluations)):
            current = sample_neighbor(current, rng)
            walk.append(current)
        costs, steps = run.evaluate_rows(walk)
        for f_step in costs[:steps]:
            total += abs(f_step - f_current)
            f_current = f_step
        current = walk[steps - 1]
    mean = total / steps if steps else 0.0
    t0 = 10.0 * mean
    if t0 <= 0:
        t0 = 1.0  # flat probe region; any positive scale works
    return t0, current, f_current


def simulated_annealing(
    problem,
    budget: Budget,
    seed: int,
    schedule: CoolingSchedule | None = None,
    start=None,
    rescaled: bool = False,
    alpha: Positive = 1.0,
) -> RunRecord:
    alpha = conform(Positive, alpha, "'alpha'")
    schedule = schedule or CoolingSchedule()
    run = Run(problem, budget, seed, "simulated_annealing")
    current, f_current = run.start(start)

    with run.scalar_draws():
        if schedule.t0 is None:
            t0, current, f_current = calibrate_t0(run, current, f_current)
            schedule = replace(schedule, t0=t0)
        state = problem.chain(current)
        rng, sample_move = run.rng, problem.sample_move
        evaluate_move, advance = run.evaluate_move, problem.advance

        step_index = 0
        uphill_proposed = 0
        uphill_accepted = 0
        status = None

        while not run.finished:
            if (
                schedule.max_temperature_steps is not None
                and step_index >= schedule.max_temperature_steps
            ):
                status = "frozen"
                break
            temperature = next_temperature(schedule, step_index)
            if temperature < T_UNDERFLOW:
                status = "frozen"
                break
            # Each proposal is one evaluation, so the budget is checked once per
            # temperature step and only the target inside it.
            left = budget.max_evaluations - run.evaluations
            for _ in range(min(schedule.steps_per_temperature, left)):
                if run.evaluations_to_success is not None:
                    break
                move = sample_move(state, rng)
                f_candidate = evaluate_move(state, f_current, move)
                raw_delta = f_candidate - f_current
                if rescaled:
                    e_t = alpha * temperature * temperature
                    delta = rescaled_delta(
                        f_current - run.best_fitness, f_candidate - run.best_fitness, e_t
                    )
                else:
                    delta = raw_delta
                if raw_delta > 0:
                    uphill_proposed += 1
                if delta <= 0 or metropolis_accept(delta, temperature, rng):
                    if raw_delta > 0:
                        uphill_accepted += 1
                    state, f_current = advance(state, move), f_candidate
            step_index += 1

    extras = {
        "temperature_steps": step_index,
        "uphill_proposed": uphill_proposed,
        "uphill_accepted": uphill_accepted,
        "t0": schedule.t0,
    }
    return run.record(status, extras=extras)
