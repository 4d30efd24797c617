"""Particle swarm optimization in its original two-increment form.

Each particle carries a position, a velocity, and the best point it has
personally evaluated; the swarm shares the best point anyone has found.
The swarm's state is plain arrays: positions, velocities and personal
bests of shape (size, dim), personal-best costs of shape (size,).
Per dimension, the velocity gains a pull toward the personal best and a
pull toward the swarm best, each scaled by its increment and a fresh
uniform draw:

    v'[i] = v[i] + p_increment * r1[i] * (p_best[i] - pos[i])
                 + g_increment * r2[i] * (g_best[i] - pos[i])

Everything is minimization, so personal bests start at +inf and update
on strictly smaller cost.  The sweep order is particle-index order:
all velocities update against the previous sweep's swarm best, then all
particles move and evaluate.

A sweep is costed as one block: `Problem.cost_rows` costs every moved
particle at once, bit for bit as `cost` would one by one.  The particles
are then counted in index order; `Run.evaluate_rows` does both and
stops at the particle that finishes the run, by budget or by target
alike.  Only the counted particles update their personal bests and count
toward `clamped_moves`, and a sweep cut short still ends as a full one
does: it counts in `sweeps` and adds its swarm best to `gbest_curve`.

A swarm is a few small arrays, on which numpy's Python-level wrappers
(`np.clip`, `np.any`, `np.argmin`) cost more than the arithmetic, so a
sweep calls ufuncs and `ndarray` methods only: velocities and moves are
clipped by `clip`, the ufunc behind `np.clip` (problems/continuous.py),
clamped particles are counted with a reduce, and personal bests update
as one masked copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Budget,
    Count,
    NonNegative,
    Positive,
    Run,
    RunRecord,
    UnsupportedOperationError,
    check_fields,
)
from .problems.continuous import clip


@dataclass(frozen=True)
class SwarmConfig:
    size: Count = 20
    p_increment: NonNegative = 2.0
    g_increment: NonNegative = 2.0
    vmax: Positive | None = None  # None: half the variable range at run start
    inertia: float | None = None  # None: plain sum, the original rule

    def __post_init__(self):
        check_fields(self, "swarm setting")


def update_velocity(pos, veloc, p_best_pos, g_pos, cfg: SwarmConfig, rng) -> np.ndarray:
    """New (size, dim) velocities; row i draws its r1 and r2 in turn, as a loop would.

    Each pull is scaled out of the draw block into an array of its own,
    then finished and summed in place, in the rule's order of operations,
    so the sum is the rule's bit for bit; with no inertia the velocity is
    carried as it is (1.0 * v is v).
    """
    r = rng.random((pos.shape[0], 2, pos.shape[1]))
    p_pull = cfg.p_increment * r[:, 0]
    p_pull *= p_best_pos - pos
    g_pull = cfg.g_increment * r[:, 1]
    g_pull *= g_pos - pos
    v = (veloc if cfg.inertia is None else cfg.inertia * veloc) + p_pull
    v += g_pull
    if cfg.vmax is not None:
        clip(v, -cfg.vmax, cfg.vmax, out=v)
    return v


def _evaluate_all(pos, p_best_pos, p_best_val, run: Run) -> int:
    """Cost every particle at once, then count them in index order until the run finishes;
    the counted ones keep strictly better personal bests.  Returns how many were counted."""
    costs, counted = run.evaluate_rows(pos)
    vals = np.array(costs[:counted])
    better = vals < p_best_val[:counted]
    np.copyto(p_best_val[:counted], vals, where=better)
    np.copyto(p_best_pos[:counted], pos[:counted], where=better[:, None])
    return counted


def step_swarm(pos, veloc, p_best_pos, p_best_val, g_pos, g_val, cfg: SwarmConfig, run: Run):
    """One synchronous sweep: velocities first, then move and evaluate all.

    Moves that leave the box are clipped to it.  Draws come from
    `run.rng` and evaluations are counted by `run`.  Personal bests
    update in place; returns (pos, veloc, g_pos, g_val, clamped), where
    `clamped` counts the counted particles whose move was clipped.
    """
    problem = run.problem
    veloc = update_velocity(pos, veloc, p_best_pos, g_pos, cfg, run.rng)
    moved = pos + veloc
    pos = problem.clamp(moved)
    counted = _evaluate_all(pos, p_best_pos, p_best_val, run)
    clipped = pos[:counted] != moved[:counted]
    clamped = int(np.count_nonzero(np.logical_or.reduce(clipped, axis=1)))
    g_pos, g_val = _swarm_best(p_best_pos, p_best_val, g_pos, g_val)
    return pos, veloc, g_pos, g_val, clamped


def _swarm_best(p_best_pos, p_best_val, g_pos, g_val):
    """The first lowest personal best, when it beats the swarm best."""
    i = p_best_val.argmin()
    if p_best_val[i] < g_val:
        return p_best_pos[i].copy(), float(p_best_val[i])
    return g_pos, g_val


def pso_run(
    problem,
    budget: Budget,
    seed: int,
    cfg: SwarmConfig | None = None,
) -> RunRecord:
    """Swarm search on a continuous landscape until the run finishes.

    Positions start uniform in the bounds, velocities uniform in
    one tenth of the range either way.  The swarm best after every sweep,
    the last one too when the run finishes part way through it, lands in
    extras["gbest_curve"].
    """
    cfg = cfg or SwarmConfig()
    if getattr(problem, "kind", None) != "continuous":
        raise UnsupportedOperationError("particle swarms need a continuous landscape")
    run = Run(problem, budget, seed, "pso")
    rng = run.rng
    lo = problem.lower
    span = problem.upper - lo
    if cfg.vmax is None:
        cfg = replace(cfg, vmax=float(span.max()) / 2.0)
    r = rng.random((cfg.size, 2, problem.dim))
    pos = lo + r[:, 0] * span
    veloc = (r[:, 1] * 2.0 - 1.0) * span / 10.0
    p_best_pos = pos.copy()
    p_best_val = np.full(cfg.size, np.inf)
    g_pos, g_val = pos[0].copy(), float("inf")
    clamp_count = 0
    sweeps = 0
    _evaluate_all(pos, p_best_pos, p_best_val, run)
    g_pos, g_val = _swarm_best(p_best_pos, p_best_val, g_pos, g_val)
    gbest_curve = [g_val]
    while not run.finished:
        pos, veloc, g_pos, g_val, clamped = step_swarm(
            pos, veloc, p_best_pos, p_best_val, g_pos, g_val, cfg, run,
        )
        clamp_count += clamped
        sweeps += 1
        gbest_curve.append(g_val)
    extras = {
        "sweeps": sweeps,
        "clamped_moves": clamp_count,
        "gbest_curve": gbest_curve,
        "vmax": cfg.vmax,
    }
    return run.record(extras=extras)
