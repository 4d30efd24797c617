"""Ant system for tours: pheromone trails, probabilistic construction.

Each iteration the ants build their tours city by city, all from the
trail as it stood when the iteration began (Ant System construction:
Dorigo, Maniezzo & Colorni 1996).  From city x an unvisited city y is
drawn by roulette wheel over a desirability score that combines the
pheromone on the edge and the inverse of its length.  The score is a
weighted SUM,

    score(x, y) = w_tau * tau[x][y] + w_eta / d[x][y]

(the classical product tau^a * eta^b is available as rule="product",
with w_tau and w_eta as the exponents a and b).  The trail is a plain
(n, n) array.  The distance half of the score, eta = w_eta / d for the
sum rule and (1 / d) ** w_eta for the product rule, never changes
during a run, so it is computed once per run as an (n, n) array; the
scores are computed once per iteration.

The ants of an iteration advance together, one `choose_next_city` call
per step: each ant's row of scores is gathered, the cities it has
visited are masked, and it takes the first city whose cumulative score
exceeds u * total, u being its draw for the step.  The last city of a
tour is the one left and takes no draw; on a 1-city tour, whose row is
all visited, `argmax` picks city 0, the start.  Each ant owns a child
RNG stream and draws `integers(n)` for its start, then one
`random(n - 2)` block, one value per step with a choice to make.

An iteration builds min(ants, budget left) tours, and
`Run.evaluate_rows` costs them with one `cost_rows` call and counts them
in ant order.  A target stop ends the count at the tour that
reached it; the tours past it were built and costed but are not
counted.  Only the counted tours lay their local deposit, a small
constant on every path edge.  Then all trails evaporate by rho and the
iteration's best counted tour's edges gain q / tour_length.  Entries
live in [tau_min, tau_max], so trails fade toward the floor but never
vanish and cannot blow up.  An iteration the budget or the target cuts
short ends as a full one does: its best counted tour gets the global
update and one `iteration_best` entry.

Budgets count completed tours, one objective evaluation each, so ant
runs compare against other algorithms on equal terms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .core import (
    Budget,
    Count,
    Fraction,
    NonNegative,
    Positive,
    Run,
    RunRecord,
    ValidationError,
    check_fields,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AcoConfig:
    ants: Count | None = None  # None: one ant per city
    w_tau: NonNegative = 1.0
    w_eta: NonNegative | None = None  # None: 2 * mean edge length (sum), 2 (product)
    rho: Fraction = 0.1
    local_deposit: Positive = 0.01
    q: Positive = 1.0
    tau0: Positive = 1.0
    tau_min: Positive = 1e-4
    tau_max: float = 1e6
    rule: Literal["sum", "product"] = "sum"

    def __post_init__(self):
        check_fields(self, "aco setting")
        if self.w_tau == 0 and self.w_eta == 0:
            raise ValidationError("desirability weights must not both be zero")
        if not self.tau_min <= self.tau0 <= self.tau_max:
            raise ValidationError("need tau_min <= tau0 <= tau_max")


def _resolved(cfg: AcoConfig, inst) -> tuple[AcoConfig, np.ndarray]:
    """The config with its run-dependent defaults filled, and the run's eta matrix.

    Distances the scores cannot take are refused first.  eta is 0 on the
    diagonal, which is never scored.
    """
    n = inst.n
    off_diagonal = ~np.eye(n, dtype=bool)
    off = inst.d[off_diagonal]
    if np.any(off <= 0):
        raise ValidationError("distinct cities at distance 0 break the inverse-distance term")
    updates = {}
    if cfg.ants is None:
        updates["ants"] = n
    if cfg.w_eta is None and cfg.rule == "product":
        updates["w_eta"] = 2.0  # an exponent here: beta = 2, as in Dorigo & Gambardella 1997
    elif cfg.w_eta is None:
        # one city has no edge to average and is never scored; any positive weight will do
        updates["w_eta"] = 2.0 * float(off.mean()) if off.size else 2.0
    cfg = replace(cfg, **updates) if updates else cfg
    eta = np.zeros((n, n))
    eta[off_diagonal] = (1.0 / off) ** cfg.w_eta if cfg.rule == "product" else cfg.w_eta / off
    return cfg, eta


def edge_desirability(tau_xy, eta_xy, cfg: AcoConfig):
    """Score of one edge, or elementwise of arrays of trails and eta values."""
    if cfg.rule == "product":
        return tau_xy**cfg.w_tau * eta_xy
    return cfg.w_tau * tau_xy + eta_xy


def choose_next_city(scores, current, unvisited, u, fallbacks: list) -> np.ndarray:
    """Every ant's next city: a roulette-wheel draw over its unvisited cities.

    `scores` is the iteration's (n, n) score snapshot, `current` the
    ants' cities, `unvisited` an (ants, n) mask and `u` one draw in
    [0, 1) per ant.  An ant takes the first city whose cumulative score
    exceeds u * total, which is `np.searchsorted(cum, u * total, "right")`
    over its masked row; if rounding puts the spin at the total, it takes
    its last unvisited city.  When every unvisited score of an ant is
    zero its choice is uniform instead: the floor(u * remaining)-th of
    its remaining unvisited cities, in ascending order.  Each such choice
    appends its candidate count to `fallbacks`; a run warns once, at its
    end, if the list is not empty.
    """
    rows = np.where(unvisited, scores.take(current, axis=0), 0.0)
    cum = rows.cumsum(axis=1)
    total = cum[:, -1]
    passed = cum > (u * total)[:, None]
    picks = passed.argmax(axis=1)
    lost = ~passed[:, -1]  # cum never falls, so a row passes at its end or nowhere
    if np.count_nonzero(lost):
        seen = unvisited[lost].cumsum(axis=1)
        remaining = seen[:, -1]
        zero = total[lost] <= 0
        fallbacks.extend(remaining[zero].tolist())
        nth = np.where(zero, (u[lost] * remaining).astype(np.intp), remaining - 1)
        picks[lost] = (seen > nth[:, None]).argmax(axis=1)
    return picks


def local_update(tau, tours, cfg: AcoConfig) -> None:
    """Deposit on every path edge of each tour of a block and its mirror, capped at tau_max.

    The closing edges get none.  Every other entry already lies in
    [tau_min, tau_max], so these are the only ones that could leave the
    bounds.  On a symmetric trail this equals capping after each deposit,
    tour by tour and edge by edge, bit for bit: every addend is the same
    constant, adding it never lowers an entry, so an entry once past the
    cap stays past it, and a path holds each edge once.
    """
    a, b = tours[:, :-1].ravel(), tours[:, 1:].ravel()
    np.add.at(tau, (a, b), cfg.local_deposit)
    np.add.at(tau, (b, a), cfg.local_deposit)
    np.minimum(tau, cfg.tau_max, out=tau)


def global_update(tau, best_tour, tour_length: float, cfg: AcoConfig) -> None:
    """Evaporate every trail, reinforce the tour's edges, clip to the bounds.

    The edges are reinforced one after another, the closing one last, in
    plain floats.  A 2-city tour's one edge is both its path edge and its
    closing edge, so it gains q / tour_length twice.
    """
    tau *= 1.0 - cfg.rho
    if best_tour is not None and len(best_tour) > 1:  # a lone city has no edge, and length 0
        gain = cfg.q / tour_length
        cities = np.asarray(best_tour).tolist()
        entries = memoryview(tau)
        for a, b in zip(cities, cities[1:] + cities[:1]):
            entries[a, b] = entries[b, a] = entries[a, b] + gain
    np.maximum(tau, cfg.tau_min, out=tau)
    np.minimum(tau, cfg.tau_max, out=tau)


def _build_tours(scores, streams, fallbacks: list) -> np.ndarray:
    """One tour per stream, as the rows of an (ants, n) `intp` block, built in lockstep."""
    n = len(scores)
    starts = [stream.integers(n) for stream in streams]
    draws = np.array([stream.random(max(n - 2, 0)) for stream in streams])
    tours = np.empty((len(streams), n), dtype=np.intp)
    tours[:, 0] = current = np.array(starts, dtype=np.intp)
    unvisited = np.ones(tours.shape, dtype=bool)
    entries = unvisited.reshape(-1)  # a view: ant k's city c is entry k * n + c
    offsets = np.arange(0, unvisited.size, n)
    entries[offsets + current] = False
    for step in range(1, n - 1):
        current = choose_next_city(scores, current, unvisited, draws[:, step - 1], fallbacks)
        entries[offsets + current] = False
        tours[:, step] = current
    tours[:, -1] = unvisited.argmax(axis=1)
    return tours


def aco_run(
    problem,
    budget: Budget,
    seed: int,
    cfg: AcoConfig | None = None,
) -> RunRecord:
    """Ant-system search over a distance matrix until the run finishes.

    The final trail matrix, iteration count and per-iteration best
    lengths land in extras for trail-level analysis.
    """
    if not hasattr(problem, "d"):
        raise ValidationError("ant runs need a distance-matrix instance")
    cfg, eta = _resolved(cfg or AcoConfig(), problem)
    run = Run(problem, budget, seed, "aco")
    tau = np.full((problem.n, problem.n), float(cfg.tau0))
    streams = run.rng.spawn(cfg.ants)
    iterations = 0
    iteration_best: list[float] = []
    fallbacks: list[int] = []
    while not run.finished:
        room = budget.max_evaluations - run.evaluations
        tours = _build_tours(edge_desirability(tau, eta, cfg), streams[:room], fallbacks)
        costs, counted = run.evaluate_rows(tours)
        local_update(tau, tours[:counted], cfg)
        best_len = min(costs[:counted])
        global_update(tau, tours[costs.index(best_len)], best_len, cfg)
        iterations += 1
        iteration_best.append(best_len)
    if fallbacks:
        log.warning(
            "all desirabilities zero on %d choices; each fell back to a uniform choice",
            len(fallbacks),
        )
    extras = {
        "iterations": iterations,
        "iteration_best": iteration_best,
        "pheromone": tau.tolist(),
        "ants": cfg.ants,
    }
    return run.record(extras=extras)
