"""Ant system for tours: pheromone trails, probabilistic construction.

Each iteration every ant builds a complete tour city by city.  From city
x an unvisited city y is drawn by roulette wheel over a desirability
score that combines the pheromone on the edge and the inverse of its
length.  The score is a weighted SUM,

    score(x, y) = w_tau * tau[x][y] + w_eta / d[x][y]

(the classical product tau^a * eta^b is available as rule="product",
with w_tau and w_eta as the exponents a and b).  The trail is a plain
(n, n) array.  The distance half of the score, eta = w_eta / d for the
sum rule and (1 / d) ** w_eta for the product rule, never changes
during a run, so it is computed once per run as an (n, n) array.
Every edge an ant walks receives a small constant deposit; after the
iteration all trails evaporate by rho and the iteration-best tour's
edges gain q / tour_length.  Entries live in [tau_min, tau_max], so
trails fade toward the floor but never vanish and cannot blow up.

An ant scores every edge once, as a list of Python floats, before its
first step, and makes its deposits once its tour is complete and
counted.  That is the same walk as re-reading the trail at every step
with the deposits made along the way: a deposit on (x, y) changes only
the entries (x, y) and (y, x), both of cities the ant has visited, and
from then on it reads only edges to unvisited cities.  The wheel itself
(`_sum` for the total, a running sum of score / total for the spin)
repeats numpy's float operations in numpy's order, so each draw lands on
the city `searchsorted` over the normalized cumulative scores would pick.
Both trail updates walk the tour's city list and read and write one
entry at a time in plain floats.  A path holds each unordered edge once,
so that is the arithmetic an update of all the edges at once would do;
the global update's closing edge comes last, so a 2-city tour's one edge
gains twice.

Budgets count completed tours, one objective evaluation each, so ant
runs compare against other algorithms on equal terms.  An ant is built
only while the run has room for it, and an iteration the budget or the
target cuts short ends as a full one does: its best counted tour gets
the global update and one `iteration_best` entry.  Each ant owns a child
RNG stream, which keeps a run reproducible regardless of how ant
construction might be scheduled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
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
    """Score of one edge, or elementwise of arrays of trails and eta values.

    An ant scores the whole (n, n) trail at once; the values are the ones
    a gather of the same entries would score.
    """
    if cfg.rule == "product":
        return tau_xy**cfg.w_tau * eta_xy
    return cfg.w_tau * tau_xy + eta_xy


def _sum(xs) -> float:
    """`np.sum` of a list of floats, bit for bit: numpy's pairwise summation.

    Below 8 terms a running sum; up to 128, eight interleaved running sums
    added in a fixed tree, then the leftover terms; above that, the sums of
    two halves split at a multiple of 8.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        whole = n - n % 8
        r = [reduce(add, xs[j:whole:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[whole:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _sum(xs[:half]) + _sum(xs[half:])


def choose_next_city(row, candidates, rng, fallbacks: list) -> int:
    """Roulette-wheel draw from `candidates`, ascending city ids scored by `row`.

    `row` is the current city's list of edge scores.  The spin lands on
    the first city whose cumulative share exceeds the draw; `not cum <= u`
    also stops at a NaN share, where `searchsorted` would.  When every
    score is zero the choice is uniform instead, and the candidate count
    is appended to `fallbacks`; a run warns once, at its end, if the
    list is not empty.
    """
    if not candidates:
        raise ValidationError("no unvisited city to move to")
    if len(candidates) == 1:
        return candidates[0]
    scores = [row[c] for c in candidates]
    total = _sum(scores)
    if total <= 0:
        fallbacks.append(len(candidates))
        return candidates[rng.integers(len(candidates))]
    u = rng.random()
    cum = 0.0
    for city, score in zip(candidates, scores):
        cum += score / total
        if not cum <= u:
            return city
    return candidates[-1]


def local_update(tau, tour, cfg: AcoConfig) -> None:
    """Deposit on every path edge of a tour and its mirror, capped at tau_max.

    The closing edge gets none.  Every other entry already lies in
    [tau_min, tau_max], so these are the only ones that could leave the
    bounds.  A path holds each edge once, so the edges are updated one
    after another, in plain floats.
    """
    deposit, cap = cfg.local_deposit, cfg.tau_max
    cities = np.asarray(tour).tolist()
    entries = memoryview(tau)  # reads and writes Python floats
    for a, b in zip(cities, cities[1:]):
        value = entries[a, b] + deposit
        entries[a, b] = entries[b, a] = cap if value > cap else value


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


def _build_tour(tau, eta, cfg: AcoConfig, rng, fallbacks: list) -> np.ndarray:
    """One ant's tour as an `intp` permutation, the form `TspInstance.cost` takes."""
    n = len(tau)
    current = int(rng.integers(n))
    scores = edge_desirability(tau, eta, cfg).tolist()
    unvisited = [c for c in range(n) if c != current]
    tour = [current]
    for _ in range(1, n):
        current = choose_next_city(scores[current], unvisited, rng, fallbacks)
        unvisited.remove(current)
        tour.append(current)
    return np.array(tour, dtype=np.intp)


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
        best_len = float("inf")
        best_tour = None
        for stream in streams:
            if run.finished:
                break
            tour = _build_tour(tau, eta, cfg, stream, fallbacks)
            cost = run.evaluate(tour)
            local_update(tau, tour, cfg)
            if cost < best_len:
                best_len = cost
                best_tour = tour
        global_update(tau, best_tour, best_len, cfg)
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
