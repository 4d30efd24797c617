"""Tabu search: best-admissible selection under a reverse-move tabu list.

Every iteration evaluates the full neighborhood, picks the admissible
move with the lowest penalized cost, applies it even when it is uphill,
and forbids the chosen move's made atoms for the next `tenure`
iterations.  A tabu move becomes admissible again if it would beat the
best cost visited so far ("best_so_far" aspiration).  When all moves are
tabu and none aspires, the search halts.

Memories are arrays indexed by the problem's integer atom ids (see
`Neighborhood`).  The tabu list holds one expiry per atom: an atom
pushed after selection h is live for selections h+1 .. h+tenure, and a
move is tabu while any atom it breaks is live.

Long-term memory is optional: a frequency count per atom over chosen
moves feeds a diversification penalty (weight times the mean use
frequency of the atoms a move breaks), and a small elite pool, counted
per atom, feeds an intensification bonus (weight times the mean
fraction of elites holding the atoms a move makes).  Both weights
default to 0, which reduces the penalized cost to the raw cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    MOVE_TOLERANCE,
    Budget,
    Count,
    NoNeighborError,
    NonNegative,
    Run,
    RunRecord,
    Whole,
    check_fields,
)


@dataclass(frozen=True)
class TabuConfig:
    tenure: Whole = 7  # 0 disables the list
    aspiration: Literal["best_so_far", "off"] = "best_so_far"
    intensification_weight: NonNegative = 0.0
    diversification_weight: NonNegative = 0.0
    elite_size: Count = 5

    def __post_init__(self):
        check_fields(self, "tabu setting")


class TabuList:
    """Expiry per atom id; an atom is tabu at selection k while k <= its expiry.

    The array has one slot more than the atom space.  That slot is never
    set, so the -1 that pads a move's atoms reads as free.
    """

    def __init__(self, tenure: int, atom_count: int):
        self.tenure = tenure
        self.expiry = np.zeros(atom_count + 1, dtype=np.intp)

    def push(self, atoms: np.ndarray, k: int):
        if self.tenure == 0:
            return
        self.expiry[atoms[atoms >= 0]] = k + self.tenure

    def blocks(self, atoms: np.ndarray, k: int) -> np.ndarray:
        """Per row of atom ids: is any of them tabu at selection k?"""
        return (self.expiry[atoms] >= k).any(axis=1)


class SearchMemory:
    """Per-atom frequency and elite counts backing the f-tilde penalty terms."""

    def __init__(self, problem, cfg: TabuConfig):
        self.problem = problem
        self.cfg = cfg
        self.frequency = np.zeros(problem.atom_count + 1, dtype=np.intp)
        self.in_elite = np.zeros(problem.atom_count + 1, dtype=np.intp)
        self.iterations = 0
        self.elite: list[tuple[float, object, np.ndarray]] = []  # (cost, frozen, atoms)

    def penalty(self, broken: np.ndarray, made: np.ndarray) -> np.ndarray:
        """Penalty per move, in the float operations of one move at a time."""
        term = np.zeros(len(broken))
        if self.cfg.diversification_weight > 0 and self.iterations > 0:
            used = self.frequency[broken].sum(axis=1) / (broken >= 0).sum(axis=1)
            term = self.cfg.diversification_weight * used / self.iterations
        if self.cfg.intensification_weight > 0 and self.elite:
            share = self.in_elite[made] / len(self.elite)
            overlap = share[:, 0]
            for column in range(1, made.shape[1]):
                overlap = overlap + share[:, column]  # padding adds 0.0: exact
            overlap = overlap / (made >= 0).sum(axis=1)
            term = term - self.cfg.intensification_weight * overlap
        return term

    def update(self, broken: np.ndarray, solution, cost: float):
        self.iterations += 1
        np.add.at(self.frequency, broken[broken >= 0], 1)
        frozen = self.problem.freeze(solution)
        if any(entry[1] == frozen for entry in self.elite):
            return
        atoms = self.problem.solution_attributes(solution)
        self.elite.append((cost, frozen, atoms))
        self.in_elite[atoms] += 1
        self.elite.sort(key=lambda entry: entry[0])
        for _, _, dropped in self.elite[self.cfg.elite_size :]:
            self.in_elite[dropped] -= 1
        del self.elite[self.cfg.elite_size :]


def select_best_admissible(
    hood,
    evaluated: int,
    tabu: TabuList,
    best_so_far: float,
    cfg: TabuConfig,
    k: int = 1,
    memory: SearchMemory | None = None,
) -> int | None:
    """Index of the lowest penalized full cost among the first `evaluated` moves.

    A move is admissible unless tabu at selection k and not aspiring (its
    full cost below `best_so_far`).  Returns None when nothing is
    admissible (the caller halts).  Ties keep the earliest move.

    The choice is made on full costs.  `hood.costs` lie within a window
    of them, and so do the scores; the window widens to `MOVE_TOLERANCE`
    of the largest score where a penalty makes the scores round coarser
    than the costs.  The lowest score m of a surely admissible move
    bounds the choice: each move that may be admissible and scores below
    m plus two windows is read in full (`hood.exact`) and decided on its
    full score, and no other move can tie or win.  When that is the one
    move with score m, nothing needs reading.  With a zero window the
    costs are exact and m decides.
    """
    if evaluated == 0:
        raise NoNeighborError("cannot select from an empty neighborhood")
    costs = np.array(hood.costs[:evaluated])
    broken, made = hood.broken[:evaluated], hood.made[:evaluated]
    window = hood.window
    penalty = None if memory is None else memory.penalty(broken, made)
    scores = costs if penalty is None else costs + penalty
    if penalty is not None and window:
        window = max(window, MOVE_TOLERANCE * float(np.abs(scores).max()))
    tabu_now = tabu.blocks(broken, k)
    aspire = cfg.aspiration == "best_so_far"
    # tabu and not surely aspiring: a cost a window below best_so_far surely is
    blocked = tabu_now & ~(costs < best_so_far - window) if aspire else tabu_now
    ranked = np.where(blocked, np.inf, scores)
    best = int(np.argmin(ranked))
    low = ranked[best]
    if not window:
        return best if low < np.inf else None
    near = [
        m for m in np.flatnonzero(scores < low + 2 * window).tolist()
        if not tabu_now[m] or aspire and costs[m] < best_so_far + window  # may be admissible
    ]
    if low < np.inf and near == [best]:
        return best
    chosen, lowest = None, np.inf
    for m in near:
        full = hood.exact(m)[1]
        if tabu_now[m] and not (aspire and full < best_so_far):
            continue
        score = full if penalty is None else full + penalty[m]
        if score < lowest:
            chosen, lowest = m, score
    return chosen


def tabu_search(
    problem,
    budget: Budget,
    seed: int,
    cfg: TabuConfig | None = None,
    start=None,
) -> RunRecord:
    cfg = cfg or TabuConfig()
    run = Run(problem, budget, seed, "tabu_search")
    current = run.start(start)
    f_current = run.evaluate(current)
    best_visited = f_current
    visited = [f_current]
    chosen_moves = []
    tabu = TabuList(cfg.tenure, problem.atom_count)
    memory = (
        SearchMemory(problem, cfg)
        if cfg.intensification_weight > 0 or cfg.diversification_weight > 0
        else None
    )
    k = 0
    status = None

    while not run.finished:
        hood = problem.neighbors(current)
        if not len(hood):
            if k == 0:
                raise NoNeighborError("start solution has an empty neighborhood")
            status = "no_neighbors"
            break
        evaluated = run.evaluate_batch(hood.costs, hood.exact, hood.window)
        k += 1
        chosen = select_best_admissible(hood, evaluated, tabu, best_visited, cfg, k, memory)
        if chosen is None:
            status = "no_admissible"
            break
        current, f_current = hood.exact(chosen)
        visited.append(f_current)
        chosen_moves.append(hood.label(chosen))
        best_visited = min(best_visited, f_current)
        tabu.push(hood.made[chosen], k)
        if memory is not None:
            memory.update(hood.broken[chosen], current, f_current)
        del hood  # free it before `neighbors` builds the next: a packing's holds a block

    extras = {"visited": visited, "moves": chosen_moves, "iterations": k}
    return run.record(status, extras=extras)
