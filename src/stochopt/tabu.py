"""Tabu search: best-admissible selection under a reverse-move tabu list.

Every iteration evaluates the full neighborhood, picks the admissible
move with the lowest penalized cost, applies it even when it is uphill,
and forbids the chosen move's reverse attributes for the next `tenure`
iterations.  A tabu move becomes admissible again if it would beat the
best cost visited so far ("best_so_far" aspiration).  When all moves are
tabu and none aspires, the search halts.

An entry pushed after selection h is live for selections h+1 .. h+tenure;
the list is purged after every step, so it never holds attributes older
than `tenure` iterations.

Long-term memory is optional: a frequency table over chosen move
attributes feeds a diversification penalty (weight times the attribute's
use frequency), and a small elite pool feeds an intensification bonus
(weight times the fraction of elites sharing the attributes a move would
create).  Both weights default to 0, which reduces the penalized cost to
the raw cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Budget, NoNeighborError, Run, RunRecord, ValidationError


@dataclass(frozen=True)
class TabuConfig:
    tenure: int = 7
    aspiration: str = "best_so_far"  # or "off"
    intensification_weight: float = 0.0
    diversification_weight: float = 0.0
    elite_size: int = 5

    def __post_init__(self):
        if self.tenure < 0:
            raise ValidationError("tenure must be >= 0 (0 disables the list)")
        if self.aspiration not in ("best_so_far", "off"):
            raise ValidationError(f"unknown aspiration rule {self.aspiration!r}")
        if self.intensification_weight < 0 or self.diversification_weight < 0:
            raise ValidationError("memory weights must be >= 0")
        if self.elite_size < 1:
            raise ValidationError("elite pool needs room for at least one solution")


class TabuList:
    """Attribute -> expiry map; an atom is tabu at selection k while k <= expiry."""

    def __init__(self, tenure: int):
        if tenure < 0:
            raise ValidationError("tenure must be >= 0")
        self.tenure = tenure
        self._expiry: dict = {}

    def push(self, attributes, k: int):
        if self.tenure == 0:
            return
        for atom in attributes:
            self._expiry[atom] = k + self.tenure

    def is_tabu(self, atom, k: int) -> bool:
        return self._expiry.get(atom, 0) >= k

    def move_is_tabu(self, move, k: int) -> bool:
        return any(self.is_tabu(a, k) for a in move.attributes)

    def purge(self, k: int):
        """Drop entries that can no longer matter (expiry <= k)."""
        self._expiry = {a: e for a, e in self._expiry.items() if e > k}

    def __len__(self) -> int:
        return len(self._expiry)


class SearchMemory:
    """Frequency table plus elite pool backing the f-tilde penalty terms."""

    def __init__(self, problem, cfg: TabuConfig):
        self.problem = problem
        self.cfg = cfg
        self.frequency: Counter = Counter()
        self.iterations = 0
        self.elite: list[tuple[float, object, frozenset]] = []  # (cost, frozen, atoms)

    def penalty(self, move) -> float:
        term = 0.0
        if self.cfg.diversification_weight > 0 and self.iterations > 0 and move.attributes:
            used = sum(self.frequency[a] for a in move.attributes) / len(move.attributes)
            term += self.cfg.diversification_weight * used / self.iterations
        if self.cfg.intensification_weight > 0 and self.elite and move.reverse_attributes:
            overlap = sum(
                sum(1 for _, _, atoms in self.elite if a in atoms) / len(self.elite)
                for a in move.reverse_attributes
            ) / len(move.reverse_attributes)
            term -= self.cfg.intensification_weight * overlap
        return term

    def update(self, move, solution, cost: float):
        self.iterations += 1
        for atom in move.attributes:
            self.frequency[atom] += 1
        frozen = self.problem.freeze(solution)
        if any(entry[1] == frozen for entry in self.elite):
            return
        self.elite.append((cost, frozen, self.problem.solution_attributes(solution)))
        self.elite.sort(key=lambda entry: entry[0])
        del self.elite[self.cfg.elite_size :]


def select_best_admissible(
    neighbors,
    tabu: TabuList,
    best_so_far: float,
    cfg: TabuConfig,
    k: int = 1,
    memory: SearchMemory | None = None,
):
    """Lowest penalized cost among admissible (solution, move, cost) triples.

    Returns the winning triple, or None when nothing is admissible (the
    caller halts).  Ties keep the earliest candidate.
    """
    if not neighbors:
        raise NoNeighborError("cannot select from an empty neighborhood")
    best = None
    best_score = float("inf")
    for entry in neighbors:
        _, move, cost = entry
        if tabu.move_is_tabu(move, k):
            aspires = cfg.aspiration == "best_so_far" and cost < best_so_far
            if not aspires:
                continue
        score = cost + (memory.penalty(move) if memory is not None else 0.0)
        if score < best_score:
            best, best_score = entry, score
    return best


def tabu_search(
    problem,
    budget: Budget,
    seed: int,
    cfg: TabuConfig | None = None,
    start=None,
) -> RunRecord:
    cfg = cfg or TabuConfig()
    run = Run(problem, budget, seed, "tabu_search")
    current = (
        problem.validate(start) if start is not None else problem.random_solution(run.rng)
    )
    f_current = run.evaluate(current)
    best_visited = f_current
    visited = [f_current]
    chosen_moves = []
    tabu = TabuList(cfg.tenure)
    memory = (
        SearchMemory(problem, cfg)
        if cfg.intensification_weight > 0 or cfg.diversification_weight > 0
        else None
    )
    k = 0
    status = None

    while not run.finished:
        neighborhood = problem.neighbors(current)
        if not neighborhood:
            status = "no_neighbors" if k > 0 else None
            if k == 0:
                raise NoNeighborError("start solution has an empty neighborhood")
            break
        candidates = []
        for solution, move in neighborhood:
            if run.finished:
                break
            candidates.append((solution, move, run.evaluate(solution)))
        if not candidates:
            break
        k += 1
        selected = select_best_admissible(candidates, tabu, best_visited, cfg, k, memory)
        if selected is None:
            status = "no_admissible"
            break
        solution, move, cost = selected
        current, f_current = solution, cost
        visited.append(cost)
        chosen_moves.append(move.label)
        best_visited = min(best_visited, cost)
        tabu.push(move.reverse_attributes, k)
        tabu.purge(k)
        if memory is not None:
            memory.update(move, solution, cost)

    extras = {"visited": visited, "moves": chosen_moves, "iterations": k}
    return run.record(status, extras=extras)
