"""Shared contracts for the toolkit: problems, neighborhoods, budgets, run records.

Everything is phrased as minimization.  A problem exposes a cost function
over one of four solution encodings (city permutation, item-to-bin
assignment, real vector, discrete state id) plus neighborhood access.
Optimizers consume problems through a `Run`, which counts every objective
evaluation and keeps the best-so-far trace, so reported evaluation counts
are exact and budgets are enforced in evaluations, never wall time.

Randomness comes from numpy's PCG64 generator.  Given the same seed the
draw sequence is identical on every platform, and `split_streams` derives
independent child streams (one per ant) from a parent generator; spawning
them one at a time, as each Hopfield restart does, gives the same streams.
"""

from __future__ import annotations

import math
import types
import typing
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cache
from numbers import Integral, Real
from typing import Annotated, Any, Callable, Literal, NamedTuple, Union

import numpy as np


class OptimizationError(Exception):
    """Base class for toolkit errors."""


class ValidationError(OptimizationError):
    """A solution or configuration violates its declared structure."""


class EncodingMismatchError(ValidationError):
    """A solution uses the wrong encoding for the target problem."""


class NoNeighborError(OptimizationError):
    """The current solution has an empty neighborhood."""


class UnsupportedOperationError(OptimizationError):
    """The problem kind cannot support the requested operation."""


class BudgetExhaustedError(OptimizationError):
    """An evaluation was requested after the budget ran out."""


class ParseError(OptimizationError):
    """An instance file is malformed; message carries the line number."""


Solution = Any  # tuple, np.ndarray or int depending on the problem kind
Fitness = float

# Relative rounding a `move_cost` may carry against `cost`; see `Run.evaluate_move`.
MOVE_TOLERANCE = 1e-9


def _bool(value, what: str) -> bool:
    if type(value) in (bool, int) and value in (0, 1):
        return bool(value)
    raise ValidationError(f"{what} must be true or false, got {value!r}")


def _number(value, what: str):
    """A finite real number that is not a bool; numeric text reads as float."""
    if isinstance(value, str):
        with suppress(ValueError):
            value = float(value)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def _int(value, what: str) -> int:
    """A whole number, stored as int: 3.0 reads as 3, and 2.5 is refused rather than truncated."""
    if isinstance(value, (bool, str)) or _number(value, what) != int(value):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _str(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ValidationError(f"{what} must be text, got {value!r}")


class Range(NamedTuple):
    """The values a bounded setting takes: above `low`, or at it when `closed`, and below `high`."""

    low: float
    closed: bool = True
    high: float = math.inf


# The bounded settings: annotate a field or parameter with one of these and
# the type rule checks the range after the type.
Count = Annotated[int, Range(1)]  # a whole number of at least 1
Whole = Annotated[int, Range(0)]  # a whole number of at least 0
Positive = Annotated[float, Range(0, closed=False)]  # a finite number above 0
NonNegative = Annotated[float, Range(0)]  # a finite number of at least 0
Fraction = Annotated[float, Range(0, closed=False, high=1)]  # strictly between 0 and 1


@cache
def type_rule(kind) -> Callable[[Any, str], Any] | None:
    """The rule for values annotated `kind`, or None for an annotation left to its owner.

    A rule takes (value, what) and returns the value as the field holds it,
    or raises `ValidationError` naming `what`.  bool takes true/false or 0/1;
    int a whole number, as int; float a finite number as given, or numeric
    text; both refuse bools.  str takes text, Literal one of its strings,
    X | None None or an X.  Annotated[X, Range(...)] takes what X takes
    within the range.  Config fields and config keys share it.
    """
    if typing.get_origin(kind) is Annotated:
        base, (low, closed, high) = typing.get_args(kind)
        rule = type_rule(base)
        span = f"at least {low}" if closed else f"above {low}"
        if high < math.inf:
            span += f" and below {high}"

        def bounded(value, what):
            value = rule(value, what)
            if (low <= value if closed else low < value) and value < high:
                return value
            raise ValidationError(f"{what} must be {span}, got {value!r}")

        return bounded
    if typing.get_origin(kind) is Literal:
        choices = typing.get_args(kind)

        def literal(value, what):
            if isinstance(value, str) and value in choices:
                return value
            raise ValidationError(f"{what} must be one of {choices}, got {value!r}")

        return literal
    if typing.get_origin(kind) in (Union, types.UnionType):
        rest = [a for a in typing.get_args(kind) if a is not type(None)]
        inner = type_rule(rest[0]) if len(rest) == 1 else None  # None: X has no rule either
        return inner and (lambda value, what: None if value is None else inner(value, what))
    return {bool: _bool, int: _int, float: _number, str: _str}.get(kind)


def conform(kind, value, what: str):
    """`value` as a field annotated `kind` holds it; a `ValidationError` names `what`."""
    rule = type_rule(kind)
    return value if rule is None else rule(value, what)


@cache
def field_types(cls) -> dict[str, Any]:
    """The annotation of each field of dataclass `cls`, resolved once per class (it is slow)."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(obj, owner: str) -> None:
    """Keep each field of dataclass `obj` as its rule reads it; errors name `<owner> '<field>'`."""
    for name, kind in field_types(type(obj)).items():
        object.__setattr__(obj, name, conform(kind, getattr(obj, name), f"{owner} {name!r}"))


def seeded_rng(seed: int) -> np.random.Generator:
    """Return the toolkit's reference generator (PCG64) for a seed."""
    return np.random.Generator(np.random.PCG64(seed))


def split_streams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive n independent child generators from rng (stable order)."""
    return list(rng.spawn(n))


@dataclass(frozen=True)
class Neighborhood:
    """A whole neighborhood as arrays, one entry per neighbor, in a fixed order.

    `costs[k]` is the Python float cost of neighbor k, within `window` of
    its full `cost(row(k))`: tours cost a reversal from the four edges it
    changes, which can differ from the full sum in the last bits (see
    `MOVE_TOLERANCE`); packings and state graphs cost their rows through
    `Problem.cost_rows`, bit for bit, and have a zero window.  `row(k)`
    builds neighbor k as a new object (the tour with slice i..j reversed,
    a copy of a block row, a state id), so only the neighbors a decision
    reads are ever built, and `exact(k)` gives it with its full cost.
    `broken[k]` and `made[k]` are the integer atom ids the move to
    neighbor k consumes and creates (the city adjacencies a reversal
    breaks and makes, an (item, bin) pair, a labeled step on a state
    graph), padded with -1 to a common width; every move has at least one
    of each.  A short-term memory that forbids undoing a move stores its
    `made` atoms.  `label(k)` names move k for the record; it is computed
    only for the moves a searcher picks.

    Every decision is read on full costs.  A neighbor whose cost is more
    than a window from deciding anything is settled on `costs` alone; one
    within it is built and read through `exact`.
    """

    costs: list
    broken: np.ndarray
    made: np.ndarray
    label: Callable[[int], Any]
    row: Callable[[int], Any]
    window: float = 0.0
    cost: Callable[[Any], float] | None = None  # the problem's `cost`, read where window > 0
    _exact: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.costs)

    def exact(self, k: int) -> tuple[Any, float]:
        """Neighbor k and its full cost, built once.

        With a zero window `costs[k]` is the full cost.  Otherwise
        `cost(row(k))` is read, and a `costs[k]` farther than the window
        from it raises `ValidationError`.
        """
        found = self._exact.get(k)
        if found is None:
            solution, value = self.row(k), self.costs[k]
            if self.window:
                value = _checked(self.cost(solution), value, self.window)
            found = self._exact[k] = solution, value
        return found


def _checked(full: float, value: float, window: float) -> float:
    """`full`, once `value` is found within `window` of it; else `ValidationError`."""
    if abs(full - value) > window:
        raise ValidationError(
            f"move cost {value!r} disagrees with the full cost {full!r} "
            f"of the solution it builds"
        )
    return full


@dataclass(frozen=True)
class Budget:
    """Evaluation budget plus optional success target.

    A run halts no later than `max_evaluations` objective calls; if
    `target_fitness` is set the run may stop as soon as the best-so-far
    cost reaches it, and the evaluation index of that event is recorded.
    """

    max_evaluations: Count
    target_fitness: float | None = None

    def __post_init__(self):
        check_fields(self, "budget")


@dataclass(frozen=True)
class RunRecord:
    """Deterministic trace of one optimizer run.

    `best_curve` holds (evaluation index, best cost) at every strict
    improvement, so the best-so-far value at any budget n can be read off
    the curve.  `extras` carries algorithm-specific counters and must stay
    JSON-serializable; wall time never appears here.
    """

    algorithm: str
    seed: int
    status: str
    evaluations: int
    best_fitness: float
    best_solution: Any
    best_curve: tuple
    evaluations_to_success: int | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "status": self.status,
            "evaluations": self.evaluations,
            "best_fitness": self.best_fitness,
            "best_solution": self.best_solution,
            "best_curve": [list(p) for p in self.best_curve],
            "evaluations_to_success": self.evaluations_to_success,
            "extras": self.extras,
        }


def success_time(record: RunRecord, threshold: float) -> int | None:
    """First evaluation index at which best cost was <= threshold."""
    for n, f in record.best_curve:
        if f <= threshold:
            return n
    return None


class Run:
    """Evaluation counter and best-so-far tracker for one optimizer run.

    Optimizers call `evaluate` for every objective computation, directly
    or through `evaluate_move` or `evaluate_batch`; nothing else touches
    the counter.  Candidates are costed with `Problem.cost`
    (or arrive with their cost, see `evaluate`); a strict improvement is
    re-evaluated through the checked `Problem.evaluate` before it enters
    the record, so every recorded best solution has been validated.
    `finished` turns true once the budget is spent or the target cost
    has been reached; searchers ask for no evaluation after that, and
    `evaluate` guards the budget by raising `BudgetExhaustedError`.
    """

    def __init__(self, problem: "Problem", budget: Budget, seed: int, algorithm: str):
        self.problem = problem
        self.budget = budget
        self.seed = seed
        self.algorithm = algorithm
        self.rng = seeded_rng(seed)
        self.evaluations = 0
        self.best_fitness = float("inf")
        self.best_solution = None
        self.best_curve: list[tuple[int, float]] = []
        self.evaluations_to_success: int | None = None
        self._cost_scale = 1.0  # largest |cost| `evaluate_move` has seen, at least 1

    def evaluate(self, solution, value: float | None = None) -> float:
        """Count one candidate; validate it only if it enters the record.

        `value`, when given, is the candidate's `cost` computed ahead of
        time (a swarm sweep costs all its rows at once through
        `cost_rows`, and `evaluate_batch` counts it and every
        neighborhood), and `cost` is not called again.  Each candidate is
        still one call here, so the evaluation count, the best curve and
        the budget and target stops land on exactly the candidate they
        would if it were costed alone, and anything counting calls to this
        method counts evaluations.  A strict improvement is checked through
        `Problem.evaluate` either way, and a `value` that disagrees with
        it raises `ValidationError`.
        """
        if self.evaluations >= self.budget.max_evaluations:
            raise BudgetExhaustedError(
                f"budget of {self.budget.max_evaluations} evaluations exhausted"
            )
        if value is None:
            value = self.problem.cost(solution)
        self.evaluations += 1
        if value < self.best_fitness:
            checked = self.problem.evaluate(solution)
            if checked != value:
                raise ValidationError(
                    f"cost {value!r} of an improving solution disagrees with its "
                    f"checked evaluation {checked!r}"
                )
            self.best_fitness = value
            self.best_solution = self.problem.freeze(solution)
            self.best_curve.append((self.evaluations, value))
            target = self.budget.target_fitness
            if self.evaluations_to_success is None and target is not None and value <= target:
                self.evaluations_to_success = self.evaluations
        return value

    def evaluate_move(self, solution, f: float, move) -> float:
        """Count one sampled move from `solution`, whose cost is `f`.

        The move is costed by `Problem.move_cost`, which may reach the
        candidate's cost from `f` without building it.  A cost carried
        from move to move picks up the rounding of every sum it passes
        through, which can be as large as the largest cost it has held,
        so the window is `MOVE_TOLERANCE` times the largest |cost| this
        run has passed to or got from `move_cost` (at least 1).  A value
        that could enter the record, one below the best cost or within
        that window of it, is re-costed in full on the built candidate,
        so improvements are decided, checked and recorded on full costs
        as `evaluate` would; a `move_cost` farther than the window from
        that cost raises `ValidationError`.  Returns the value the
        candidate was counted at.  The count goes through `evaluate`,
        one call per candidate.
        """
        problem = self.problem
        value = problem.move_cost(solution, f, move)
        scale = self._cost_scale
        if abs(f) > scale or abs(value) > scale:
            scale = self._cost_scale = max(scale, abs(f), abs(value))
        tolerance = MOVE_TOLERANCE * scale
        if not value < self.best_fitness + tolerance:
            return self.evaluate(None, value)  # cannot improve: the solution is not read
        candidate = problem.apply(solution, move)
        return self.evaluate(candidate, _checked(problem.cost(candidate), value, tolerance))

    def evaluate_batch(self, costs, exact: Callable[[int], tuple], window: float = 0.0) -> int:
        """Count candidates 0, 1, ... at `costs`, in order, until the run finishes.

        `costs[k]` lies within `window` of candidate k's full cost, and
        `exact(k)` builds candidate k and returns it with that full cost
        (`Neighborhood.exact`).  Only a candidate that could enter the
        record, one below the best cost plus the window, is built and
        counted at its full cost, as `evaluate_move` does; the others are
        counted at `costs[k]` and never built.  One `evaluate` call per
        candidate, and none once the budget is spent or the target
        reached; returns how many were counted (all of them unless the
        run finished part way).
        """
        if self.evaluations_to_success is not None:
            return 0
        batch = costs[: self.budget.max_evaluations - self.evaluations]
        evaluate = self.evaluate
        bar = self.best_fitness + window
        for k, value in enumerate(batch):
            if value < bar:
                evaluate(*exact(k))
                if self.evaluations_to_success is not None:  # only a new best reaches the target
                    return k + 1
                bar = self.best_fitness + window
            else:
                evaluate(None, value)
        return len(batch)

    def start(self, start=None):
        """The first solution of a search: `start` validated, or a random one if None."""
        if start is None:
            return self.problem.random_solution(self.rng)
        return self.problem.validate(start)

    @property
    def out_of_budget(self) -> bool:
        return self.evaluations >= self.budget.max_evaluations

    @property
    def target_reached(self) -> bool:
        return self.evaluations_to_success is not None

    @property
    def finished(self) -> bool:
        """`out_of_budget or target_reached`, inlined: searchers ask it twice per evaluation."""
        return (self.evaluations >= self.budget.max_evaluations
                or self.evaluations_to_success is not None)

    def record(self, status: str | None = None, extras: dict | None = None) -> RunRecord:
        if status is None:
            status = "target_reached" if self.target_reached else "budget_exhausted"
        return RunRecord(
            algorithm=self.algorithm,
            seed=self.seed,
            status=status,
            evaluations=self.evaluations,
            best_fitness=self.best_fitness,
            best_solution=self.best_solution,
            best_curve=tuple(self.best_curve),
            evaluations_to_success=self.evaluations_to_success,
            extras=extras or {},
        )


class Problem:
    """Minimization problem contract.

    Concrete problems implement `validate`, `cost`, `random_solution`
    (uniform random construction) and `sample_move`.  Where the
    neighborhood is finite they also implement `neighbors`, which
    returns the whole of it as one `Neighborhood` (costs, atom ids,
    labels, rows built on demand) in a fixed order, and
    `solution_attributes` and `atom_count`, the size of the atom id
    space both use; tabu memories are arrays indexed by atom id.
    Continuous landscapes raise UnsupportedOperationError in `neighbors`.

    Sampled search moves through three methods.  `sample_move` draws a
    move, `move_cost(solution, f, move)` gives the cost of the solution
    the move leads to, given `f = cost(solution)`, and `apply` builds
    that solution as a new object; `sample_neighbor` is `apply` of a
    drawn move.  By default a move is the sampled neighbor itself, which
    `move_cost` costs with `cost` and `apply` returns, so a kind that
    draws whole neighbors writes only `sample_move`.  `TspInstance`
    overrides all three: a move is a reversal (i, j), costed from the
    four edges it changes and built only when a search keeps it.  Such
    a cost may differ from `cost` by rounding, which `Run.evaluate_move`
    allows for within `MOVE_TOLERANCE` of the largest cost carried.

    `cost_rows(rows)` is the batched twin of `cost`: one Python float
    per solution in `rows`, with `cost_rows(rows)[k] == cost(rows[k])`
    bit for bit, in any memory layout of the block.  The base
    implementation calls `cost` once per row.  Tours, packings and
    continuous landscapes override it to cost an (M, n) block in one set
    of array operations, reading each row as C-ordered: numpy sums along
    the rows of a C-ordered block pairwise, as it sums one solution, but
    straight down the columns of a Fortran-ordered one, which rounds
    differently once a row has 8 terms or more.  Packing and state-graph
    `neighbors` cost their rows, and a particle swarm its sweep, through
    it; a tour neighborhood costs each reversal as `move_cost` does.

    Solutions are checked where they enter and where they reach the
    record.  `evaluate` is the one checked entry for outside input
    (starts, files, tests): it validates, then costs.  `cost`,
    `sample_move`, `neighbors` and `solution_attributes` do not
    validate, because inside a search they only ever see solutions the
    problem built itself (`random_solution` or a neighbor operator) or a
    start that `Run.start` already passed through `validate`; these are
    valid by construction.  `Run` counts every candidate, costed by
    `cost`, `move_cost` or `cost_rows`, and passes each strict
    improvement through `evaluate` before recording it.
    """

    kind: str = "abstract"
    atom_count: int = 0

    def evaluate(self, solution) -> float:
        """Validate, then cost: the checked entry for outside input."""
        return self.cost(self.validate(solution))

    def cost(self, solution) -> float:
        """Objective of a solution `validate` returned or the problem built."""
        raise NotImplementedError

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each solution in `rows`, as Python floats, bit for bit."""
        return [self.cost(r) for r in rows]

    def validate(self, solution):
        """Return the solution in canonical form, or raise."""
        raise NotImplementedError

    def random_solution(self, rng: np.random.Generator):
        raise NotImplementedError

    def sample_move(self, solution, rng: np.random.Generator):
        """Draw one move from `solution`; every problem kind writes its own.

        Tours draw a reversal uniformly from those `neighbors` lists, and
        state graphs an edge uniformly from the state's edges.  Packings
        choose a swap or a relocation with equal chance (a relocation
        whenever all items share one bin), then draw uniformly within that
        kind, so a kind's share does not follow its count.  Continuous
        boxes step each coordinate uniformly within its `neighbor_radius`
        and clamp the point to the box.
        """
        raise NotImplementedError

    def sample_neighbor(self, solution, rng: np.random.Generator):
        """The neighbor a drawn move leads to, as a new object."""
        return self.apply(solution, self.sample_move(solution, rng))

    def move_cost(self, solution, f: float, move) -> float:
        """Cost of `apply(solution, move)`, given `f = cost(solution)`."""
        return self.cost(move)

    def apply(self, solution, move):
        """The solution a move leads to, as a new object; `solution` is untouched."""
        return move

    def neighbors(self, solution) -> Neighborhood:
        """The full neighborhood, costed, in a fixed order."""
        raise UnsupportedOperationError(
            f"{self.kind} problems do not enumerate neighborhoods"
        )

    def solution_attributes(self, solution) -> np.ndarray:
        """Distinct atom ids a solution is made of, for overlap-based memories."""
        return np.empty(0, dtype=np.intp)

    def freeze(self, solution):
        """Immutable, JSON-friendly copy of a solution (Python scalars only)."""
        plain = np.asarray(solution).tolist()
        return tuple(plain) if isinstance(plain, list) else plain
