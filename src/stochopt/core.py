"""Shared contracts for the toolkit: problems, neighborhoods, budgets, run records.

Everything is phrased as minimization.  A problem exposes a cost function
over one of four solution encodings (city permutation, item-to-bin
assignment, real vector, discrete state id) plus neighborhood access.
Optimizers consume problems through a `Run`, which counts every objective
evaluation and keeps the best-so-far trace, so reported evaluation counts
are exact and budgets are enforced in evaluations, never wall time.

Randomness comes from numpy's PCG64 generator.  Given the same seed the
draw sequence is identical on every platform, and `Generator.spawn`
derives independent child streams from a parent generator: all at once
for the ants of a run, one at a time as each Hopfield restart begins.
Simulated annealing (its probe walk included) and first-accept hill
climbing draw their scalar `integers(m)` and `random()` values through
`ScalarDraws`, which decodes them from PCG64's raw 64-bit words as
numpy's bounded-integer (Lemire) and `next_double` definitions do; every
other draw is numpy's own.  NumPy's compatibility policy (NEP 19) keeps
the bit generator's raw stream stable across releases but lets
`Generator` methods change theirs, so those searchers' records rest on
the raw stream and those two published definitions.  The decoder was
checked against numpy 2.4.6.
"""

from __future__ import annotations

import math
import types
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cache
from numbers import Integral, Real
from typing import Annotated, Any, Callable, Literal, NamedTuple, Union

import numpy as np
import numpy.random  # noqa: F401  numpy imports it lazily; load it here, not in a first run


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
    """An input file is malformed; the message names the file, and the line if one is at fault."""


Solution = Any  # tuple, np.ndarray or int depending on the problem kind
Fitness = float

# Relative rounding a `move_cost` may carry against `cost`; see `Run.evaluate_move`.
MOVE_TOLERANCE = 1e-9
INTP = np.dtype(np.intp).char  # the `array` type code whose items are numpy's intp


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


def check_symmetric(m: np.ndarray, what: str, symbol: str) -> None:
    """Refuse a square matrix other than its exact transpose, naming the largest asymmetry."""
    if not np.array_equal(m, m.T):
        with np.errstate(invalid="ignore"):  # inf - inf reads as a nan gap
            gap = np.abs(m - m.T)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise ValidationError(
            f"{what} must be exactly symmetric; largest asymmetry "
            f"|{symbol}[{i}, {j}] - {symbol}[{j}, {i}]| = {gap[i, j]:.3g}"
        )


def read_text(path) -> str:
    """The file at `path` as UTF-8 text, newlines read as `open` reads them;
    bytes that are not UTF-8 raise `ParseError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def seeded_rng(seed: int) -> np.random.Generator:
    """Return the toolkit's reference generator (PCG64) for a seed."""
    return np.random.Generator(np.random.PCG64(seed))


_HALF = 0xFFFFFFFF  # a 32-bit half of a raw word
_WORDS_PER_READ = 256


class ScalarDraws:
    """A PCG64 `Generator`'s scalar draws, decoded in Python from its raw words.

    `integers(m)` for 1 <= m <= 2**32 and `random()` return what the
    generator's own calls would; `integers` costs well under half of
    numpy's scalar call.  It follows numpy's bounded 32-bit draw: a 32-bit
    value x, low half of a word first and the high half buffered in the
    bit generator's `has_uint32` / `uinteger`, becomes (x * m) >> 32, and
    x is drawn again while the low 32 bits of x * m are below
    (2**32 - m) % m (Lemire's method), a threshold computed only for low
    bits below m; m = 1 draws nothing, and m = 2**32, whose threshold is
    0, returns x.  `random()` is (w >> 11) * 2**-53 for the next whole word
    w, as numpy's `next_double`.  Words are read `_WORDS_PER_READ` at a
    time with `random_raw`.

    `close` hands the generator back in the state its own calls would have
    left: it steps the bit generator back over the words read but not used
    and restores the buffered half, which `advance` clears; a `with` block
    closes on every exit.  After it, `integers` and `random` send every
    call to the generator, as they send any call they do not decode
    (`integers` with more arguments, `random(size)`).  Every other public
    name of `np.random.Generator` (`permutation`, `uniform`, the
    `bit_generator` property, ...) is a delegate set once on this class
    that closes first and then goes to the generator's own.

    The class has no `__getattr__`, and nothing writes a method into an
    instance: either one keeps CPython 3.10 and 3.11 from specializing
    the attribute loads of the decoder and of its callers (PEP 659).
    With `__getattr__` on the class, `integers(25)` took 0.456-0.474 µs
    against 0.318-0.338 µs without, and `random()` 0.278-0.289 against
    0.188-0.195 µs (timeit, five interleaved rounds, Python 3.11.7,
    numpy 2.4.6, 2 vCPU; numpy's own calls took 1.13 and 0.40 µs).
    Python 3.12 and later specialize either way.
    """

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._bits = generator.bit_generator
        state = self._bits.state
        self._has_half = bool(state["has_uint32"])
        self._half = state["uinteger"]
        self._words: list[int] | None = []  # unused words, the next one last; None once closed

    def _read(self) -> list[int]:
        self._words = words = self._bits.random_raw(_WORDS_PER_READ).tolist()[::-1]
        return words

    def integers(self, high, *args, **kwargs):
        words = self._words
        if words is None or args or kwargs or type(high) is not int or not 0 < high <= _HALF + 1:
            return self._numpy("integers")(high, *args, **kwargs)
        if high == 1:
            return 0
        while True:  # x: the buffered half, else the low half of a fresh word
            if self._has_half:
                self._has_half = False
                product = self._half * high
            else:
                try:
                    word = words.pop()
                except IndexError:
                    words = self._read()
                    word = words.pop()
                self._half, self._has_half = word >> 32, True
                product = (word & _HALF) * high
            low = product & _HALF
            if low >= high or low >= (_HALF + 1 - high) % high:
                return product >> 32

    def random(self, *args, **kwargs):
        words = self._words
        if words is None or args or kwargs:
            return self._numpy("random")(*args, **kwargs)
        try:
            word = words.pop()
        except IndexError:
            word = self._read().pop()
        return (word >> 11) * 2.0**-53

    def close(self) -> None:
        """Hand the generator back; later calls, these two included, go to it."""
        if self._words is None:
            return
        bits = self._bits
        bits.advance(-len(self._words))
        state = bits.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bits.state = state
        self._words = None

    def __enter__(self) -> ScalarDraws:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _numpy(self, name: str):
        """The generator's own `name`, after handing the generator back."""
        self.close()
        return getattr(self._generator, name)


def _handing_back(name: str):
    """`ScalarDraws.<name>` for a `Generator` name it does not decode: close, then the generator's.

    A method stays a method and a property (`bit_generator`) a property."""
    if not callable(getattr(np.random.Generator, name)):
        return property(lambda self: self._numpy(name), doc=f"The generator's `{name}`, handed back.")

    def delegate(self, *args, **kwargs):
        return self._numpy(name)(*args, **kwargs)

    delegate.__name__ = name
    delegate.__qualname__ = f"ScalarDraws.{name}"
    delegate.__doc__ = f"The generator's `{name}`, called after handing it back."
    return delegate


for _name in dir(np.random.Generator):
    if not _name.startswith("_") and _name not in vars(ScalarDraws):
        setattr(ScalarDraws, _name, _handing_back(_name))
del _name


@dataclass(frozen=True)
class Neighborhood:
    """A whole neighborhood as arrays, one entry per neighbor, in a fixed order.

    `costs[k]` is the Python float cost of neighbor k, within `window` of
    its full `cost(row(k))`: tours cost a reversal from the four edges it
    changes and packings a relocation or swap from the two bin loads it
    changes, which can differ from the full sum in the last bits (see
    `MOVE_TOLERANCE`).  Whole-number packing loads are exact integers and
    state graphs cost their few rows through `Problem.cost_rows`; these
    are bit for bit, with a zero window.
    `row(k)` builds neighbor k as a new object (the tour with slice i..j
    reversed, the assignment with one item moved or two swapped, a copy
    of a block row, a state id), so only the neighbors a decision reads
    are ever built, and `exact(k)` gives it with its full cost.
    `broken[k]` and `made[k]` are the integer atom ids the move to
    neighbor k consumes and creates (the city adjacencies a reversal
    breaks and makes, an (item, bin) pair, a labeled step on a state
    graph), padded with -1 to a common width; every move has at least one
    of each.  A short-term memory that forbids undoing a move stores its
    `made` atoms.  `label(k)` names move k for the record; it is computed
    only for the moves a searcher picks.

    Every decision is read on full costs, and `lowest` is the one rule
    that makes it: a neighbor whose cost is more than a window from
    deciding anything is settled on `costs` alone; one within it is built
    and read through `exact`.
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

    def evaluate(self, run) -> int:
        """Count the neighbors in order through `run.evaluate_batch`; returns how many."""
        return run.evaluate_batch(self.costs, self.exact, self.window)

    def lowest(
        self, evaluated: int, penalty=None, tabu=None, aspire_below: float = -math.inf
    ) -> int | None:
        """Index of the lowest full cost plus `penalty` among the first `evaluated`
        neighbors that are admissible (not `tabu[k]`, or of full cost below
        `aspire_below`); None when none is.  Ties keep the earliest neighbor.

        `costs`, and so the scores, lie within a window of the full ones; a
        penalty widens it to `MOVE_TOLERANCE` of the largest score, where the
        scores round coarser than the costs.  The lowest score m of a surely
        admissible move bounds the choice: each move that may be admissible
        and scores below m plus two windows is read in full (`exact`) and
        decided on its full score, and no other move can tie or win.  When
        that is the one move with score m, or the window is zero, m decides.
        """
        if evaluated == 0:
            raise NoNeighborError("cannot select from an empty neighborhood")
        costs = np.array(self.costs[:evaluated])
        window = self.window
        scores = costs if penalty is None else costs + penalty
        if penalty is not None and window:
            window = max(window, MOVE_TOLERANCE * float(np.abs(scores).max()))
        tabu = np.zeros(evaluated, dtype=bool) if tabu is None else tabu
        # tabu and not surely aspiring: a cost a window below aspire_below surely is
        blocked = tabu & ~(costs < aspire_below - window)
        ranked = np.where(blocked, np.inf, scores)
        best = int(np.argmin(ranked))
        low = ranked[best]
        if not window:
            return best if low < np.inf else None
        near = [
            m for m in np.flatnonzero(scores < low + 2 * window).tolist()
            if not tabu[m] or costs[m] < aspire_below + window  # may be admissible
        ]
        if low < np.inf and near == [best]:
            return best
        chosen, lowest = None, np.inf
        for m in near:
            full = self.exact(m)[1]
            if tabu[m] and not full < aspire_below:
                continue
            score = full if penalty is None else full + penalty[m]
            if score < lowest:
                chosen, lowest = m, score
        return chosen


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
    or through `start`, `evaluate_move`, `evaluate_rows` or
    `evaluate_batch`; nothing else touches the counter.  Candidates are
    costed with `Problem.cost` (or arrive with their cost, see
    `evaluate`); a strict improvement is
    re-evaluated through the checked `Problem.evaluate` before it enters
    the record, so every recorded best solution has been validated.  The
    run keeps a copy of it and freezes it (`Problem.freeze`) only where
    it is read, through `best_solution` or `record`, not at every
    improvement.
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
        self._best = None  # a copy of the best solution, frozen when read
        self.best_curve: list[tuple[int, float]] = []
        self.evaluations_to_success: int | None = None
        self._cost_scale = 1.0  # largest |cost| `evaluate_move` has seen, at least 1

    def evaluate(self, solution, value: float | None = None) -> float:
        """Count one candidate; validate it only if it enters the record.

        `value`, when given, is the candidate's `cost` computed ahead of
        time (`evaluate_batch` passes the costs of a block or a
        neighborhood), and `cost` is not called again.
        Each candidate is still one call here, so the evaluation count,
        the best curve and the budget and target stops land on exactly
        the candidate they would if it were costed alone, and anything
        counting calls to this method counts evaluations.  A strict
        improvement is checked through `Problem.evaluate` either way, and
        a `value` that disagrees with it raises `ValidationError`.
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
            self._best = np.array(solution)
            self.best_curve.append((self.evaluations, value))
            target = self.budget.target_fitness
            if self.evaluations_to_success is None and target is not None and value <= target:
                self.evaluations_to_success = self.evaluations
        return value

    def evaluate_move(self, state, f: float, move) -> float:
        """Count one sampled move from chain state `state`, whose cost is `f`.

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
        candidate was counted at.  One `evaluate` call counts the candidate.
        """
        problem = self.problem
        value = problem.move_cost(state, f, move)
        scale = self._cost_scale
        if abs(f) > scale or abs(value) > scale:
            scale = self._cost_scale = max(scale, abs(f), abs(value))
        tolerance = MOVE_TOLERANCE * scale
        if not value < self.best_fitness + tolerance:
            return self.evaluate(None, value)  # cannot improve: the solution is not read
        candidate = problem.apply(state, move)
        return self.evaluate(candidate, _checked(problem.cost(candidate), value, tolerance))

    def evaluate_batch(self, costs, exact: Callable[[int], tuple], window: float = 0.0) -> int:
        """Count candidates 0, 1, ... at `costs`, in order, until the run finishes.

        `costs[k]` lies within `window` of candidate k's full cost, and
        `exact(k)` builds candidate k and returns it with that full cost
        (`Neighborhood.exact`, or the row and its cost for
        `evaluate_rows`).  Only a candidate that could enter the record,
        one below the best cost plus the window, is built and counted at
        its full cost, as `evaluate_move` does; the others are
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

    def evaluate_rows(self, rows) -> tuple[list[float], int]:
        """Cost `rows` with one `Problem.cost_rows` call, then count them in order
        through `evaluate_batch`; returns (every row's cost, how many were counted).

        Its callers: a random-search block, a swarm sweep, an ant iteration and
        annealing's probe walk."""
        costs = self.problem.cost_rows(rows)
        return costs, self.evaluate_batch(costs, lambda k: (rows[k], costs[k]))

    @contextmanager
    def scalar_draws(self):
        """Decode `rng`'s scalar draws (`ScalarDraws`) for a block, then hand it back.

        Inside the block `rng` is the decoder; after it, on every exit,
        `rng` is the generator again, in the state its own calls would have
        left.  Searchers open it around loops of scalar draws.
        """
        generator = self.rng
        with ScalarDraws(generator) as self.rng:
            try:
                yield
            finally:
                self.rng = generator

    def start(self, start=None) -> tuple[Any, float]:
        """A search's first solution, or a restart's: `start` validated, or a
        random one if None, counted through `evaluate`; returns (solution, cost)."""
        problem = self.problem
        solution = problem.random_solution(self.rng) if start is None else problem.validate(start)
        return solution, self.evaluate(solution)

    @property
    def best_solution(self):
        """The best solution counted so far, frozen (`Problem.freeze`); None before the first."""
        return None if self._best is None else self.problem.freeze(self._best)

    @property
    def finished(self) -> bool:
        """True once the budget is spent or the target reached."""
        return (self.evaluations >= self.budget.max_evaluations
                or self.evaluations_to_success is not None)

    def record(self, status: str | None = None, extras: dict | None = None) -> RunRecord:
        if status is None:
            status = "budget_exhausted" if self.evaluations_to_success is None else "target_reached"
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

    Sampled search walks a chain whose state the searcher carries:
    `chain(solution)` gives a solution's state, `sample_move` draws a
    move from it, `move_cost(state, f, move)` costs the solution the
    move leads to, given `f`, the cost of the state's solution, `apply`
    builds that solution as a new object, and `advance(state, move)`
    gives its state.
    By default the state is the solution and a move is the sampled
    neighbor itself, which `move_cost` costs with `cost` and `apply` and
    `advance` return, so a kind that draws whole neighbors writes only
    `sample_move`; `sample_neighbor` is `apply` of a drawn move.  A
    `TspInstance` state is the tour as an `array` of `INTP`, and a move
    a reversal (i, j), costed from the four edges it changes, read
    through per-row views of the distances, and kept by reversing a
    copy of the state; such a cost may differ from `cost` by rounding,
    which `Run.evaluate_move` allows for within `MOVE_TOLERANCE` of the
    largest cost carried.  A `BinPackingInstance` state holds its bin
    ids as an `array` of `INTP` too, with the loads and item counts, and
    a move names the items that change bins, the two bins and the size
    that shifts; it is costed and carried from the two loads it changes,
    exactly as a fresh sum on whole-number loads, by writing the move
    into a copy of the ids.

    `cost_rows(rows)` is the batched twin of `cost`: one Python float
    per solution in `rows`, with `cost_rows(rows)[k] == cost(rows[k])`
    bit for bit, in any memory layout of the block.  The base
    implementation calls `cost` once per row.  Tours, packings and
    continuous landscapes override it to cost an (M, n) block in one
    set of array operations, reading each row as C-ordered: numpy sums
    along the rows of a C-ordered block pairwise, as it sums one
    solution, but straight down the columns of a Fortran-ordered one,
    which rounds differently once a row has 8 terms or more.  State-graph
    `neighbors` cost their rows through it, and `Run.evaluate_rows` each
    block a searcher draws.  A tour neighborhood costs each reversal as
    `move_cost` does, and a packing each move from the two loads it
    changes; neither builds a row it does not hand out.
    `random_solutions(rng, k)` draws such a block: by default k
    `random_solution` calls, so a new kind needs only `random_solution`;
    tours draw theirs in one `permuted` call.

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

    def random_solutions(self, rng: np.random.Generator, k: int):
        """`k` successive `random_solution` draws as rows: the same values, and
        `rng` left in the same state.  A kind overrides it only to draw faster."""
        return [self.random_solution(rng) for _ in range(k)]

    def sample_move(self, state, rng: np.random.Generator):
        """Draw one move from chain state `state`; every problem kind writes its own.

        Tours draw a reversal uniformly from those `neighbors` lists, and
        state graphs an edge uniformly from the state's edges.  Packings
        choose a swap or a relocation with equal chance (a relocation
        whenever all items share one bin), then draw uniformly within that
        kind, so a kind's share does not follow its count.  Continuous
        boxes step each coordinate uniformly within its `neighbor_radius`
        and clamp the point to the box.  Inside annealing and first-accept
        `rng` is a `ScalarDraws`, which gives the values and generator state
        numpy's calls would.
        """
        raise NotImplementedError

    def sample_neighbor(self, solution, rng: np.random.Generator):
        """The neighbor a drawn move leads to, as a new object."""
        state = self.chain(solution)
        return self.apply(state, self.sample_move(state, rng))

    def chain(self, solution):
        """The state a sampled search carries for `solution`: by default the solution."""
        return solution

    def move_cost(self, state, f: float, move) -> float:
        """Cost of `apply(state, move)`, given `f`, the cost of the state's solution."""
        return self.cost(move)

    def apply(self, state, move):
        """The solution a move leads to, as a new object; `state` is untouched."""
        return move

    def advance(self, state, move):
        """The state after `move`; `state` is untouched."""
        return self.apply(state, move)

    def neighbors(self, solution) -> Neighborhood:
        """The full neighborhood, costed, in a fixed order."""
        raise UnsupportedOperationError(
            f"{self.kind} problems do not enumerate neighborhoods"
        )

    def solution_attributes(self, solution) -> np.ndarray:
        """Distinct atom ids a solution is made of, for overlap-based memories."""
        return np.empty(0, dtype=np.intp)

    def freeze(self, solution):
        """Immutable, JSON-friendly copy of a solution (Python scalars only);
        `Run` freezes its best solution where it is read."""
        plain = np.asarray(solution).tolist()
        return tuple(plain) if isinstance(plain, list) else plain
