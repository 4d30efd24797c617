"""Success statistics over run ensembles, and complexity projections.

For an ensemble of independent runs, the cumulative success probability
P(n) is the fraction of runs whose best cost reached the target within n
evaluations.  The effort to hit the target with confidence z by
restarting length-n runs is

    I(n, z) = n * ceil(ln(1 - z) / ln(1 - P(n)))      for 0 < P(n) < 1
    I(n, z) = n                                        when P(n) = 1

and the reported effort is the minimum of I over n, together with the
minimizing n.  The ceil ratio is rounded to 12 decimals first so that a
value that is an integer up to float noise does not get bumped a whole
run upward.

`runtime_projection` turns a complexity class and a problem size into
seconds at a given instruction rate, with factorial counts computed in
exact integer arithmetic before the division.  A count with more digits
than Python prints comes back as a `Magnitude`, its base-10 logarithm;
that logarithm is computed first (`math.lgamma` for factorials), so a
count that long is never built.  `nfl_comparison` lays
algorithm ensembles side by side against a random-search baseline at
equal budgets; it presents curves and distributions and draws no verdict.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (Count, Fraction, OptimizationError, Positive, ValidationError, check_fields,
                   conform, success_time)

DEFAULT_CONFIDENCE = 0.99  # the confidence z of effort statistics unless one is given


class EffortUndefinedError(OptimizationError):
    """No run in the ensemble ever reached the target."""


@dataclass(frozen=True)
class EnsembleStats:
    """Runs of one algorithm on one instance under one budget.

    `threshold` re-derives success times from the best-so-far curves;
    when None the success bookkeeping recorded during the runs is used
    as-is.
    """

    records: tuple
    budget: Count
    threshold: float | None = None

    def __post_init__(self):
        check_fields(self, "ensemble")
        if not self.records:
            raise ValidationError("an ensemble needs at least one run")
        names = {r.algorithm for r in self.records}
        if len(names) > 1:
            raise ValidationError(f"mixed algorithms in one ensemble: {sorted(names)}")

    @property
    def algorithm(self) -> str:
        return self.records[0].algorithm

    def success_times(self) -> list:
        """Evaluation counts at success, one entry per succeeding run."""
        times = []
        for r in self.records:
            t = (
                success_time(r, self.threshold)
                if self.threshold is not None
                else r.evaluations_to_success
            )
            if t is not None:
                times.append(int(t))
        return sorted(times)

    def best_summary(self) -> dict:
        """Median, mean, least and greatest best cost over the runs.

        The median is the middle sorted cost, or half the sum of the two
        middle ones, the value `np.median` gives.  `np.median` itself is
        not called: on numpy 2 its first call imports `numpy.ma`, which took
        9-16 ms of every fresh run (2 vCPU, Python 3.11).  Nor is
        `statistics.median`: importing `statistics` loads `fractions` and
        `decimal`, about 4.5 ms more.
        """
        best = np.array([r.best_fitness for r in self.records], dtype=float)
        ranked = sorted(best.tolist())
        half = len(ranked) // 2
        median = ranked[half] if len(ranked) % 2 else (ranked[half - 1] + ranked[half]) / 2
        return {
            "best_median": median,
            "best_mean": float(best.mean()),
            "best_min": float(best.min()),
            "best_max": float(best.max()),
        }


def cumulative_success(e: EnsembleStats, n: Count) -> float:
    n = conform(Count, n, "evaluation count 'n'")
    times = e.success_times()
    hits = np.searchsorted(times, n, side="right")
    return float(hits) / len(e.records)


def _runs_needed(p: float, z: float) -> int:
    if p >= 1.0:
        return 1
    ratio = math.log(1.0 - z) / math.log(1.0 - p)
    return max(1, math.ceil(round(ratio, 12)))


def success_steps(e: EnsembleStats) -> list:
    """[(t, P(t))] at each distinct success time t, ties collapsed to the final height."""
    total = len(e.records)
    height = {t: (i + 1) / total for i, t in enumerate(e.success_times())}  # last tie wins
    return list(height.items())


def effort_steps(e: EnsembleStats, z: Fraction) -> list:
    """[(t, I(t, z))] at each distinct success time t within the budget.

    P(n) only moves at success times and I(n, z) grows with n between
    them, so the first minimum of I(n, z) over 1..budget is always among
    these.
    """
    z = conform(Fraction, z, "confidence 'z'")
    steps = [(t, t * _runs_needed(p, z)) for t, p in success_steps(e) if t <= e.budget]
    if not steps:
        raise EffortUndefinedError("no run reached the target within the budget")
    return steps


def computational_effort(e: EnsembleStats, z: Fraction) -> tuple:
    """(n*, I): restart length minimizing the effort (the first on ties), and that effort."""
    return min(effort_steps(e, z), key=lambda step: step[1])


@dataclass(frozen=True)
class ComplexityClass:
    """Operation-count growth law: poly(k), exp(base), tsp_factorial, factorial."""

    kind: str
    parameter: float | None = None

    def __post_init__(self):
        parameter = conform(float | None, self.parameter, f"{self.kind} parameter")
        object.__setattr__(self, "parameter", parameter)
        if self.kind == "poly":
            if self.parameter is None or self.parameter < 1:
                raise ValidationError("polynomial degree must be >= 1")
        elif self.kind == "exp":
            if self.parameter is None or self.parameter <= 1:
                raise ValidationError("exponential base must exceed 1")
        elif self.kind in ("tsp_factorial", "factorial"):
            if self.parameter is not None:
                raise ValidationError(f"{self.kind} takes no parameter")
        else:
            raise ValidationError(f"unknown complexity kind {self.kind!r}")

    def operations(self, n: Count):
        """Count at size n: an int, a float for a fractional parameter, or a `Magnitude`.

        A float power past the largest double is `math.inf`.  An int with
        more digits than `str()` prints (`sys.get_int_max_str_digits()`)
        is a `Magnitude`.
        """
        n = conform(Count, n, "problem size 'n'")
        k = self.parameter
        if k is not None and not float(k).is_integer():
            try:
                return float(n) ** k if self.kind == "poly" else k**n
            except OverflowError:  # a float power past the largest double
                return math.inf
        # the base-10 logarithm first, so a count too long to print is never built
        if self.kind == "poly":
            log10, exact = k * math.log10(n), lambda: n ** int(k)
        elif self.kind == "exp":
            log10, exact = n * math.log10(k), lambda: int(k) ** n
        elif self.kind == "tsp_factorial":
            # distinct closed tours over n cities: fix the start, halve direction
            log10 = (math.lgamma(n) - math.log(2)) / math.log(10)
            exact = lambda: math.factorial(n - 1) // 2 if n > 2 else 1
        else:
            log10, exact = math.lgamma(n + 1) / math.log(10), lambda: math.factorial(n)
        # 0 means no limit, as before Python 3.10.7 added one
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and log10 > limit + 1:  # surely too long; +1 clears rounding
            return Magnitude(log10)
        count = exact()
        if limit and count >= 10**limit:
            return Magnitude(math.log10(count))
        return count


@dataclass(frozen=True)
class Magnitude:
    """An operation count too long to print in full, kept as its base-10 logarithm."""

    log10: float

    def __str__(self) -> str:
        return f"~{10 ** (self.log10 % 1):.3g}e+{int(self.log10)}"


def runtime_projection(c: ComplexityClass, n: int, ops_per_second: float) -> float:
    return seconds_at(c.operations(n), ops_per_second)


def seconds_at(count, ops_per_second: Positive) -> float:
    """Seconds for an `operations` count at a rate; inf past the largest double."""
    ops_per_second = conform(Positive, ops_per_second, "instruction rate 'ops_per_second'")
    if isinstance(count, Magnitude):
        return math.inf  # at least 640 digits (the least print limit) over a double
    try:
        return count / ops_per_second
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ComparisonReport:
    budget: int
    confidence: float
    entries: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "confidence": self.confidence,
            "entries": [dict(e) for e in self.entries],
        }


def _pn_steps(e: EnsembleStats) -> list:
    steps = success_steps(e)
    if not steps or steps[-1][0] != e.budget:
        steps.append((e.budget, steps[-1][1] if steps else 0.0))
    return steps


def nfl_comparison(
    ensembles: dict, baseline: EnsembleStats, z: float = DEFAULT_CONFIDENCE
) -> ComparisonReport:
    """Side-by-side presentation of algorithm ensembles vs random search.

    Pure presentation: success curves, efforts where defined, and
    best-cost distributions.  Budgets must agree or the comparison is
    meaningless and refused.
    """
    all_entries = dict(ensembles)
    all_entries["random_baseline"] = baseline
    budgets = {e.budget for e in all_entries.values()}
    if len(budgets) > 1:
        raise ValidationError(f"ensembles use different budgets: {sorted(budgets)}")
    entries = []
    for name, ens in all_entries.items():
        try:
            n_star, i_min = computational_effort(ens, z)
            effort = {"n_star": n_star, "i_min": i_min}
        except EffortUndefinedError:
            effort = None
        entries.append(
            {
                "name": name,
                "algorithm": ens.algorithm,
                "runs": len(ens.records),
                "success_curve": [[int(n), p] for n, p in _pn_steps(ens)],
                "effort": effort,
                **ens.best_summary(),
            }
        )
    return ComparisonReport(budget=baseline.budget, confidence=z, entries=tuple(entries))
