"""Box-bounded continuous test landscapes.

Two objectives ship with the toolkit:

* ``abs_linear``: f(x) = |x[0] + 1|, minimum 0 at x[0] = -1.  The extra
  dimensions are ignored, which makes the optimum a known line and the
  landscape unimodal; default box [-5, 5] per dimension.
* ``multimodal_test``: the Rastrigin function,
  f(x) = 10 d + sum(x_i^2 - 10 cos(2 pi x_i)), minimum 0 at the origin,
  with a regular grid of local minima; default box [-5.12, 5.12].

Points outside the box are clamped to it before evaluation, so objective
values are always defined; a point with a NaN or infinite coordinate is
refused by `validate`.  Whether the clamp moved a point is worked out,
and logged, only when this module's logger is enabled for DEBUG.  The
clamp calls `clip`, the ufunc behind `np.clip`, without `np.clip`'s
Python-level argument handling: the same kernel gives the same bits,
signed zeros included, which an `np.maximum`/`np.minimum` pair does not
(on numpy 2.4 it breaks a tie of 0.0 and -0.0 differently from `np.clip`
on some shapes, such as a (20, 1) block against (1,) bounds).

Each objective is written once, over the last axis, so `cost` of one
point and `cost_rows` of a block evaluate the same expression.
Neighborhood moves perturb every coordinate by a uniform draw within a
radius that defaults to 5% of each dimension's width.
"""

from __future__ import annotations

import logging

import numpy as np

from ..core import Count, EncodingMismatchError, Problem, ValidationError, conform

try:
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip

log = logging.getLogger(__name__)

OBJECTIVES = ("abs_linear", "multimodal_test")

_DEFAULT_BOUNDS = {
    "abs_linear": (-5.0, 5.0),
    "multimodal_test": (-5.12, 5.12),
}


class ContinuousLandscape(Problem):
    kind = "continuous"

    def __init__(self, objective: str = "abs_linear", dim: Count = 1, bounds=None,
                 neighbor_radius=None, name: str | None = None):
        if objective not in OBJECTIVES:
            raise ValidationError(
                f"unknown objective {objective!r}, expected one of {OBJECTIVES}"
            )
        dim = conform(Count, dim, "continuous instance 'dim'")
        self.objective = objective
        self.dim = dim
        if bounds is None:
            bounds = _DEFAULT_BOUNDS[objective]
        try:
            lo, hi = bounds
        except (TypeError, ValueError):
            raise ValidationError(
                f"'bounds' must be a (lower, upper) pair, got {bounds!r}"
            ) from None
        self.lower = _finite_vector(lo, dim, "bounds")
        self.upper = _finite_vector(hi, dim, "bounds")
        if np.any(self.lower >= self.upper):
            raise ValidationError("each lower bound must be below its upper bound")
        width = self.upper - self.lower
        if neighbor_radius is None:
            self.neighbor_radius = 0.05 * width
        else:
            self.neighbor_radius = _finite_vector(neighbor_radius, dim, "neighbor_radius")
            if np.any(self.neighbor_radius <= 0):
                raise ValidationError("neighbor radius must be positive")
        self.name = name or objective

    def validate(self, solution) -> np.ndarray:
        x = np.asarray(solution, dtype=float)
        if x.ndim != 1 or x.size != self.dim:
            raise EncodingMismatchError(
                f"point must be a vector of length {self.dim}, got shape {x.shape}"
            )
        if np.count_nonzero(np.isfinite(x)) < x.size:
            i = int(np.argmin(np.isfinite(x)))
            raise ValidationError(f"point coordinates must be finite; x[{i}] = {x[i]}")
        return x

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """`x`, a point or a block of them, clipped to the box."""
        return clip(x, self.lower, self.upper)

    def _objective(self, x: np.ndarray):
        """The objective of a point, or of each row of a block: clamped, then evaluated.

        Whether the clamp moved anything is computed only for the DEBUG log.
        """
        clamped = self.clamp(x)
        if log.isEnabledFor(logging.DEBUG) and np.count_nonzero(clamped != x):
            log.debug("point outside bounds clamped before evaluation")
        x = clamped
        if self.objective == "abs_linear":
            return np.abs(x[..., 0] + 1.0)
        # multimodal_test
        return 10.0 * x.shape[-1] + np.add.reduce(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)

    def cost(self, x) -> float:
        return float(self._objective(x))

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each point of an (M, dim) block: the same clamp and expression, row by row.

        The block is copied C-ordered first if it is not, so each row
        sums pairwise, as `cost` sums one point.
        """
        return self._objective(np.ascontiguousarray(rows, dtype=float)).tolist()

    def random_solution(self, rng) -> np.ndarray:
        return self.lower + rng.random(self.dim) * (self.upper - self.lower)

    def sample_move(self, solution, rng):
        step = rng.uniform(-self.neighbor_radius, self.neighbor_radius)
        return self.clamp(solution + step)


def _finite_vector(value, dim: int, what: str) -> np.ndarray:
    """One finite float per dimension from a number or a length-dim sequence."""
    try:
        v = np.broadcast_to(np.asarray(value, dtype=float), (dim,)).copy()
    except (TypeError, ValueError):
        raise ValidationError(
            f"{what!r} must be one number or one per dimension ({dim}), got {value!r}"
        ) from None
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what!r} must be finite, got {value!r}")
    return v
