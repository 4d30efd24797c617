"""Symmetric traveling-salesman instances over permutation encodings.

A tour is a permutation of range(n) read cyclically.  The neighborhood
is 2-opt: reverse the closed slice i..j of the permutation.  Reversals
spanning the whole tour or all but one city reproduce the same cyclic
tour, so they are excluded from neighborhood enumeration and sampling.

A sampled move is the pair (i, j) that `sample_move` draws; the base
`Problem.sample_neighbor` applies it.  Its cost is the tour's cost plus
the two edges the reversal makes minus the two it breaks, four reads of
the distance matrix instead of n; the tour itself is copied and
reversed only for a move a search keeps.  The edges are summed before
`f` is added, so a reversal that trades two edges for two of the same
lengths leaves `f` exactly as it was.  Otherwise the sum can differ from
a full recompute in the last bits, which `Run.evaluate_move` allows for.

`neighbors` costs every reversal the same way, as arrays: it gathers the
four edges of each reversal at tour positions fixed per instance and
builds no reversed tour, so a 200-city neighborhood of 19,897 moves
takes a few MB, not the 65 MB its rows once did.  Its window is
`MOVE_TOLERANCE` times the largest cost in it; a searcher builds a row
(`Neighborhood.row`) and reads its full cost only within a window of a
decision.  The two reversals (0, j) and (j + 1, n - 1) of one cycle sum
the same four edges and so cost the same, where their full sums can
differ in the last bit; a decision between them reads the full sums.

Atoms are undirected city adjacencies: the pair {a, b} has id
min(a, b) * n + max(a, b), so ids lie in 0..n*n - 1.  A reversal's
`broken` atoms are the two adjacencies it removes and its `made` atoms
the two it creates; short-term memories match on these ids.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

import numpy as np

from ..core import (
    MOVE_TOLERANCE,
    EncodingMismatchError,
    Neighborhood,
    Problem,
    ValidationError,
)


class TspInstance(Problem):
    kind = "tsp"

    def __init__(self, distances, coords=None, name: str = "tsp"):
        d = np.asarray(distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        if d.shape[0] < 1:
            raise ValidationError("instance needs at least one city")
        if not np.all(np.isfinite(d)):
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(f"distances must be finite; d[{i}, {j}] = {d[i, j]}")
        if not np.array_equal(d, d.T):
            gap = np.abs(d - d.T)
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise ValidationError(
                "distance matrix must be exactly symmetric; largest asymmetry "
                f"|d[{i}, {j}] - d[{j}, {i}]| = {gap[i, j]:.3g}"
            )
        if np.any(np.diag(d) != 0):
            raise ValidationError("distance matrix needs a zero diagonal")
        if np.any(d < 0):
            raise ValidationError("distances must be nonnegative")
        self.d = d
        self.n = d.shape[0]
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self.name = name
        self.atom_count = self.n * self.n
        # The reversal pairs i < j in row order.  Pairs (0, n-1), (0, n-2) and
        # (1, n-1) reverse the whole cycle or all but one city, which leaves
        # the cyclic tour unchanged, so they are left out.
        i, j = np.triu_indices(self.n, 1)
        trivial = ((i == 0) & (j >= self.n - 2)) | ((i == 1) & (j == self.n - 1))
        self._i, self._j = i[~trivial], j[~trivial]

    @classmethod
    def from_coords(cls, coords, name: str = "tsp") -> "TspInstance":
        """Plain Euclidean distances from planar points (no rounding)."""
        pts = np.asarray(coords, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError("coords must be an (n, 2) array")
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=-1))
        np.fill_diagonal(d, 0.0)
        return cls(d, coords=pts, name=name)

    def validate(self, solution) -> np.ndarray:
        tour = np.asarray(solution)
        if tour.ndim != 1 or tour.size != self.n:
            raise EncodingMismatchError(
                f"tour must be a permutation of {self.n} cities, got shape {tour.shape}"
            )
        if not np.issubdtype(tour.dtype, np.integer):
            raise EncodingMismatchError("tour entries must be integers")
        counts = np.bincount(tour.astype(np.intp), minlength=self.n)
        if counts.size != self.n or np.any(counts != 1):
            raise ValidationError("tour must visit every city exactly once")
        return tour.astype(np.intp)

    def cost(self, tour) -> float:
        if self.n == 1:
            return 0.0
        return float(np.add.reduce(self.d[tour[:-1], tour[1:]]) + self.d[tour[-1], tour[0]])

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each tour of an (M, n) block: path edges summed per row, then the closing edge.

        The rows are read C-ordered, so the gathered edges are too and
        each row sums pairwise, as `cost` sums one tour.
        """
        rows = np.ascontiguousarray(rows)
        d = self.d
        return (d[rows[:, :-1], rows[:, 1:]].sum(axis=1) + d[rows[:, -1], rows[:, 0]]).tolist()

    def random_solution(self, rng) -> np.ndarray:
        return rng.permutation(self.n)

    def _atom(self, a, b):
        return np.minimum(a, b) * self.n + np.maximum(a, b)

    @cached_property
    def _ends(self):
        """Tour positions per reversal (i, j), each an (M, 2) array: the edges
        it breaks run from (i-1, j) to (i, j+1), and those it makes from
        (i-1, i) to (j, j+1).  Built on the first `neighbors` call."""
        i, j = self._i, self._j
        after = (j + 1) % self.n
        pairs = ((i - 1, j), (i, after), (i - 1, i), (j, after))
        return tuple(np.stack(pair, axis=1) for pair in pairs)

    @cached_property
    def _atoms(self):
        """Atom id of every city pair, as an (n, n) table."""
        city = np.arange(self.n)
        return self._atom(city[:, None], city)

    def neighbors(self, solution) -> Neighborhood:
        """Every non-trivial reversal, in (i, j) row order, costed from the four edges it changes.

        `costs[k]` is `move_cost(tour, cost(tour), label(k))` bit for bit:
        the tour's cost plus the two edges the reversal makes, minus the
        two it breaks.  The reversed tours are not built.
        """
        tour = np.asarray(solution)
        i, j, d = self._i, self._j, self.d
        broken_from, broken_to, made_from, made_to = (tour[ends] for ends in self._ends)
        made, broken = d[made_from, made_to], d[broken_from, broken_to]
        f = self.cost(tour)
        costs = f + ((made[:, 0] + made[:, 1]) - (broken[:, 0] + broken[:, 1]))
        return Neighborhood(
            costs=costs.tolist(),
            broken=self._atoms[broken_from, broken_to],
            made=self._atoms[made_from, made_to],
            label=lambda k: (int(i[k]), int(j[k])),
            row=lambda k: self.apply(tour, (i[k], j[k])),
            window=MOVE_TOLERANCE * max(1.0, f, costs.max(initial=0.0)),
            cost=self.cost,
        )

    def sample_move(self, solution, rng):
        """A reversal (i, j), or None for 1-3 cities, where every reversal
        is the same cyclic tour and nothing is drawn."""
        if not self._i.size:
            return None
        k = int(rng.integers(self._i.size))
        return self._i.item(k), self._j.item(k)

    def move_cost(self, tour, f: float, move) -> float:
        """`f` plus the two edges reversal i..j makes, minus the two it breaks."""
        if move is None:
            return f
        i, j = move
        d = self.d
        a, b, c, e = tour.item(i - 1), tour.item(i), tour.item(j), tour.item((j + 1) % self.n)
        return f + ((d.item(a, c) + d.item(b, e)) - (d.item(a, b) + d.item(c, e)))

    def apply(self, tour, move) -> np.ndarray:
        """A new tour with slice i..j reversed, read from `tour` into one copy."""
        out = np.array(tour)
        if move is not None:
            i, j = move
            out[i : j + 1] = tour[j : i - 1 if i else None : -1]
        return out

    def solution_attributes(self, solution) -> np.ndarray:
        if self.n < 2:
            return np.empty(0, dtype=np.intp)
        tour = np.asarray(solution)
        return np.unique(self._atom(tour, np.roll(tour, -1)))


def brute_force_tour(inst: TspInstance, limit: int = 10):
    """Exhaustive optimum over (n-1)!/2 distinct tours; n <= limit.

    Ties resolve to the lexicographically first canonical tour, where
    canonical means city 0 first and the second city smaller than the
    last.
    """
    n = inst.n
    if n > limit:
        raise ValidationError(f"exhaustive search capped at {limit} cities, got {n}")
    if n == 1:
        return (0,), 0.0
    if n == 2:
        return (0, 1), inst.evaluate([0, 1])
    best_tour = None
    best_len = float("inf")
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # other orientation of the same cycle
        tour = (0,) + rest
        length = inst.cost(tour)  # a permutation built here, so it needs no validation
        if length < best_len:
            best_len = length
            best_tour = tour
    return best_tour, best_len


def two_route_instance() -> TspInstance:
    """Four cities with one short cycle (length 4) and two long ones (8).

    The cycle 0-1-2-3 uses unit edges only; both alternatives must use two
    of the length-3 diagonals.  Pheromone experiments compare trail mass
    on the short cycle's edges against a long cycle's.
    """
    d = np.array(
        [
            [0.0, 1.0, 3.0, 1.0],
            [1.0, 0.0, 1.0, 3.0],
            [3.0, 1.0, 0.0, 1.0],
            [1.0, 3.0, 1.0, 0.0],
        ]
    )
    return TspInstance(d, name="two-route")
