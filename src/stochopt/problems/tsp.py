"""Symmetric traveling-salesman instances over permutation encodings.

A tour is a permutation of range(n) read cyclically.  The neighborhood
is 2-opt: reverse the closed slice i..j of the permutation.  Reversals
spanning the whole tour or all but one city reproduce the same cyclic
tour, so they are excluded from neighborhood enumeration and sampling.

A sampled search carries the tour as its chain state: an `array` of city
ids whose items are numpy's `intp`, so `chain` and `np.asarray` convert
between it and the tour array as one memcpy.  A sampled move is the pair
(i, j) that `sample_move` draws, read as two Python ints through
memoryviews of the pair arrays.  A tour of 1-3 cities, which no reversal
changes, gets the empty reversal (0, 0) without a draw: the rules below
cost it at exactly `f` and build the same tour from it.  A move's cost
is the tour's cost plus the two edges the reversal makes minus the two
it breaks: four cities read from the state and four distances through
memoryviews of the matrix's rows, which copy nothing, one int index per
read, instead of n reads.  `advance` reverses the slice of a copied
state for every move a search keeps, and `apply` builds a tour array
only where one is read.  `sample_neighbor` applies a drawn reversal to
the tour array itself: the probe walk that calibrates annealing builds
no state, and its tours are costed as one block by `cost_rows`.  The
edges are summed before `f` is added, so a reversal that trades two
edges for two of the same lengths leaves `f` exactly as it was (the
empty reversal subtracts its two edges from themselves).  Otherwise the
sum can differ from a full recompute in the last bits, which
`Run.evaluate_move` allows for.

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

from array import array
from functools import cached_property
from itertools import permutations

import numpy as np

from ..core import (
    INTP,
    MOVE_TOLERANCE,
    EncodingMismatchError,
    Neighborhood,
    Problem,
    ValidationError,
    check_symmetric,
)

TOUR_LIMIT = 10  # the most cities `brute_force_tour` takes: 9! / 2 tours


class TspInstance(Problem):
    kind = "tsp"

    def __init__(self, distances, name: str = "tsp"):
        d = np.asarray(distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        if d.shape[0] < 1:
            raise ValidationError("instance needs at least one city")
        if not np.all(np.isfinite(d)):
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(f"distances must be finite; d[{i}, {j}] = {d[i, j]}")
        check_symmetric(d, "distance matrix", "d")
        if np.any(np.diag(d) != 0):
            raise ValidationError("distance matrix needs a zero diagonal")
        if np.any(d < 0):
            raise ValidationError("distances must be nonnegative")
        self.d = d
        self.n = d.shape[0]
        self.name = name
        self.atom_count = self.n * self.n
        # The reversal pairs i < j in row order.  Pairs (0, n-1), (0, n-2) and
        # (1, n-1) reverse the whole cycle or all but one city, which leaves
        # the cyclic tour unchanged, so they are left out.
        i, j = np.triu_indices(self.n, 1)
        trivial = ((i == 0) & (j >= self.n - 2)) | ((i == 1) & (j == self.n - 1))
        self._i, self._j = i[~trivial], j[~trivial]
        # Memoryviews, copying nothing: `_rows[a][c]` reads d[a, c] as a Python
        # float by one int index, faster than a 2-D view's [a, c] or `d.item`,
        # and `_pair_views` read a pair's ends as Python ints.
        self._rows = [memoryview(row) for row in d]
        self._pair_views = memoryview(self._i), memoryview(self._j)

    @classmethod
    def from_coords(cls, coords, name: str = "tsp") -> "TspInstance":
        """Plain Euclidean distances from planar points (no rounding)."""
        pts = np.asarray(coords, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError("coords must be an (n, 2) array")
        if not np.all(np.isfinite(pts)):
            i, j = np.argwhere(~np.isfinite(pts))[0]
            raise ValidationError(f"coords must be finite; coords[{i}, {j}] = {pts[i, j]}")
        with np.errstate(over="ignore"):  # a distance past the float range is refused as inf
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt((diff**2).sum(axis=-1))
        return cls(d, name=name)

    def validate(self, solution) -> np.ndarray:
        tour = np.asarray(solution)
        if tour.ndim != 1 or tour.size != self.n:
            raise EncodingMismatchError(
                f"tour must be a permutation of {self.n} cities, got shape {tour.shape}"
            )
        if tour.dtype.kind not in "iu":
            raise EncodingMismatchError("tour entries must be integers")
        ids = tour.astype(np.intp)
        # n ids in 0..n-1 visit every city once exactly when none is missed
        if (np.minimum.reduce(tour) < 0 or np.maximum.reduce(tour) >= self.n
                or np.count_nonzero(np.bincount(ids, minlength=self.n)) != self.n):
            raise ValidationError("tour must visit every city exactly once")
        return ids

    def cost(self, tour) -> float:
        return float(np.add.reduce(self.d[tour[:-1], tour[1:]]) + self.d[tour[-1], tour[0]])

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each tour of an (M, n) block: each row's path edges, then its closing edge.

        The rows are read C-ordered, so the gathered edges are too and
        each row sums pairwise, as `cost` sums one tour.
        """
        rows = np.ascontiguousarray(rows)
        d = self.d
        return (np.add.reduce(d[rows[:, :-1], rows[:, 1:]], axis=1)
                + d[rows[:, -1], rows[:, 0]]).tolist()

    def random_solution(self, rng) -> np.ndarray:
        return rng.permutation(self.n)

    def random_solutions(self, rng, k: int) -> np.ndarray:
        """A (k, n) block of tours, each row shuffled in place by `permuted`:
        the values of k `random_solution` calls, and `rng` left as they leave it."""
        return rng.permuted(np.tile(np.arange(self.n), (k, 1)), axis=1)

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
        """A reversal (i, j), or the empty reversal (0, 0) for 1-3 cities,
        where every reversal is the same cyclic tour and nothing is drawn."""
        i, j = self._pair_views
        if not i:
            return 0, 0
        k = rng.integers(len(i))
        return i[k], j[k]

    def sample_neighbor(self, solution, rng) -> np.ndarray:
        """`apply` of a drawn reversal, read from the tour array with no chain state built."""
        return self.apply(solution, self.sample_move(solution, rng))

    def chain(self, tour) -> array:
        """The tour as an `array` of `intp` city ids: one memcpy from the array and back."""
        return array(INTP, np.asarray(tour, dtype=np.intp).tobytes())

    def move_cost(self, tour, f: float, move) -> float:
        """`f` plus the two edges reversal i..j makes, minus the two it breaks."""
        i, j = move
        rows = self._rows
        a, b, c, e = tour[i - 1], tour[i], tour[j], tour[(j + 1) % self.n]
        return f + ((rows[a][c] + rows[b][e]) - (rows[a][b] + rows[c][e]))

    def apply(self, tour, move) -> np.ndarray:
        """A new tour array with slice i..j reversed, read from `tour` (a chain
        state or an array) into one copy."""
        i, j = move
        tour = np.asarray(tour)
        out = tour.copy()
        out[i : j + 1] = tour[j : i - 1 if i else None : -1]
        return out

    def advance(self, state, move) -> array:
        """The state after reversal `move`: a copy of `state` with slice i..j
        reversed; `state` is untouched."""
        i, j = move
        out = state[:]
        out[i : j + 1] = state[j : i - 1 if i else None : -1]
        return out

    def solution_attributes(self, solution) -> np.ndarray:
        if self.n < 2:
            return np.empty(0, dtype=np.intp)
        tour = np.asarray(solution)
        return np.unique(self._atom(tour, np.roll(tour, -1)))


def brute_force_tour(inst: TspInstance):
    """Exhaustive optimum over (n-1)!/2 distinct tours; n <= `TOUR_LIMIT`.

    Ties resolve to the lexicographically first canonical tour, where
    canonical means city 0 first and the second city smaller than the
    last.
    """
    n = inst.n
    if n > TOUR_LIMIT:
        raise ValidationError(f"exhaustive search capped at {TOUR_LIMIT} cities, got {n}")
    if n == 1:
        return (0,), 0.0
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
