"""One-dimensional bin packing, its loads kept exact where they can be.

`sizes` holds each item's size relative to the capacity, so every bin
holds 1.0; first fit and the exact search read it.  A solution assigns
each item a bin id in 0..n-1 (n bins always suffice).  Overfull bins
are legal during search; the cost adds a penalty per capacity of
overflow large enough that any overfull packing costs more than any
feasible one, which keeps local moves on a connected landscape.

The cost is `open_bins + penalty * (overflow / cap)`, where `overflow`
sums `max(load - cap, 0)` over the bins.  When every size and the
capacity are whole numbers and the sizes total at most 2**53, `whole`
is set and loads are kept in capacity units, with `cap` the capacity:
every load and overflow is then an integer a float holds exactly,
whatever order its items are added in (Martello & Toth 1990 count loads
so).  Otherwise loads are fractions of the capacity, summed in item
order, and `cap` is 1.0.

An overflow below `FIT_SLACK * n * cap` counts as none, so decimal size
literals that sum to the capacity exactly in base ten still fit; first
fit and the exact search allow the same 1e-9 relative slack per bin.

`neighbors` costs each relocation and swap, and `move_cost` each
sampled move, from the loads and the two loads the move changes,
building a neighbour only in `row(k)` and `apply`.  Whole-number loads
are exact integers, so such a cost is `cost` bit for bit, with a zero
window.  Fraction loads round with their summing order, so there a move
cost lies within a window of `cost`, `MOVE_TOLERANCE` times the largest
cost as for tours, and decisions read full costs within it.  An
overflow near the slack may read below it carried and above it afresh,
a cost jump of `penalty * slack / cap`: a fractional neighbourhood's
window adds it, and `move_cost` sums afresh an overflow within half the
slack of the slack.

A sampled move is a tuple (item, other, source, target, shift): `item`
leaves bin `source` for `target`, `other` (None for a relocation) goes
the other way, and `shift` is the load that passes from source to
target.  When more than one bin is in use it swaps with probability
1/2, two items drawn by two scalar `rng.integers(n)` calls until they
sit in different bins; otherwise it relocates one item to another of
its targets, the used bins in order and then the first empty bin, the
targets `neighbors` relocates over too.  numpy draws each bounded value
from the bit generator's own buffered 32-bit stream, so the two scalar
draws give the values and leave the state of one `integers(0, n,
size=2)` draw, and cost less than it.  Annealing and first-accept hill
climbing pass a `core.ScalarDraws` as `rng`, which decodes these draws
from PCG64's raw words by numpy's definitions and buffers the 32-bit
halves the same way, so the values and the state stay those of numpy's
calls.

A sampled search carries `chain`'s state: the bin ids as an `array` of
numpy's `intp` (as a tour's state), the loads and per-bin item counts
as lists, the open-bin count and the overflow.  The exact counts decide
which bins are open, and an emptied bin's load is set to 0.0 where a
carried fraction could read 1e-17.  `sample_move` reads each bin id as a
Python int; `apply` builds the packing a move leads to as one fresh
`intp` array; `advance` copies the ids, writes the move in and carries
the rest by the two bins it changes, building no numpy array.

Atoms are (item, bin) pairs with id item * n + bin, so ids lie in
0..n*n - 1.  A relocation breaks (item, source) and makes (item,
target); a swap of items i and j breaks (i, bin_i) and (j, bin_j) and
makes (i, bin_j) and (j, bin_i).
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import compress

import numpy as np

from ..core import (
    INTP,
    MOVE_TOLERANCE,
    EncodingMismatchError,
    Neighborhood,
    NoNeighborError,
    Positive,
    Problem,
    ValidationError,
    conform,
)

FIT_SLACK = 1e-9
PACKING_LIMIT = 12  # the most items `brute_force_packing` takes
ROW_CHUNK = 2**16  # block entries `cost_rows` sums per `bincount`
EXACT_TOTAL = 2**53  # up to this total, every sum of whole sizes is exact in a float


class BinPackingInstance(Problem):
    kind = "binpacking"

    def __init__(self, sizes, capacity: Positive = 1.0, penalty: Positive | None = None,
                 name: str = "binpacking"):
        capacity = conform(Positive, capacity, "'capacity'")
        raw = np.asarray(sizes, dtype=float)
        if raw.ndim != 1 or raw.size == 0:
            raise ValidationError("sizes must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(raw)):
            raise ValidationError("item sizes must be finite")
        if np.any(raw <= 0):
            raise ValidationError("item sizes must be positive")
        self.sizes = raw / capacity
        if np.any(self.sizes > 1.0 + FIT_SLACK):
            raise ValidationError("an item larger than the capacity can never be packed")
        self.n = raw.size
        whole = float(capacity).is_integer() and np.array_equal(raw, np.floor(raw))
        self.whole = whole and sum(map(int, raw.tolist())) <= EXACT_TOTAL
        self.cap = float(capacity) if self.whole else 1.0
        self._load_sizes = raw if self.whole else self.sizes
        self._slack = FIT_SLACK * self.n * self.cap
        penalty = conform(Positive | None, penalty, "'penalty'")
        self.penalty = 10.0 * self.n if penalty is None else float(penalty)
        # fraction loads round (see the module docstring); whole ones are exact
        self._tolerance = 0.0 if self.whole else MOVE_TOLERANCE
        self._straddle = 0.0 if self.whole else self.penalty * self._slack  # cap is 1.0
        self._near = 0.0 if self.whole else self._slack / 2
        self.name = name
        self.atom_count = self.n * self.n
        self._sizes = self._load_sizes.tolist()  # the sizes a move shifts, as Python floats

    @cached_property
    def _pairs(self):
        """The swap pairs i < j in row order, built on the first `neighbors` call."""
        return np.triu_indices(self.n, 1)

    def validate(self, solution) -> np.ndarray:
        a = np.asarray(solution)
        if a.ndim != 1 or a.size != self.n:
            raise EncodingMismatchError(
                f"assignment must map {self.n} items to bins, got shape {a.shape}"
            )
        if a.dtype.kind not in "iu":
            raise EncodingMismatchError("bin ids must be integers")
        if np.minimum.reduce(a) < 0 or np.maximum.reduce(a) >= self.n:
            raise ValidationError(f"bin ids must lie in 0..{self.n - 1}")
        return a.astype(np.intp)

    def cost(self, assignment) -> float:
        """Open-bin count plus penalty times total overflow, in capacities."""
        loads, overflow = self._summed(assignment)
        return self._cost(int(np.count_nonzero(loads)), overflow)  # no load is below 0

    def _summed(self, assignment):
        """(loads, overflow) of an assignment, summed afresh."""
        loads = np.bincount(assignment, weights=self._load_sizes, minlength=self.n)
        return loads, float(np.add.reduce(np.maximum(loads - self.cap, 0.0)))

    def _cost(self, open_bins, overflow) -> float:
        """`cost` from an open-bin count and an overflow in load units."""
        if overflow < self._slack:
            overflow = 0.0
        return open_bins + self.penalty * (overflow / self.cap)

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each assignment of an (M, n) block.

        One `bincount` per chunk of rows, flattened row by row, sums each
        row's loads in item order, as `bincount` sums one assignment's;
        chunks of `ROW_CHUNK` entries keep the sums' own arrays small.
        """
        rows = np.asarray(rows)
        m, n = rows.shape[0], self.n
        step = max(1, min(m, ROW_CHUNK // n))
        offsets, weights = np.arange(0, step * n, n)[:, None], np.tile(self._load_sizes, step)
        open_bins, overflow = np.empty(m, dtype=np.intp), np.empty(m)
        for start in range(0, m, step):
            chunk = rows[start : start + step]
            k = chunk.shape[0]
            bins = (chunk + offsets[:k]).ravel()
            loads = np.bincount(bins, weights=weights[: k * n], minlength=k * n).reshape(k, n)
            open_bins[start : start + k] = np.count_nonzero(loads > 0, axis=1)
            overflow[start : start + k] = np.maximum(loads - self.cap, 0.0).sum(axis=1)
        return self._costs(open_bins, overflow)

    def _costs(self, open_bins, overflow) -> list[float]:
        """`cost`'s last steps, on arrays of open-bin counts and overflows."""
        overflow[overflow < self._slack] = 0.0
        return (open_bins + self.penalty * (overflow / self.cap)).tolist()

    def loads(self, assignment) -> np.ndarray:
        a = self.validate(assignment)
        return np.bincount(a, weights=self.sizes, minlength=self.n)

    def random_solution(self, rng) -> np.ndarray:
        return rng.integers(0, self.n, size=self.n)

    def _targets(self, counts: list[int]) -> list[int]:
        """The used bins in order, then the first empty one (one fresh bin is always enough)."""
        targets = list(compress(range(self.n), counts))  # a C-level scan of the counts
        if len(targets) < self.n:
            targets.append(counts.index(0))
        return targets

    def neighbors(self, solution) -> Neighborhood:
        """Relocations item by item over `_targets`, then swaps i < j, each
        costed from the two loads it changes."""
        a = np.asarray(solution)
        n = self.n
        loads, overflow = self._summed(a)
        counts = np.bincount(a, minlength=n)
        open_bins = int(np.count_nonzero(counts))
        targets = np.array(self._targets(counts.tolist()))
        item, dst = np.repeat(np.arange(n), targets.size), np.tile(targets, n)
        moved = dst != a[item]
        item, dst = item[moved], dst[moved]
        pair_i, pair_j = self._pairs
        swapped = a[pair_i] != a[pair_j]
        i, j = pair_i[swapped], pair_j[swapped]
        relocations = item.size
        costs = self._two_load_costs(a, loads, counts, open_bins, overflow, item, dst, i, j)
        window = self._tolerance and (
            self._tolerance * max(1.0, self._cost(open_bins, overflow), *costs) + self._straddle)

        def row(k):
            r = a.copy()
            if k < relocations:
                r[item[k]] = dst[k]
            else:
                s, t = i[k - relocations], j[k - relocations]
                r[s], r[t] = a[t], a[s]
            return r

        none = np.full(relocations, -1)

        def label(k):
            if k < relocations:
                return ("relocate", int(item[k]), int(a[item[k]]), int(dst[k]))
            return ("swap", int(i[k - relocations]), int(j[k - relocations]))

        return Neighborhood(
            costs=costs,
            broken=np.concatenate((
                np.stack((item * n + a[item], none), axis=1),
                np.stack((i * n + a[i], j * n + a[j]), axis=1),
            )),
            made=np.concatenate((
                np.stack((item * n + dst, none), axis=1),
                np.stack((i * n + a[j], j * n + a[i]), axis=1),
            )),
            label=label,
            row=row,
            window=window,
            cost=self.cost,
        )

    def _two_load_costs(self, a, loads, counts, open_bins, overflow, item, dst, i, j):
        """`cost` of each relocation (item to dst) and swap (i with j) of `a`,
        whose loads, per-bin item counts, open-bin count and overflow are given.

        The overflow changes by the move's two bins alone, and the open-bin
        count by a relocation's emptied source and opened target.  On
        whole-number loads every term is an exact integer, and the old
        overflows come off before the new ones go on, so no partial sum
        passes the total size: each cost is `cost` of the row bit for bit.
        `_moved` does the same sums for one sampled move.
        """
        sizes, cap = self._load_sizes, self.cap
        shift = np.concatenate((sizes[item], sizes[i] - sizes[j]))
        b = np.concatenate((a[item], a[i]))
        c = np.concatenate((dst, a[j]))
        over = np.maximum(loads - cap, 0.0)
        new_b, new_c = loads[b] - shift, loads[c] + shift
        open_bins = np.concatenate((
            open_bins + (counts[dst] == 0) - (counts[a[item]] == 1),
            np.full(i.size, open_bins),
        ))
        overflow = (
            overflow - over[b] - over[c]
            + np.maximum(new_b - cap, 0.0) + np.maximum(new_c - cap, 0.0)
        )
        return self._costs(open_bins, overflow)

    def chain(self, solution):
        """(bin ids as an `intp` `array`, loads and per-bin item counts as lists,
        open-bin count, overflow) of `solution`."""
        a = np.asarray(solution, dtype=np.intp)
        loads, overflow = self._summed(a)
        counts = np.bincount(a, minlength=self.n).tolist()
        return array(INTP, a.tobytes()), loads.tolist(), counts, self.n - counts.count(0), overflow

    def _moved(self, state, move) -> tuple[int, float]:
        """Open-bin count and overflow after `move`: `_two_load_costs`' sums for one move."""
        _, loads, counts, open_bins, overflow = state
        _, other, b, c, shift = move
        cap = self.cap
        old_b, old_c = loads[b], loads[c]
        new_b, new_c = old_b - shift, old_c + shift
        if other is None:
            open_bins += (counts[c] == 0) - (counts[b] == 1)
        overflow = (
            overflow - (old_b - cap if old_b > cap else 0.0)
            - (old_c - cap if old_c > cap else 0.0)
            + (new_b - cap if new_b > cap else 0.0) + (new_c - cap if new_c > cap else 0.0)
        )
        return open_bins, overflow

    def sample_move(self, state, rng):
        """A swap of two items in different bins, or a relocation of one item:
        (item, other, source, target, shift), as the module docstring reads it."""
        n = self.n
        if n == 1:
            raise NoNeighborError("a single item has no other bin to move to")
        a, _, counts, open_bins, _ = state
        sizes = self._sizes
        if open_bins > 1 and rng.random() < 0.5:
            while True:  # the values and state of `integers(0, n, size=2)`, drawn cheaper
                i, j = int(rng.integers(n)), int(rng.integers(n))
                b, c = a[i], a[j]
                if b != c:
                    return i, j, b, c, sizes[i] - sizes[j]
        item = int(rng.integers(n))
        b = a[item]
        targets = self._targets(counts)
        targets.remove(b)
        return item, None, b, targets[int(rng.integers(len(targets)))], sizes[item]

    def move_cost(self, state, f: float, move) -> float:
        """`cost(apply(state, move))` from the two loads the move changes; an
        overflow carried within `_near` of the slack is summed afresh."""
        open_bins, overflow = self._moved(state, move)
        if -self._near < overflow - self._slack < self._near:
            return self.cost(self.apply(state, move))
        return self._cost(open_bins, overflow)

    def apply(self, state, move) -> np.ndarray:
        """The packing `move` leads to, as one fresh `intp` array."""
        item, other, b, c, _ = move
        out = np.array(state[0])
        out[item] = c
        if other is not None:
            out[other] = b
        return out

    def advance(self, state, move):
        """`chain(apply(state, move))`, up to a fraction load's rounding, carried
        by the two bins the move changes."""
        item, other, b, c, shift = move
        ids, loads, counts = state[0][:], state[1].copy(), state[2]
        ids[item] = c
        if other is None:
            counts = counts.copy()
            counts[b] -= 1
            counts[c] += 1
        else:
            ids[other] = b
        loads[b] = loads[b] - shift if counts[b] else 0.0
        loads[c] += shift
        return (ids, loads, counts, *self._moved(state, move))

    def solution_attributes(self, solution) -> np.ndarray:
        return np.arange(self.n) * self.n + np.asarray(solution)


def first_fit_decreasing(inst: BinPackingInstance) -> np.ndarray:
    """Classic FFD: items by falling size into the first bin that fits."""
    order = sorted(range(inst.n), key=lambda i: (-inst.sizes[i], i))
    loads: list[float] = []
    assignment = np.zeros(inst.n, dtype=np.intp)
    for item in order:
        size = inst.sizes[item]
        for b, load in enumerate(loads):
            if load + size <= 1.0 + FIT_SLACK:
                loads[b] += size
                assignment[item] = b
                break
        else:
            loads.append(size)
            assignment[item] = len(loads) - 1
    return assignment


def brute_force_packing(inst: BinPackingInstance):
    """Exact minimum bin count by branch and bound; n <= `PACKING_LIMIT` items.

    Items are placed largest first into each open bin that fits or one
    fresh bin, pruning branches that cannot beat the incumbent.
    """
    if inst.n > PACKING_LIMIT:
        raise ValidationError(f"exact search capped at {PACKING_LIMIT} items, got {inst.n}")
    order = sorted(range(inst.n), key=lambda i: (-inst.sizes[i], i))
    best_assign = first_fit_decreasing(inst)
    best_count = int(best_assign.max()) + 1  # FFD opens bins 0..k-1, none left empty
    lower = int(np.ceil(inst.sizes.sum() - FIT_SLACK))
    assign = np.zeros(inst.n, dtype=np.intp)
    loads: list[float] = []

    def place(pos: int):
        nonlocal best_count, best_assign
        if best_count == lower or len(loads) >= best_count:
            return
        if pos == len(order):
            best_count = len(loads)
            best_assign = assign.copy()
            return
        item = order[pos]
        size = inst.sizes[item]
        seen = set()  # bins with equal load are interchangeable
        for b in range(len(loads)):
            key = round(loads[b], 12)
            if key in seen or loads[b] + size > 1.0 + FIT_SLACK:
                continue
            seen.add(key)
            loads[b] += size
            assign[item] = b
            place(pos + 1)
            loads[b] -= size
        if len(loads) + 1 < best_count:
            loads.append(size)
            assign[item] = len(loads) - 1
            place(pos + 1)
            loads.pop()

    place(0)
    return int(best_count), best_assign
