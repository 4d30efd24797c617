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

On whole-number loads `neighbors` costs each relocation and swap from
the current loads and the two loads the move changes, exactly as `cost`
costs the neighbour, and builds a neighbour only in `row(k)`.  Fraction
loads depend on the order they are summed in, so there each neighbour
is built as a row of an (M, n) block and costed through `cost_rows`.

A sampled move works on the bin ids as a Python list.  When the items
are not all in one bin it swaps with probability 1/2, two items drawn
by two scalar `rng.integers(n)` calls until they sit in different bins;
otherwise it relocates one item to another of its targets, the used
bins in order and then the first empty bin, the targets `neighbors`
relocates over too.  numpy draws each bounded value from the bit
generator's own buffered 32-bit stream, so the two scalar draws give
the values and leave the state of one `integers(0, n, size=2)` draw,
and cost less than it.  Annealing and first-accept hill climbing pass a
`core.ScalarDraws` as `rng`, which decodes these draws from PCG64's raw
words by numpy's definitions and buffers the 32-bit halves the same
way, so the values and the state stay those of numpy's calls.

Atoms are (item, bin) pairs with id item * n + bin, so ids lie in
0..n*n - 1.  A relocation breaks (item, source) and makes (item,
target); a swap of items i and j breaks (i, bin_i) and (j, bin_j) and
makes (i, bin_j) and (j, bin_i).
"""

from __future__ import annotations

import numpy as np

from ..core import (
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
        self.name = name
        self.atom_count = self.n * self.n
        self._i, self._j = np.triu_indices(self.n, 1)  # swap pairs i < j in row order

    def validate(self, solution) -> np.ndarray:
        a = np.asarray(solution)
        if a.ndim != 1 or a.size != self.n:
            raise EncodingMismatchError(
                f"assignment must map {self.n} items to bins, got shape {a.shape}"
            )
        if not np.issubdtype(a.dtype, np.integer):
            raise EncodingMismatchError("bin ids must be integers")
        if np.any(a < 0) or np.any(a >= self.n):
            raise ValidationError(f"bin ids must lie in 0..{self.n - 1}")
        return a.astype(np.intp)

    def cost(self, assignment) -> float:
        """Open-bin count plus penalty times total overflow, in capacities."""
        loads = np.bincount(assignment, weights=self._load_sizes, minlength=self.n)
        open_bins = int(np.count_nonzero(loads > 0))
        overflow = float(np.add.reduce(np.maximum(loads - self.cap, 0.0)))
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

    def _targets(self, bins: list[int]) -> list[int]:
        """The used bins in order, then the first empty one (one fresh bin is always enough)."""
        used = set(bins)
        targets = sorted(used)
        if len(targets) < self.n:
            targets.append(next(b for b in range(self.n) if b not in used))
        return targets

    def neighbors(self, solution) -> Neighborhood:
        """Relocations item by item over `_targets`, then swaps i < j.

        Whole-number loads cost each move from the two loads it changes;
        fraction loads cost a row block through `cost_rows`.
        """
        a = np.asarray(solution)
        n = self.n
        targets = np.array(self._targets(a.tolist()))
        item, dst = np.repeat(np.arange(n), targets.size), np.tile(targets, n)
        moved = dst != a[item]
        item, dst = item[moved], dst[moved]
        swapped = a[self._i] != a[self._j]
        i, j = self._i[swapped], self._j[swapped]
        relocations, m = item.size, item.size + i.size
        if self.whole:
            costs = self._two_load_costs(a, item, dst, i, j)

            def row(k):
                r = a.copy()
                if k < relocations:
                    r[item[k]] = dst[k]
                else:
                    s, t = i[k - relocations], j[k - relocations]
                    r[s], r[t] = a[t], a[s]
                return r
        else:
            rows = np.tile(a, (m, 1))
            rows[np.arange(relocations), item] = dst
            swaps = np.arange(relocations, m)
            rows[swaps, i] = a[j]
            rows[swaps, j] = a[i]
            costs = self.cost_rows(rows)

            def row(k):
                return rows[k].copy()

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
        )

    def _two_load_costs(self, a, item, dst, i, j) -> list[float]:
        """`cost` of each relocation (item to dst) and swap (i with j) of `a`.

        A move takes its bins b, c from loads[b], loads[c] to two new
        loads; the open-bin count and overflow change by those two bins
        alone.  On whole-number loads every term is an integer a float
        holds exactly, and the old overflows come off before the new ones
        go on, so no partial sum passes the total size: each cost equals
        `cost` of the moved row bit for bit.
        """
        sizes, cap = self._load_sizes, self.cap
        loads = np.bincount(a, weights=sizes, minlength=self.n)
        over = np.maximum(loads - cap, 0.0)
        shift = np.concatenate((sizes[item], sizes[i] - sizes[j]))
        b = np.concatenate((a[item], a[i]))
        c = np.concatenate((dst, a[j]))
        new_b, new_c = loads[b] - shift, loads[c] + shift
        open_bins = (
            np.count_nonzero(loads > 0) - (loads[b] > 0) - (loads[c] > 0)
            + (new_b > 0) + (new_c > 0)
        )
        overflow = (
            float(np.add.reduce(over)) - over[b] - over[c]
            + np.maximum(new_b - cap, 0.0) + np.maximum(new_c - cap, 0.0)
        )
        return self._costs(open_bins, overflow)

    def sample_move(self, solution, rng):
        n = self.n
        if n == 1:
            raise NoNeighborError("a single item has no other bin to move to")
        a = np.asarray(solution)
        bins = a.tolist()
        nxt = a.copy()
        if bins.count(bins[0]) < n and rng.random() < 0.5:
            while True:  # the values and state of `integers(0, n, size=2)`, drawn cheaper
                i, j = int(rng.integers(n)), int(rng.integers(n))
                if bins[i] != bins[j]:
                    break
            nxt[i], nxt[j] = bins[j], bins[i]
            return nxt
        item = int(rng.integers(n))
        targets = self._targets(bins)
        targets.remove(bins[item])
        nxt[item] = targets[int(rng.integers(len(targets)))]
        return nxt

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
