"""One-dimensional bin packing with capacity-normalized item sizes.

Sizes are stored relative to capacity, so every bin holds 1.0 exactly.
A solution assigns each item a bin id in 0..n-1 (n bins always suffice).
Overfull bins are legal during search; the cost adds a penalty per unit
of overflow large enough that any overfull packing costs more than any
feasible one, which keeps local moves on a connected landscape.

Fit checks use a 1e-9 relative slack so decimal size literals that sum
to the capacity exactly in base ten still count as fitting.

A sampled move works on the bin ids as a Python list.  When the items
are not all in one bin it swaps with probability 1/2, two items drawn
by two scalar `rng.integers(n)` calls until they sit in different bins;
otherwise it relocates one item to another of its targets, the used
bins in order and then the first empty bin, the targets `neighbors`
relocates over too.  numpy draws each bounded value from the bit
generator's own buffered 32-bit stream, so the two scalar draws give
the values and leave the state of one `integers(0, n, size=2)` draw,
and cost less than it.

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
        """Open-bin count plus penalty times total overflow."""
        loads = np.bincount(assignment, weights=self.sizes, minlength=self.n)
        open_bins = int(np.count_nonzero(loads > 0))
        overflow = float(np.add.reduce(np.maximum(loads - 1.0, 0.0)))
        if overflow < FIT_SLACK * self.n:
            overflow = 0.0
        return open_bins + self.penalty * overflow

    def cost_rows(self, rows) -> list[float]:
        """`cost` of each assignment of an (M, n) block.

        Each row's loads are summed in item order, as `bincount` sums one
        assignment's.
        """
        rows = np.asarray(rows)
        m, n = rows.shape[0], self.n
        loads = np.zeros((m, n))
        flat, offsets = loads.reshape(-1), np.arange(m) * n
        for column, size in enumerate(self.sizes):
            flat[offsets + rows[:, column]] += size
        open_bins = np.count_nonzero(loads > 0, axis=1)
        loads -= 1.0
        overflow = np.maximum(loads, 0.0, out=loads).sum(axis=1)
        overflow[overflow < FIT_SLACK * n] = 0.0
        return (open_bins + self.penalty * overflow).tolist()

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
        """Relocations item by item over `_targets`, then swaps i < j; costed by `cost_rows`."""
        a = np.asarray(solution)
        n = self.n
        targets = np.array(self._targets(a.tolist()))
        item, dst = np.repeat(np.arange(n), targets.size), np.tile(targets, n)
        moved = dst != a[item]
        item, dst = item[moved], dst[moved]
        swapped = a[self._i] != a[self._j]
        i, j = self._i[swapped], self._j[swapped]
        relocations, m = item.size, item.size + i.size
        rows = np.tile(a, (m, 1))
        rows[np.arange(relocations), item] = dst
        swaps = np.arange(relocations, m)
        rows[swaps, i] = a[j]
        rows[swaps, j] = a[i]
        none = np.full(relocations, -1)

        def label(k):
            if k < relocations:
                return ("relocate", int(item[k]), int(a[item[k]]), int(dst[k]))
            return ("swap", int(i[k - relocations]), int(j[k - relocations]))

        return Neighborhood(
            costs=self.cost_rows(rows),
            broken=np.concatenate((
                np.stack((item * n + a[item], none), axis=1),
                np.stack((i * n + a[i], j * n + a[j]), axis=1),
            )),
            made=np.concatenate((
                np.stack((item * n + dst, none), axis=1),
                np.stack((i * n + a[j], j * n + a[i]), axis=1),
            )),
            label=label,
            row=lambda k: rows[k].copy(),
        )

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


def brute_force_packing(inst: BinPackingInstance, limit: int = 12):
    """Exact minimum bin count by branch and bound; n <= limit items.

    Items are placed largest first into each open bin that fits or one
    fresh bin, pruning branches that cannot beat the incumbent.
    """
    if inst.n > limit:
        raise ValidationError(f"exact search capped at {limit} items, got {inst.n}")
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
