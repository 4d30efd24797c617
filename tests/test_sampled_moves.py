"""Sampled moves against the array-based forms they replaced.

Packings draw their moves on a Python list of bin ids, with the swap
pair drawn as two scalar `integers(n)` calls, and a tour reversal is
written into one copy straight from the source.  The references below
are the earlier ndarray forms, kept here verbatim: each rewritten method
must give the same neighbour, leave the generator in the same state and
cost bit for bit the same, so every record stays byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import BinPackingInstance, TspInstance, seeded_rng
from stochopt.core import NoNeighborError
from stochopt.problems.binpacking import FIT_SLACK


def _reference_targets(self, a):
    counts = np.bincount(a, minlength=self.n)
    targets = np.flatnonzero(counts).tolist()
    if len(targets) < self.n:
        targets.append(int(np.argmin(counts)))
    return targets


def _reference_sample_move(self, solution, rng):
    if self.n == 1:
        raise NoNeighborError("a single item has no other bin to move to")
    a = np.asarray(solution)
    swappable = bool(np.any(a != a[0]))
    use_swap = swappable and rng.random() < 0.5
    if use_swap:
        while True:
            i, j = rng.integers(0, self.n, size=2)
            if a[i] != a[j]:
                break
        i, j = (int(i), int(j)) if i < j else (int(j), int(i))
        nxt = a.copy()
        nxt[i], nxt[j] = a[j], a[i]
        return nxt
    item = int(rng.integers(self.n))
    src = int(a[item])
    targets = [b for b in _reference_targets(self, a) if b != src]
    dst = targets[int(rng.integers(len(targets)))]
    nxt = a.copy()
    nxt[item] = dst
    return nxt


def _reference_packing_cost(self, assignment):
    loads = np.bincount(assignment, weights=self.sizes, minlength=self.n)
    open_bins = int(np.count_nonzero(loads > 0))
    overflow = float(np.maximum(loads - 1.0, 0.0).sum())
    if overflow < FIT_SLACK * self.n:
        overflow = 0.0
    return open_bins + self.penalty * overflow


def _reference_apply(tour, move):
    out = np.array(tour)
    if move is not None:
        i, j = move
        out[i : j + 1] = out[i : j + 1][::-1]
    return out


def _reference_tour_cost(self, tour):
    if self.n == 1:
        return 0.0
    return float(self.d[tour[:-1], tour[1:]].sum() + self.d[tour[-1], tour[0]])


class _ReferenceTargets(BinPackingInstance):
    _targets = _reference_targets


def _packing(n, seed, layout, decimal):
    rng = seeded_rng(seed)
    sizes = rng.integers(1, 10, size=n) / 10 if decimal else rng.uniform(0.05, 1.0, size=n)
    problem = BinPackingInstance(sizes)
    if layout == "one_bin":
        a = np.full(n, int(rng.integers(n)))
    elif layout == "distinct":
        a = rng.permutation(n)
    else:
        a = problem.random_solution(rng)
    return problem, a


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    steps=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_a_size_two_draw_equals_two_scalar_draws(n, seed, steps):
    """numpy's bounded draws take each value from the bit generator's own
    buffered 32-bit stream, so splitting a pair changes neither the values
    nor the state left behind, also between `random()` calls."""
    pairs, scalars = seeded_rng(seed), seeded_rng(seed)
    for pair in steps:
        if pair:
            assert pairs.integers(0, n, size=2).tolist() == [
                int(scalars.integers(n)), int(scalars.integers(n))
            ]
        else:
            assert pairs.random() == scalars.random()
    assert pairs.bit_generator.state == scalars.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["random", "one_bin", "distinct"]),
    decimal=st.booleans(),
    as_list=st.booleans(),
)
def test_packing_moves_match_the_reference(n, seed, draws, layout, decimal, as_list):
    problem, a = _packing(n, seed, layout, decimal)
    new, old = seeded_rng(draws), seeded_rng(draws)
    if n == 1:
        with pytest.raises(NoNeighborError):
            problem.sample_move(a, new)
        return
    current = a
    for _ in range(20):  # a chain, so each step starts from a drawn neighbour
        solution = current.tolist() if as_list else current
        kept = np.array(current)
        nxt = problem.sample_move(solution, new)
        expected = _reference_sample_move(problem, solution, old)
        assert type(nxt) is np.ndarray and nxt.dtype == expected.dtype
        assert nxt.tolist() == expected.tolist()
        assert new.bit_generator.state == old.bit_generator.state
        assert np.array_equal(np.asarray(solution), kept)  # the input is untouched
        assert not np.shares_memory(nxt, current)
        assert problem.cost(nxt).hex() == _reference_packing_cost(problem, nxt).hex()
        current = nxt


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["random", "one_bin", "distinct"]),
    decimal=st.booleans(),
)
def test_packing_targets_and_neighbors_match_the_reference(n, seed, layout, decimal):
    problem, a = _packing(n, seed, layout, decimal)
    assert problem._targets(a.tolist()) == _reference_targets(problem, a)
    reference = _ReferenceTargets(problem.sizes)
    hood, expected = problem.neighbors(a), reference.neighbors(a)
    assert [hood.row(k).tolist() for k in range(len(hood))] == [
        expected.row(k).tolist() for k in range(len(expected))
    ]
    assert hood.costs == expected.costs
    assert np.array_equal(hood.broken, expected.broken)
    assert np.array_equal(hood.made, expected.made)
    assert [hood.label(k) for k in range(len(hood))] == [
        expected.label(k) for k in range(len(expected))
    ]
    assert problem.cost(a).hex() == _reference_packing_cost(problem, a).hex()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), as_list=st.booleans())
def test_tour_reversals_match_the_reference(n, seed, as_list):
    rng = seeded_rng(seed)
    problem = TspInstance.from_coords(rng.random((n, 2)) * 100)
    tour = problem.random_solution(rng)
    source = tour.tolist() if as_list else tour
    moves = [None] + [(i, j) for i in range(n) for j in range(i, n)]  # i = 0 and j = n-1 too
    for move in moves:
        out = problem.apply(source, move)
        expected = _reference_apply(source, move)
        assert type(out) is np.ndarray and out.dtype == expected.dtype
        assert out.tolist() == expected.tolist()
        assert np.array_equal(np.asarray(source), tour)  # the input is untouched
        assert not np.shares_memory(out, tour)
        assert problem.cost(out).hex() == _reference_tour_cost(problem, out).hex()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_tour_cost_matches_the_reference(n, seed):
    rng = seeded_rng(seed)
    problem = TspInstance.from_coords(rng.random((n, 2)) * 1000)
    tour = problem.random_solution(rng)
    for form in (tour, tuple(tour.tolist())):
        assert problem.cost(form).hex() == _reference_tour_cost(problem, form).hex()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), crowd=st.integers(1, 8))
def test_packing_cost_matches_the_reference(n, seed, crowd):
    rng = seeded_rng(seed)
    problem = BinPackingInstance(rng.uniform(0.05, 1.0, size=n))
    # items crowded into the first n // crowd bins overflow many of them at once
    a = rng.integers(0, max(1, n // crowd), size=n)
    assert problem.cost(a).hex() == _reference_packing_cost(problem, a).hex()
