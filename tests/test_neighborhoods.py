"""Array neighborhoods against a one-neighbor-at-a-time reference.

The reference enumerators below build each neighbor on its own, the
way a per-move implementation would: a copy of the solution, its broken
and made atoms as pairs, its label.  The array form must list the same
neighbors in the same order, cost each one exactly (`==`) as `cost`
does, and carry atom ids that decode to the same pairs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    BinPackingInstance,
    Budget,
    TspInstance,
    cube_fixture,
    hill_climb_steepest,
    seeded_rng,
    tabu_search,
)


def _edge(a, b):
    return (min(a, b), max(a, b))


def _reference_tour(tour):
    n = len(tour)
    t = [int(c) for c in tour]
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (i, j) in ((0, n - 1), (0, n - 2), (1, n - 1)):
                continue
            before, after = t[(i - 1) % n], t[(j + 1) % n]
            broken = {_edge(before, t[i]), _edge(t[j], after)}
            made = {_edge(before, t[j]), _edge(t[i], after)}
            yield np.array(t[:i] + t[i : j + 1][::-1] + t[j + 1 :]), broken, made, (i, j)


def _reference_packing(a):
    n = len(a)
    used = sorted(set(a.tolist()))
    empty = sorted(set(range(n)) - set(used))
    targets = used + empty[:1]
    for item in range(n):
        src = int(a[item])
        for dst in targets:
            if dst != src:
                row = a.copy()
                row[item] = dst
                yield row, {(item, src)}, {(item, dst)}, ("relocate", item, src, dst)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if a[i] != a[j]:
                row = a.copy()
                row[i], row[j] = a[j], a[i]
                bi, bj = int(a[i]), int(a[j])
                yield row, {(i, bi), (j, bj)}, {(i, bj), (j, bi)}, ("swap", i, j)


def _pairs(atoms, n):
    return {divmod(int(x), n) for x in atoms if x >= 0}


def _check(problem, solution, reference, n):
    hood = problem.neighbors(solution)
    expected = list(reference(solution))
    assert len(hood) == len(expected)
    assert hood.broken.shape == hood.made.shape == (len(hood), 2)
    for k, (row, broken, made, label) in enumerate(expected):
        assert hood.solutions[k].tolist() == row.tolist()
        assert hood.costs[k] == problem.cost(hood.solutions[k])
        assert _pairs(hood.broken[k], n) == broken
        assert _pairs(hood.made[k], n) == made
        assert hood.label(k) == label
    assert all(type(c) is float for c in hood.costs)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_tour_neighborhood_matches_the_reference(n, seed):
    rng = seeded_rng(seed)
    problem = TspInstance.from_coords(rng.random((n, 2)) * 100)
    _check(problem, problem.random_solution(rng), _reference_tour, n)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["random", "one_bin", "distinct"]),
    decimal=st.booleans(),
)
def test_packing_neighborhood_matches_the_reference(n, seed, layout, decimal):
    rng = seeded_rng(seed)
    # decimal sizes land loads on the capacity up to rounding, which the
    # FIT_SLACK clamp must treat exactly as `cost` does
    sizes = rng.integers(1, 10, size=n) / 10 if decimal else rng.uniform(0.05, 1.0, size=n)
    problem = BinPackingInstance(sizes)
    if layout == "one_bin":
        a = np.full(n, int(rng.integers(n)))
    elif layout == "distinct":
        a = rng.permutation(n)
    else:
        a = problem.random_solution(rng)
    _check(problem, a, _reference_packing, n)


def test_cube_neighborhoods_match_the_graph():
    cube = cube_fixture()
    names = {}
    for s in range(8):
        hood = cube.neighbors(s)
        flips = [s ^ bit for bit in (1, 2, 4)]  # x, y, z order
        assert hood.solutions == flips
        assert hood.costs == [cube.cost(v) for v in flips]
        for k, v in enumerate(flips):
            axis = "xyz"[k]
            label = f"{axis}+" if v > s else f"{axis}-"
            assert hood.label(k) == label
            assert names.setdefault(int(hood.broken[k, 0]), label) == label
    assert len(names) == 6  # one id per label
    for s in range(8):
        hood = cube.neighbors(s)
        for k in range(len(hood)):
            undo = hood.label(k).translate(str.maketrans("+-", "-+"))
            assert names[int(hood.made[k, 0])] == undo


def test_costs_are_exact_at_benchmark_sizes():
    """Row-wise sums give `cost`'s value bit for bit on long rows too."""
    rng = seeded_rng(50)
    tour = TspInstance.from_coords(rng.random((50, 2)) * 1000)
    pack = BinPackingInstance(rng.integers(5, 61, size=60), capacity=100)
    for problem in (tour, pack):
        for _ in range(3):
            hood = problem.neighbors(problem.random_solution(rng))
            assert hood.costs == [problem.cost(row) for row in hood.solutions]


def test_fit_slack_clamps_a_rounding_overflow_as_cost_does():
    # 0.2 + 0.4 + 0.3 + 0.1 sums to 1.0000000000000002 in item order
    inst = BinPackingInstance([0.2, 0.4, 0.3, 0.1])
    hood = inst.neighbors(np.array([0, 0, 0, 1]))
    k = [hood.label(k) for k in range(len(hood))].index(("relocate", 3, 1, 0))
    assert hood.costs[k] == inst.cost(hood.solutions[k]) == 1.0


@pytest.mark.parametrize("search", [tabu_search, hill_climb_steepest])
def test_searchers_hold_one_neighborhood_at_a_time(search):
    inst = TspInstance.from_coords(seeded_rng(0).random((60, 2)))
    start = inst.random_solution(seeded_rng(1))
    tracemalloc.start()
    try:
        hood = inst.neighbors(start)
        _, one = tracemalloc.get_traced_memory()
        rows, steps = hood.solutions.nbytes, len(hood)
        del hood
        tracemalloc.reset_peak()
        search(inst, Budget(4 * steps), seed=0, start=start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # building a neighborhood while the previous one is still bound costs its rows again
    assert peak < one + rows / 2
