"""Array neighborhoods against a one-neighbor-at-a-time reference, and
searches on four-edge tour costs against searches on full ones.

The reference enumerators below build each neighbor on its own, the
way a per-move implementation would: a copy of the solution, its broken
and made atoms as pairs, its label.  The array form must list the same
neighbors in the same order, as `row(k)`, and carry atom ids that decode
to the same pairs.  Packings and state graphs cost every neighbor
exactly (`==`) as `cost` does.

A tour costs each reversal from the four edges it changes, bit for bit
as `move_cost` does; that cost lies within the neighborhood's window of
the full `cost` of the built row, but not always on it.  `_RowBuilding`
keeps the earlier neighborhood, which built every reversed tour as a row
of an (M, n) block and costed the block in full, and tabu search and
steepest descent must give equal records on both.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    BinPackingInstance,
    Budget,
    Neighborhood,
    NoNeighborError,
    TabuConfig,
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


class _RowBuilding(TspInstance):
    """Every reversed tour built as a row of an (M, n) block, costed by `cost_rows`."""

    def neighbors(self, solution) -> Neighborhood:
        tour = np.asarray(solution)
        i, j, n = self._i, self._j, self.n
        p = np.arange(n)
        inside = (i[:, None] <= p) & (p <= j[:, None])
        rows = tour[np.where(inside, (i + j)[:, None] - p, p)]
        before, first, last, after = tour[(i - 1) % n], tour[i], tour[j], tour[(j + 1) % n]
        atom = self._atom
        return Neighborhood(
            costs=self.cost_rows(rows),
            broken=np.stack((atom(before, first), atom(last, after)), axis=1),
            made=np.stack((atom(before, last), atom(first, after)), axis=1),
            label=lambda k: (int(i[k]), int(j[k])),
            row=lambda k: rows[k].copy(),
        )


def _check(problem, solution, reference, n):
    hood = problem.neighbors(solution)
    expected = list(reference(solution))
    assert len(hood) == len(expected)
    assert hood.broken.shape == hood.made.shape == (len(hood), 2)
    for k, (row, broken, made, label) in enumerate(expected):
        assert hood.row(k).tolist() == row.tolist()
        assert _pairs(hood.broken[k], n) == broken
        assert _pairs(hood.made[k], n) == made
        assert hood.label(k) == label
    assert all(type(c) is float for c in hood.costs)
    return hood


def _check_exact(problem, solution, reference, n):
    hood = _check(problem, solution, reference, n)
    assert hood.window == 0.0
    for k in range(len(hood)):
        assert hood.costs[k] == problem.cost(hood.row(k))


def _check_four_edge(problem, tour):
    """Per move: the row-building reference's row, `move_cost`'s value, and a
    cost within the window of the full one."""
    hood = _check(problem, tour, _reference_tour, problem.n)
    rows = _RowBuilding(problem.d).neighbors(tour)
    f = problem.cost(tour)
    for k in range(len(hood)):
        row = hood.row(k)
        assert row.tolist() == rows.row(k).tolist()
        assert hood.costs[k].hex() == problem.move_cost(tour, f, hood.label(k)).hex()
        assert abs(hood.costs[k] - problem.cost(row)) <= hood.window
        assert problem.cost(row) == rows.costs[k]
    assert np.array_equal(hood.broken, rows.broken) and np.array_equal(hood.made, rows.made)


def _cities(n, seed, lattice):
    """Random points, or points on a 4 x 4 lattice (repeats allowed): exact ties."""
    rng = seeded_rng(seed)
    if lattice:
        return TspInstance.from_coords(rng.integers(0, 4, size=(n, 2))), rng
    return TspInstance.from_coords(rng.random((n, 2)) * 100), rng


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
def test_tour_neighborhood_matches_the_reference(n, seed, lattice):
    problem, rng = _cities(n, seed, lattice)
    _check_four_edge(problem, problem.random_solution(rng))


def _outcome(search, problem, *args, **kwargs):
    try:
        return search(problem, *args, **kwargs).to_dict()
    except NoNeighborError as error:  # 1-3 cities: no reversal to start from
        return repr(error)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
    budget=st.integers(1, 600),
    tabu=st.one_of(
        st.none(),
        st.builds(
            TabuConfig,
            tenure=st.sampled_from([0, 1, 3, 7]),
            aspiration=st.sampled_from(["best_so_far", "off"]),
            intensification_weight=st.sampled_from([0.0, 0.5, 3.0]),
            diversification_weight=st.sampled_from([0.0, 5.0, 40.0]),
            elite_size=st.integers(1, 4),
        ),
    ),
    restart=st.booleans(),
)
def test_searches_on_four_edge_costs_match_the_row_building_path(
    n, seed, lattice, budget, tabu, restart
):
    """Records equal, move for move, whatever ties and twin reversals the costs hold."""
    problem, _ = _cities(n, seed, lattice)
    reference = _RowBuilding(problem.d)
    if tabu is None:
        search, options = hill_climb_steepest, {"restart_on_optimum": restart}
    else:
        search, options = tabu_search, {"cfg": tabu}
    assert _outcome(search, problem, Budget(budget), seed, **options) == _outcome(
        search, reference, Budget(budget), seed, **options
    )


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
    _check_exact(problem, a, _reference_packing, n)


def test_cube_neighborhoods_match_the_graph():
    cube = cube_fixture()
    names = {}
    for s in range(8):
        hood = cube.neighbors(s)
        flips = [s ^ bit for bit in (1, 2, 4)]  # x, y, z order
        assert [hood.row(k) for k in range(len(hood))] == flips
        assert hood.costs == [cube.cost(v) for v in flips] and hood.window == 0.0
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
    """Row-wise packing sums give `cost`'s value bit for bit on long rows too."""
    rng = seeded_rng(50)
    pack = BinPackingInstance(rng.integers(5, 61, size=60), capacity=100)
    for _ in range(3):
        hood = pack.neighbors(pack.random_solution(rng))
        assert hood.costs == [pack.cost(hood.row(k)) for k in range(len(hood))]


@pytest.mark.parametrize("n", [50, 140])
def test_tour_costs_at_benchmark_sizes_are_four_edge_sums(n):
    """Irrational edges, and rows past numpy's 128-term pairwise split."""
    rng = seeded_rng(n)
    problem = TspInstance.from_coords(rng.random((n, 2)) * 1000)
    for _ in range(2):
        _check_four_edge(problem, problem.random_solution(rng))


def test_fit_slack_clamps_a_rounding_overflow_as_cost_does():
    # 0.2 + 0.4 + 0.3 + 0.1 sums to 1.0000000000000002 in item order
    inst = BinPackingInstance([0.2, 0.4, 0.3, 0.1])
    hood = inst.neighbors(np.array([0, 0, 0, 1]))
    k = [hood.label(k) for k in range(len(hood))].index(("relocate", 3, 1, 0))
    assert hood.costs[k] == inst.cost(hood.row(k)) == 1.0


MIB = 2**20


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_200_city_neighborhood_builds_no_rows():
    """19,897 reversals: their (M, n) rows alone took 31 MiB and the build 65 MiB."""
    inst = TspInstance.from_coords(seeded_rng(0).random((200, 2)))
    tour = inst.random_solution(seeded_rng(1))
    assert _peak(lambda: inst.neighbors(tour)) < 8 * MIB


@pytest.mark.parametrize("search", [tabu_search, hill_climb_steepest])
def test_searchers_at_200_cities_stay_small(search):
    """Three neighborhoods, about 3.8 MiB here; the row-building path took 65 MiB."""
    inst = TspInstance.from_coords(seeded_rng(0).random((200, 2)))
    start = inst.random_solution(seeded_rng(1))
    steps = len(inst.neighbors(start))
    assert _peak(lambda: search(inst, Budget(3 * steps), seed=0, start=start)) < 8 * MIB
