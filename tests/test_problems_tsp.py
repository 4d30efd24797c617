from functools import partial
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    EncodingMismatchError,
    TspInstance,
    ValidationError,
    brute_force_tour,
    seeded_rng,
    two_route_instance,
)
from stochopt.core import ScalarDraws

from conftest import id_arrays, outcome


def _length_by_hand(d, tour):
    n = len(tour)
    return sum(d[tour[k], tour[(k + 1) % n]] for k in range(n))


def test_triangle_optimum_is_three(triangle):
    tour, length = brute_force_tour(triangle)
    assert length == 3.0
    assert tour == (0, 1, 2)
    # the smallest instances: one city, and two whose one cycle uses the edge twice
    assert brute_force_tour(TspInstance(np.zeros((1, 1)))) == ((0,), 0.0)
    pair = TspInstance(np.array([[0.0, 2.5], [2.5, 0.0]]))
    assert brute_force_tour(pair) == ((0, 1), pair.d[0, 1] + pair.d[1, 0])


def test_eight_city_oracle_matches_stored_file(eight, eight_oracle):
    # independent recount: every tour through all 8 cities, length by raw
    # index arithmetic, no library path involved
    best_len = float("inf")
    best_tour = None
    for rest in permutations(range(1, 8)):
        if rest[0] > rest[-1]:
            continue
        tour = (0,) + rest
        length = _length_by_hand(eight.d, tour)
        if length < best_len:
            best_len = length
            best_tour = tour
    assert best_len == pytest.approx(eight_oracle["optimum"], rel=1e-12)
    assert list(best_tour) == eight_oracle["tour"]
    tour, length = brute_force_tour(eight)
    assert length == pytest.approx(best_len, rel=1e-12)
    assert tuple(tour) == best_tour


def test_length_matches_hand_computation(eight):
    rng = seeded_rng(5)
    for _ in range(20):
        tour = rng.permutation(8)
        assert eight.evaluate(tour) == pytest.approx(
            _length_by_hand(eight.d, tour), rel=1e-12
        )
    lone = TspInstance(np.zeros((1, 1)))
    assert lone.cost(np.array([0])) == lone.evaluate([0]) == 0.0


def test_length_is_rotation_and_reflection_invariant(eight):
    tour = np.arange(8)
    base = eight.evaluate(tour)
    assert eight.evaluate(np.roll(tour, 3)) == pytest.approx(base, rel=1e-12)
    assert eight.evaluate(tour[::-1]) == pytest.approx(base, rel=1e-12)


def test_apply_reverses_the_closed_slice():
    # F D B A E C with the slice 1..4 reversed reads F E A B D C
    f, d, b, a, e, c = 5, 3, 1, 0, 4, 2
    tour = np.array([f, d, b, a, e, c])
    inst = TspInstance(np.zeros((6, 6)))
    assert inst.apply(tour, (1, 4)).tolist() == [f, e, a, b, d, c]
    assert inst.apply(tour, (2, 2)).tolist() == tour.tolist() == [f, d, b, a, e, c]


def test_a_tour_chain_state_is_an_intp_array():
    """The state converts to and from the tour array as one memcpy: its items
    are numpy's intp, whatever size C's long has (4 bytes on Windows).
    `apply` reads it as it reads the array, and `advance` leaves it untouched."""
    f, d, b, a, e, c = 5, 3, 1, 0, 4, 2
    tour = np.array([f, d, b, a, e, c])
    inst = TspInstance(np.zeros((6, 6)))
    state = inst.chain(tour)
    assert state.itemsize == np.dtype(np.intp).itemsize
    assert np.asarray(state).dtype == np.intp
    assert state.tolist() == tour.tolist()
    built = inst.apply(state, (1, 4))
    assert built.dtype == np.intp and built.tolist() == [f, e, a, b, d, c]
    for move in [(0, 3), (1, 4), (2, 2), (3, 5), (0, 0)]:
        built = inst.apply(tour, move)
        assert inst.advance(state, move).tolist() == built.tolist()
    assert state.tolist() == tour.tolist()


def test_the_distance_rows_are_views_of_the_matrix():
    """`move_cost` reads `d` through one memoryview per row, which copies nothing."""
    inst = TspInstance.from_coords(seeded_rng(9).random((9, 2)))
    assert len(inst._rows) == inst.n
    for a, row in enumerate(inst._rows):
        assert np.shares_memory(np.asarray(row), inst.d)
        assert row.tolist() == inst.d[a].tolist()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e6))
def test_a_reversal_costs_its_four_distances_bit_for_bit(n, seed, scale):
    """On a random symmetric matrix, `move_cost` of every reversal and of the
    empty reversal (0, 0) is `f` plus the two made edges minus the two broken
    ones, read with `d.item`, bit for bit."""
    rng = seeded_rng(seed)
    m = rng.random((n, n)) * scale
    d = m + m.T
    np.fill_diagonal(d, 0.0)
    inst = TspInstance(d)
    tour = rng.permutation(n)
    state, f = inst.chain(tour), inst.cost(tour)
    for i, j in [(0, 0), *zip(inst._i.tolist(), inst._j.tolist())]:
        a, b, c, e = (int(tour[k]) for k in (i - 1, i, j, (j + 1) % n))
        expected = f + ((d.item(a, c) + d.item(b, e)) - (d.item(a, b) + d.item(c, e)))
        assert inst.move_cost(state, f, (i, j)).hex() == expected.hex()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_tour_of_at_most_three_cities_draws_the_empty_reversal(n):
    """Every reversal of 1-3 cities is the same cyclic tour, so the move is
    (0, 0), drawn from nothing: it costs exactly `f` and builds a copy of the
    tour it starts from."""
    inst = TspInstance.from_coords(seeded_rng(n).random((n, 2)))
    rng = seeded_rng(7)
    tour = inst.random_solution(rng)
    cities = tour.tolist()
    state = inst.chain(tour)
    before = rng.bit_generator.state
    move = inst.sample_move(state, rng)
    assert move == (0, 0)
    assert rng.bit_generator.state == before
    f = inst.cost(tour)
    assert inst.move_cost(state, f, move).hex() == f.hex()
    built = inst.apply(tour, move)
    advanced = inst.advance(state, move)
    assert built.tolist() == advanced.tolist() == cities
    assert built is not tour and advanced is not state
    assert tour.tolist() == state.tolist() == cities


@pytest.mark.parametrize("decoded", [False, True], ids=["generator", "scalar-draws"])
def test_a_sampled_reversal_is_read_as_two_python_ints(decoded):
    """Move k is (_i[k], _j[k]) for the k that `integers(len(_i))` draws, as plain ints."""
    inst = TspInstance.from_coords(seeded_rng(50).random((50, 2)))
    state = inst.chain(np.arange(50))
    rng, reference = seeded_rng(3), seeded_rng(3)
    if decoded:
        rng = ScalarDraws(rng)
    for _ in range(300):
        move = inst.sample_move(state, rng)
        k = reference.integers(len(inst._i))
        assert [type(end) for end in move] == [int, int]
        assert move == (inst._i[k], inst._j[k])
    if decoded:
        rng.close()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_neighborhood_excludes_whole_cycle_reversals(eight):
    tour = np.arange(8)
    hood = eight.neighbors(tour)
    # all i < j pairs minus the three slices whose reversal leaves the
    # cyclic tour unchanged
    assert len(hood) == 8 * 7 // 2 - 3
    labels = [hood.label(k) for k in range(len(hood))]
    assert {(0, 7), (0, 6), (1, 7)}.isdisjoint(labels)
    base = eight.evaluate(tour)
    t = tour.tolist()
    rows = [hood.row(k) for k in range(len(hood))]
    for neighbor, (i, j) in zip(rows, labels):
        assert sorted(neighbor.tolist()) == list(range(8))
        assert neighbor.tolist() == t[:i] + t[i : j + 1][::-1] + t[j + 1 :]
    # every retained reversal changes the cyclic tour's length here
    changed = [n for n in rows if eight.evaluate(n) != base]
    assert len(changed) == len(hood)


def _edges(atoms, n):
    return {divmod(int(a), n) for a in atoms if a >= 0}


def test_move_attributes_are_broken_and_made_edges(eight):
    tour = np.arange(8)
    hood = eight.neighbors(tour)
    k = [hood.label(k) for k in range(len(hood))].index((2, 5))
    # reversing 2..5 breaks edges (1,2) and (5,6), creates (1,5) and (2,6)
    assert _edges(hood.broken[k], 8) == {(1, 2), (5, 6)}
    assert _edges(hood.made[k], 8) == {(1, 5), (2, 6)}


def test_sample_neighbor_is_seed_stable(eight):
    tour = np.arange(8)
    a = eight.sample_neighbor(tour, seeded_rng(9))
    b = eight.sample_neighbor(tour, seeded_rng(9))
    assert a.tolist() == b.tolist()


def test_validation_rejects_malformed_tours(eight):
    with pytest.raises(EncodingMismatchError):
        eight.validate([0, 1, 2])
    with pytest.raises(EncodingMismatchError):
        eight.validate(np.linspace(0, 7, 8))
    with pytest.raises(ValidationError):
        eight.validate([0, 0, 1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize("tour", [
    [-1, 0, 1, 2, 3, 4, 5, 6],
    [0, 1, 2, 3, 4, 5, 6, -8],
    np.array([0, 1, 2, 3, 4, 5, 6, 2**63], dtype=np.uint64),  # negative once cast to intp
])
def test_validation_refuses_an_id_outside_the_cities_by_name(eight, tour):
    with pytest.raises(ValidationError, match="every city exactly once"):
        eight.validate(tour)


def _old_tour_rules(n, solution):
    """`TspInstance.validate` as it read before it dropped numpy's Python-level wrappers.

    One line is added: an id of 2**16 or more is refused before `bincount`,
    which would allocate a count for every id up to it (32 GiB for the
    largest uint32) only to refuse the tour with the same error.
    """
    tour = np.asarray(solution)
    if tour.ndim != 1 or tour.size != n:
        raise EncodingMismatchError(
            f"tour must be a permutation of {n} cities, got shape {tour.shape}"
        )
    if not np.issubdtype(tour.dtype, np.integer):
        raise EncodingMismatchError("tour entries must be integers")
    if np.any(tour.astype(np.intp) >= 2**16):
        raise ValidationError("tour must visit every city exactly once")
    counts = np.bincount(tour.astype(np.intp), minlength=n)
    if counts.size != n or np.any(counts != 1):
        raise ValidationError("tour must visit every city exactly once")
    return tour.astype(np.intp)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_validate_keeps_the_old_rules_and_names_a_negative_id(n, data):
    tour = data.draw(id_arrays(n))
    want = outcome(partial(_old_tour_rules, n), tour)
    if want[0] is ValueError:  # numpy's own, from bincount: an id negative as an intp
        assert np.minimum.reduce(tour.astype(np.intp)) < 0
        want = (ValidationError, "tour must visit every city exactly once")
    assert outcome(TspInstance(np.zeros((n, n))).validate, tour) == want


def test_instance_validation():
    with pytest.raises(ValidationError):
        TspInstance(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        TspInstance(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal
    with pytest.raises(ValidationError):
        TspInstance(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValidationError, match="largest asymmetry"):
        TspInstance(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))  # 1e-12 off
    with pytest.raises(ValidationError, match="finite"):
        TspInstance(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValidationError, match="finite"):  # not reported as an asymmetry
        TspInstance(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_from_coords_is_plain_euclidean():
    inst = TspInstance.from_coords([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert inst.d[0, 1] == 1.0
    assert inst.d[0, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert inst.d[1, 2] == 1.0


_coordinate = st.floats(-1e100, 1e100)  # every squared gap stays finite


@given(
    points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=10),
)
def test_from_coords_gives_an_exactly_zero_diagonal(points, picks):
    coords = [points[k % len(points)] for k in picks]  # repeated points included
    inst = TspInstance.from_coords(coords)
    assert np.all(np.diag(inst.d) == 0.0)
    assert np.array_equal(inst.d, inst.d.T)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 0), (2, 1)])
def test_from_coords_names_a_non_finite_coordinate(bad, where):
    coords = np.zeros((3, 2))
    coords[where] = bad
    # no RuntimeWarning first: tier-1 runs turn it into an error
    with pytest.raises(ValidationError, match=rf"coords\[{where[0]}, {where[1]}\] = {bad}"):
        TspInstance.from_coords(coords)


@pytest.mark.parametrize("coords", [
    [[1e200, 0.0], [0.0, 0.0]],  # the square overflows
    [[1.7e308, 0.0], [-1.7e308, 0.0]],  # the difference overflows
])
def test_from_coords_refuses_an_overflowing_distance_without_a_warning(coords):
    with pytest.raises(ValidationError, match=r"distances must be finite; d\[0, 1\] = inf"):
        TspInstance.from_coords(coords)


@given(n=st.integers(1, 60), k=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_random_solutions_are_successive_random_solution_draws(n, k, seed):
    inst = TspInstance(np.zeros((n, n)))
    block_rng, one_rng = seeded_rng(seed), seeded_rng(seed)
    block = inst.random_solutions(block_rng, k)
    assert block.shape == (k, n)
    for row in block:
        assert row.tolist() == inst.random_solution(one_rng).tolist()
    assert block_rng.bit_generator.state == one_rng.bit_generator.state


def test_brute_force_refuses_large_instances():
    d = np.zeros((11, 11))
    d += 1.0
    np.fill_diagonal(d, 0.0)
    with pytest.raises(ValidationError):
        brute_force_tour(TspInstance(d))


def test_two_route_instance_has_one_short_cycle():
    inst = two_route_instance()
    assert inst.evaluate([0, 1, 2, 3]) == 4.0
    assert inst.evaluate([0, 2, 1, 3]) == 8.0
    assert inst.evaluate([0, 1, 3, 2]) == 8.0


def test_solution_attributes_are_undirected_edges(eight):
    atoms = eight.solution_attributes(np.arange(8))
    edges = _edges(atoms, 8)
    assert (0, 1) in edges
    assert (0, 7) in edges  # closing edge, ordered low-high
    assert len(atoms) == len(edges) == 8
    # the same cycle read backwards is made of the same atoms
    assert eight.solution_attributes(np.arange(8)[::-1]).tolist() == atoms.tolist()
