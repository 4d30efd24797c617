from itertools import permutations

import numpy as np
import pytest

from stochopt import (
    EncodingMismatchError,
    TspInstance,
    ValidationError,
    brute_force_tour,
    seeded_rng,
    two_route_instance,
)


def _length_by_hand(d, tour):
    n = len(tour)
    return sum(d[tour[k], tour[(k + 1) % n]] for k in range(n))


def test_triangle_optimum_is_three(triangle):
    tour, length = brute_force_tour(triangle)
    assert length == 3.0
    assert tour == (0, 1, 2)


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
