import numpy as np
import pytest

from stochopt import (
    EncodingMismatchError,
    NoNeighborError,
    TabletopInstance,
    ValidationError,
    cube_state,
    seeded_rng,
)
from stochopt.problems.tabletop import CUBE_COSTS


def test_cube_costs_by_coordinates(cube):
    for (x, y, z), cost in CUBE_COSTS.items():
        assert cube.evaluate(cube_state(x, y, z)) == cost
    assert cube.evaluate(cube_state(1, 0, 0)) == 10.0
    assert min(cube.costs) == 5.0
    assert cube.costs.index(5.0) == cube_state(0, 1, 0)


def test_cube_moves_are_axis_flips_in_xyz_order(cube):
    start = cube_state(1, 0, 0)
    hood = cube.neighbors(start)
    assert [hood.label(k) for k in range(len(hood))] == ["x-", "y+", "z+"]
    states = [hood.row(k) for k in range(len(hood))]
    assert [cube.evaluate(s) for s in states] == [15.0, 12.0, 8.0]
    assert hood.costs == [15.0, 12.0, 8.0]
    # each move's made atom is what its reverse breaks, and the reverse undoes it
    for state, made in zip(states, hood.made[:, 0]):
        back = cube.neighbors(state)
        (k,) = np.flatnonzero(back.broken[:, 0] == made)
        assert back.row(k) == start


def test_every_vertex_has_three_neighbors(cube):
    for s in range(8):
        assert len(cube.neighbors(s)) == 3


def test_state_validation(cube):
    with pytest.raises(ValidationError):
        cube.validate(8)
    with pytest.raises(EncodingMismatchError):
        cube.validate("corner")
    with pytest.raises(EncodingMismatchError):
        cube.validate(True)


def test_isolated_state_has_no_sampled_neighbor():
    lonely = TabletopInstance([1.0, 2.0], edges=[])
    with pytest.raises(NoNeighborError):
        lonely.sample_neighbor(0, seeded_rng(0))
    assert len(lonely.neighbors(0)) == 0


def test_unlabeled_edges_use_ordered_pairs():
    inst = TabletopInstance([1.0, 2.0], edges=[(0, 1)])
    hood, back = inst.neighbors(0), inst.neighbors(1)
    assert len(hood) == 1 and hood.row(0) == 1
    assert hood.label(0) == (0, 1)
    assert back.label(0) == (1, 0)
    assert hood.made[0, 0] == back.broken[0, 0] != hood.broken[0, 0]


def test_label_atoms_and_state_atoms_never_meet(cube):
    labels = {int(a) for s in range(8) for a in cube.neighbors(s).broken[:, 0]}
    states = {int(a) for s in range(8) for a in cube.solution_attributes(s)}
    assert len(labels) == 6 and len(states) == 8
    assert labels.isdisjoint(states)
    assert max(labels | states) < cube.atom_count


def test_edge_validation():
    with pytest.raises(ValidationError):
        TabletopInstance([1.0, 2.0], edges=[(0, 0)])
    with pytest.raises(ValidationError):
        TabletopInstance([1.0, 2.0], edges=[(0, 5)])
    with pytest.raises(ValidationError):
        TabletopInstance([], edges=[])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_state_costs_must_be_finite(bad):
    """A neighborhood of infinite costs has no lowest move to take."""
    with pytest.raises(ValidationError, match="state 1 costs"):
        TabletopInstance([1.0, bad, 2.0], edges=[(0, 1), (1, 2)])
