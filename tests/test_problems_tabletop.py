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
    hood = cube.neighbors(cube_state(1, 0, 0))
    assert [move.label for _, move in hood] == ["x-", "y+", "z+"]
    assert [cube.evaluate(s) for s, _ in hood] == [15.0, 12.0, 8.0]
    # each move's reverse undoes it
    for state, move in hood:
        back = dict(
            (m.label, s) for s, m in cube.neighbors(state)
        )[move.reverse_attributes[0]]
        assert back == cube_state(1, 0, 0)


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
    assert lonely.neighbors(0) == []


def test_unlabeled_edges_use_ordered_pairs():
    inst = TabletopInstance([1.0, 2.0], edges=[(0, 1)])
    (state, move), = inst.neighbors(0)
    assert state == 1
    assert move.label == (0, 1)
    assert move.reverse_attributes == ((1, 0),)


def test_edge_validation():
    with pytest.raises(ValidationError):
        TabletopInstance([1.0, 2.0], edges=[(0, 0)])
    with pytest.raises(ValidationError):
        TabletopInstance([1.0, 2.0], edges=[(0, 5)])
    with pytest.raises(ValidationError):
        TabletopInstance([], edges=[])
