import numpy as np
import pytest

from stochopt import (
    Budget,
    Neighborhood,
    NoNeighborError,
    TabletopInstance,
    TabuConfig,
    ValidationError,
    cube_state,
    tabu_search,
)
from stochopt.tabu import SearchMemory, TabuList, select_best_admissible

START = cube_state(1, 0, 0)  # the cost-10 vertex


def test_cube_trace_with_aspiration(cube):
    rec = tabu_search(cube, Budget(100), seed=0, cfg=TabuConfig(tenure=3), start=START)
    assert rec.extras["visited"] == [10.0, 8.0, 11.0, 9.0, 5.0]
    assert rec.extras["moves"] == ["z+", "x-", "y+", "z-"]
    assert rec.best_fitness == 5.0
    assert rec.status == "no_admissible"


def test_cube_trace_without_aspiration_halts_early(cube):
    cfg = TabuConfig(tenure=3, aspiration="off")
    rec = tabu_search(cube, Budget(100), seed=0, cfg=cfg, start=START)
    # the walk never reaches cost 5 (the probe evaluations at the final
    # iteration do see it, but no move is admissible)
    assert rec.extras["visited"] == [10.0, 8.0, 11.0, 9.0]
    assert 5.0 not in rec.extras["visited"]
    assert rec.status == "no_admissible"


A, B = 0, 1  # atom ids


def _rows(*atoms):
    """One row of atom ids per move, padded with -1."""
    width = max(len(a) for a in atoms)
    return np.array([list(a) + [-1] * (width - len(a)) for a in atoms], dtype=np.intp)


def _hood(costs, *atoms):
    """Hand-built neighborhood: move k breaks and makes atoms[k]."""
    rows = _rows(*atoms) if atoms else np.empty((0, 1), dtype=np.intp)
    return Neighborhood(
        costs=list(costs), broken=rows, made=rows, label=lambda k: k,
        row=lambda k: k,
    )


def _windowed(costs, full, *atoms):
    """Hand-built neighborhood whose `costs` lie within 1e-9 of the full costs `full`."""
    rows = _rows(*atoms)
    return Neighborhood(
        costs=list(costs), broken=rows, made=rows, label=lambda k: k, row=lambda k: k,
        window=1e-9, cost=list(full).__getitem__,
    )


def test_tabu_list_expiry_window():
    t = TabuList(tenure=3, atom_count=2)
    t.push(np.array([A]), k=1)
    move = _rows([A])
    # live for selections 2..4, free again at 5
    assert t.blocks(move, 2)[0]
    assert t.blocks(move, 4)[0]
    assert not t.blocks(move, 5)[0]


def test_zero_tenure_disables_the_list():
    t = TabuList(tenure=0, atom_count=2)
    t.push(np.array([A]), k=1)
    assert not t.expiry.any()
    assert not t.blocks(_rows([A]), 2)[0]


def test_any_forbidden_atom_makes_a_move_tabu():
    t = TabuList(tenure=2, atom_count=2)
    t.push(np.array([A, -1]), k=1)
    # the -1 padding is neither pushed nor ever tabu
    assert t.blocks(_rows([A, B], [B]), 2).tolist() == [True, False]


def test_selection_prefers_lowest_cost_earliest_tie():
    cfg = TabuConfig(tenure=3)
    tabu = TabuList(3, atom_count=2)
    hood = _hood([4.0, 4.0, 1.0], [A], [B], [B])
    assert select_best_admissible(hood, 3, tabu, best_so_far=10.0, cfg=cfg) == 2
    # only the evaluated prefix takes part; of two equal costs the first wins
    assert select_best_admissible(hood, 2, tabu, best_so_far=10.0, cfg=cfg) == 0


def test_selection_skips_tabu_unless_aspiring():
    cfg = TabuConfig(tenure=3)
    tabu = TabuList(3, atom_count=2)
    tabu.push(np.array([A]), k=0)
    hood = _hood([4.0, 6.0], [A], [B])  # good but tabu, worse
    # not better than the best visited: the tabu wins nothing
    assert select_best_admissible(hood, 2, tabu, 3.0, cfg, k=1) == 1
    # beats the best visited: aspiration readmits it
    assert select_best_admissible(hood, 2, tabu, 5.0, cfg, k=1) == 0
    # with aspiration off even that stays forbidden
    off = TabuConfig(tenure=3, aspiration="off")
    assert select_best_admissible(hood, 2, tabu, 5.0, off, k=1) == 1


def test_selection_reads_full_costs_within_the_window():
    cfg = TabuConfig(tenure=3)
    free = TabuList(3, atom_count=2)
    # the first move looks lowest, but in full the second is
    hood = _windowed([1.0, 1.0 + 1e-12, 5.0], [1.0 + 2e-12, 1.0, 5.0], [A], [B], [B])
    assert select_best_admissible(hood, 3, free, 10.0, cfg) == 1
    tabu = TabuList(3, atom_count=2)
    tabu.push(np.array([A]), k=0)
    # a tabu move a hair above best_so_far aspires on its full cost, a hair below ...
    hood = _windowed([3.0 + 1e-12, 4.0], [3.0 - 1e-12, 4.0], [A], [B])
    assert select_best_admissible(hood, 2, tabu, 3.0, cfg, k=1) == 0
    assert select_best_admissible(hood, 1, tabu, 3.0, cfg, k=1) == 0
    # ... and stays tabu when its full cost does not beat it
    hood = _windowed([3.0 - 1e-12, 4.0], [3.0, 4.0], [A], [B])
    assert select_best_admissible(hood, 2, tabu, 3.0, cfg, k=1) == 1
    assert select_best_admissible(hood, 1, tabu, 3.0, cfg, k=1) is None
    # a cost farther than the window from its full cost raises where it is read
    with pytest.raises(ValidationError, match="disagrees"):
        select_best_admissible(_windowed([1.0, 1.0], [1.0, 2.0], [A], [B]), 2, free, 10.0, cfg)


class _FixedPenalty:
    def __init__(self, values):
        self.values = np.array(values)

    def penalty(self, broken, made):
        return self.values[: len(broken)]


def test_a_large_penalty_widens_the_window_to_its_rounding():
    """Scores near 2**30 round to steps of 2**-22, far coarser than the costs' window.

    Move 1 scores a step below move 0 on its cost, but its full cost rounds
    up to the same score, and of equal scores the earlier move wins."""
    step = 2.0**-22
    hood = _windowed(
        [0.5 + 0.75 * step, 0.5 + step / 2 - 1e-12],
        [0.5 + 0.75 * step, 0.5 + step / 2 + 1e-12],
        [A], [B],
    )
    memory = _FixedPenalty([2.0**30, 2.0**30])
    assert select_best_admissible(hood, 2, TabuList(0, 2), 10.0, TabuConfig(), memory=memory) == 0


def test_everything_tabu_returns_none():
    cfg = TabuConfig(tenure=3, aspiration="off")
    tabu = TabuList(3, atom_count=2)
    tabu.push(np.array([A]), k=0)
    assert select_best_admissible(_hood([4.0], [A]), 1, tabu, 0.0, cfg, k=1) is None
    with pytest.raises(NoNeighborError):
        select_best_admissible(_hood([]), 0, tabu, 0.0, cfg, k=1)


def test_diversification_penalizes_frequent_atoms(cube):
    cfg = TabuConfig(tenure=1, diversification_weight=100.0)
    memory = SearchMemory(cube, cfg)
    hood = cube.neighbors(cube_state(0, 0, 0))  # x+, y+, z+
    memory.update(hood.broken[0], cube_state(1, 0, 0), 10.0)
    memory.update(hood.broken[0], cube_state(1, 0, 0), 10.0)
    penalty = memory.penalty(hood.broken, hood.made)
    assert penalty[0] > 0
    assert penalty[1] == penalty[2] == 0.0


def test_intensification_rewards_elite_overlap(cube):
    cfg = TabuConfig(tenure=1, intensification_weight=100.0)
    memory = SearchMemory(cube, cfg)
    step = cube.neighbors(cube_state(0, 1, 1)).broken[2]  # z-
    memory.update(step, cube_state(0, 1, 0), 5.0)
    # the elite solution's attributes are its state atom
    (toward,) = cube.solution_attributes(cube_state(0, 1, 0))
    (away,) = cube.solution_attributes(cube_state(1, 1, 1))
    penalty = memory.penalty(_rows([A], [A]), _rows([toward], [away]))
    assert penalty[0] < 0
    assert penalty[1] == 0.0


def test_tabu_solves_the_eight_city_fixture(eight, eight_oracle):
    threshold = eight_oracle["optimum"] * 1.05
    rec = tabu_search(
        eight,
        Budget(10_000, target_fitness=threshold),
        seed=0,
        cfg=TabuConfig(tenure=7),
    )
    assert rec.status == "target_reached"
    assert rec.best_fitness <= threshold


def test_budget_dies_mid_neighborhood(cube):
    rec = tabu_search(cube, Budget(4), seed=0, cfg=TabuConfig(tenure=3), start=START)
    assert rec.status == "budget_exhausted"
    assert rec.evaluations == 4
    assert rec.extras["iterations"] == 1


def test_isolated_start_raises():
    lonely = TabletopInstance([3.0], edges=[])
    with pytest.raises(NoNeighborError):
        tabu_search(lonely, Budget(10), seed=0, start=0)


def test_config_validation():
    with pytest.raises(ValidationError):
        TabuConfig(tenure=-1)
    with pytest.raises(ValidationError):
        TabuConfig(aspiration="sometimes")
    with pytest.raises(ValidationError):
        TabuConfig(elite_size=0)
