import pytest

from stochopt import (
    Budget,
    Move,
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


def test_tabu_list_expiry_window():
    t = TabuList(tenure=3)
    t.push(("a",), k=1)
    move = Move(attributes=("a",), reverse_attributes=("b",))
    # live for selections 2..4, free again at 5
    assert t.move_is_tabu(move, 2)
    assert t.move_is_tabu(move, 4)
    assert not t.move_is_tabu(move, 5)
    t.purge(5)
    assert len(t) == 0


def test_zero_tenure_disables_the_list():
    t = TabuList(tenure=0)
    t.push(("a",), k=1)
    assert len(t) == 0
    assert not t.move_is_tabu(Move(attributes=("a",), reverse_attributes=()), 2)


def test_any_forbidden_atom_makes_a_move_tabu():
    t = TabuList(tenure=2)
    t.push(("a",), k=1)
    both = Move(attributes=("a", "b"), reverse_attributes=())
    other = Move(attributes=("b",), reverse_attributes=())
    assert t.move_is_tabu(both, 2)
    assert not t.move_is_tabu(other, 2)


def _triple(cost, atom):
    return (cost, Move(attributes=(atom,), reverse_attributes=(atom,)), cost)


def test_selection_prefers_lowest_cost_earliest_tie():
    cfg = TabuConfig(tenure=3)
    tabu = TabuList(3)
    first = _triple(4.0, "a")
    tie = _triple(4.0, "b")
    picked = select_best_admissible([first, tie], tabu, best_so_far=10.0, cfg=cfg)
    assert picked is first


def test_selection_skips_tabu_unless_aspiring():
    cfg = TabuConfig(tenure=3)
    tabu = TabuList(3)
    tabu.push(("a",), k=0)
    good_but_tabu = _triple(4.0, "a")
    worse = _triple(6.0, "b")
    # not better than the best visited: the tabu wins nothing
    picked = select_best_admissible([good_but_tabu, worse], tabu, 3.0, cfg, k=1)
    assert picked is worse
    # beats the best visited: aspiration readmits it
    picked = select_best_admissible([good_but_tabu, worse], tabu, 5.0, cfg, k=1)
    assert picked is good_but_tabu
    # with aspiration off even that stays forbidden
    off = TabuConfig(tenure=3, aspiration="off")
    picked = select_best_admissible([good_but_tabu, worse], tabu, 5.0, off, k=1)
    assert picked is worse


def test_everything_tabu_returns_none():
    cfg = TabuConfig(tenure=3, aspiration="off")
    tabu = TabuList(3)
    tabu.push(("a",), k=0)
    assert select_best_admissible([_triple(4.0, "a")], tabu, 0.0, cfg, k=1) is None
    with pytest.raises(NoNeighborError):
        select_best_admissible([], tabu, 0.0, cfg, k=1)


def test_diversification_penalizes_frequent_atoms(cube):
    cfg = TabuConfig(tenure=1, diversification_weight=100.0)
    memory = SearchMemory(cube, cfg)
    move = Move(attributes=("x+",), reverse_attributes=("x-",))
    memory.update(move, cube_state(1, 0, 0), 10.0)
    memory.update(move, cube_state(1, 0, 0), 10.0)
    assert memory.penalty(move) > 0
    fresh = Move(attributes=("y+",), reverse_attributes=("y-",))
    assert memory.penalty(fresh) == 0.0


def test_intensification_rewards_elite_overlap(cube):
    cfg = TabuConfig(tenure=1, intensification_weight=100.0)
    memory = SearchMemory(cube, cfg)
    step = Move(attributes=("z-",), reverse_attributes=("z+",))
    memory.update(step, cube_state(0, 1, 0), 5.0)
    # the elite solution's attribute set contains the state id itself
    toward = Move(attributes=(), reverse_attributes=(cube_state(0, 1, 0),))
    away = Move(attributes=(), reverse_attributes=(99,))
    assert memory.penalty(toward) < 0
    assert memory.penalty(away) == 0.0


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
