import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    BinPackingInstance,
    EncodingMismatchError,
    ValidationError,
    brute_force_packing,
    seeded_rng,
)
from stochopt.problems.binpacking import EXACT_TOTAL, first_fit_decreasing

from conftest import FIXTURES


def _bins_used(assignment):
    return len(set(assignment))


def _exhaustive_min_bins(inst):
    """Reference optimum: try every assignment of n items to n bins."""
    best = inst.n
    for a in product(range(inst.n), repeat=inst.n):
        loads = {}
        for item, b in enumerate(a):
            loads[b] = loads.get(b, 0.0) + inst.sizes[item]
        if all(load <= 1.0 + 1e-9 for load in loads.values()):
            best = min(best, len(loads))
    return best


def test_ffd_packs_the_textbook_triple():
    inst = BinPackingInstance([0.4, 0.7, 0.3])
    assignment = first_fit_decreasing(inst)
    assert _bins_used(assignment) == 2
    # 0.7 opens bin 0, 0.4 needs a new bin, 0.3 tops bin 0 up to 1.0
    assert assignment.tolist() == [1, 0, 0]
    assert inst.evaluate(assignment) == 2.0


def test_overfull_bin_costs_count_plus_penalized_overflow():
    inst = BinPackingInstance([0.6, 0.6])
    cost = inst.evaluate([0, 0])
    assert cost == pytest.approx(1.0 + inst.penalty * 0.2, rel=1e-9)
    assert inst.evaluate([0, 1]) == 2.0
    # the penalty default keeps any overfull packing above any feasible one
    assert cost > 2.0


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), 0, -5.0, True])
def test_a_penalty_that_is_not_finite_and_positive_is_refused(penalty):
    """Such a penalty would let annealing record inf with no solution, or an overfull packing."""
    with pytest.raises(ValidationError, match="'penalty'"):
        BinPackingInstance([0.6, 0.6, 0.3], penalty=penalty)
    assert BinPackingInstance([0.6, 0.6, 0.3], penalty=3).penalty == 3.0


def test_capacity_normalizes_sizes():
    inst = BinPackingInstance([4.0, 7.0, 3.0], capacity=10.0)
    np.testing.assert_allclose(inst.sizes, [0.4, 0.7, 0.3])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), capacity=st.integers(2, 1000), seed=st.integers(0, 2**32 - 1))
def test_a_whole_number_packing_costs_the_same_in_any_item_order(n, capacity, seed):
    """Whole-number loads are exact, so no reordering of the items moves the cost."""
    rng = seeded_rng(seed)
    sizes = rng.integers(1, capacity + 1, size=n)
    a = rng.integers(0, max(1, n // 3), size=n)  # overfull bins as well as full ones
    order = rng.permutation(n)
    inst = BinPackingInstance(sizes, capacity=capacity)
    permuted = BinPackingInstance(sizes[order], capacity=capacity)
    assert permuted.cost(a[order]).hex() == inst.cost(a).hex()


def test_whole_number_loads_stay_exact_up_to_a_total_of_2_53():
    """Past a total of 2**53 a float load could round, so the loads become fractions."""
    half = EXACT_TOTAL // 2
    at_limit = BinPackingInstance([half, half], capacity=half)
    assert at_limit.whole and at_limit.cap == half
    assert at_limit.cost([0, 0]) == 1.0 + at_limit.penalty
    past = BinPackingInstance([half, half, 1], capacity=half)
    assert not past.whole and past.cap == 1.0
    for inst, a in ((at_limit, np.array([0, 1])), (past, np.array([0, 1, 1]))):
        hood = inst.neighbors(a)
        assert hood.window == 0.0
        assert hood.costs == [inst.cost(hood.row(k)) for k in range(len(hood))]


def test_instance_validation():
    with pytest.raises(ValidationError):
        BinPackingInstance([])
    with pytest.raises(ValidationError):
        BinPackingInstance([0.5, -0.1])
    with pytest.raises(ValidationError):
        BinPackingInstance([1.2])
    with pytest.raises(ValidationError):
        BinPackingInstance([0.5], capacity=0.0)
    with pytest.raises(ValidationError, match="finite"):
        BinPackingInstance([0.5, np.nan])
    with pytest.raises(ValidationError, match="finite"):
        BinPackingInstance([0.5], capacity=np.inf)


def test_assignment_validation():
    inst = BinPackingInstance([0.5, 0.5])
    with pytest.raises(EncodingMismatchError):
        inst.validate([0])
    with pytest.raises(EncodingMismatchError):
        inst.validate([0.5, 0.5])
    with pytest.raises(ValidationError):
        inst.validate([0, 2])


def test_brute_force_matches_exhaustive_enumeration():
    rng = seeded_rng(21)
    for _ in range(5):
        sizes = rng.uniform(0.15, 0.65, size=6)
        inst = BinPackingInstance(sizes)
        count, assignment = brute_force_packing(inst)
        assert count == _exhaustive_min_bins(inst)
        loads = inst.loads(assignment)
        assert np.all(loads <= 1.0 + 1e-9)
        assert _bins_used(assignment.tolist()) == count


def test_brute_force_refuses_large_instances():
    with pytest.raises(ValidationError):
        brute_force_packing(BinPackingInstance([0.1] * 13))


def test_pack10_oracle_is_proven_optimal():
    stored = json.loads((FIXTURES / "pack10.oracle.json").read_text())
    inst = BinPackingInstance(
        [44.0, 29.0, 60.0, 59.0, 20.0, 26.0, 26.0, 25.0, 43.0, 33.0],
        capacity=100.0,
    )
    count, assignment = brute_force_packing(inst)
    assert count == stored["optimum"]
    assert assignment.tolist() == stored["assignment"]
    # certificate: total size forces >= ceil(3.65) bins, and the stored
    # assignment realizes that bound
    assert count == int(np.ceil(inst.sizes.sum()))
    loads = inst.loads(np.array(stored["assignment"]))
    assert np.all(loads <= 1.0 + 1e-9)
    assert _bins_used(stored["assignment"]) == stored["optimum"]


def test_neighbors_cover_relocations_and_swaps():
    inst = BinPackingInstance([0.3, 0.3, 0.3])
    a = np.array([0, 0, 1])
    hood = inst.neighbors(a)
    labels = [hood.label(k) for k in range(len(hood))]
    assert {label[0] for label in labels} == {"relocate", "swap"}
    for neighbor in map(hood.row, range(len(hood))):
        assert neighbor.tolist() != a.tolist()
        inst.validate(neighbor)
    # relocations may open exactly one fresh bin
    targets = {label[3] for label in labels if label[0] == "relocate"}
    assert targets == {0, 1, 2}


def test_swap_pairs_are_built_on_the_first_neighbourhood():
    inst = BinPackingInstance(np.full(2000, 0.01))
    assert "_pairs" not in vars(inst)  # 2 x 1,999,000 indices annealing never reads
    small = BinPackingInstance([0.3, 0.4, 0.2])
    small.neighbors(np.array([0, 1, 0]))
    assert [p.tolist() for p in vars(small)["_pairs"]] == [[0, 0, 1], [1, 2, 2]]


def test_sample_neighbor_is_seed_stable():
    inst = BinPackingInstance([0.3, 0.4, 0.2])
    a = np.array([0, 1, 0])
    first = inst.sample_neighbor(a, seeded_rng(3))
    second = inst.sample_neighbor(a, seeded_rng(3))
    assert first.tolist() == second.tolist()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    capacity=st.integers(2, 999),
    crowd=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_moves_along_a_chain_cost_what_they_build(n, capacity, crowd, seed):
    """On whole-number loads each sampled move costs `cost` of the packing
    `apply` builds, bit for bit, and the loads, open-bin count and overflow
    carried along the chain are those a fresh sum gives."""
    rng = seeded_rng(seed)
    problem = BinPackingInstance(rng.integers(1, capacity + 1, size=n), capacity=capacity)
    assert problem.whole
    x = rng.integers(0, max(1, n // crowd), size=n)  # crowded: many bins overflow
    f = problem.cost(x)
    for _ in range(60):
        move = problem.sample_move(x, rng)
        value = problem.move_cost(x, f, move)
        y = problem.apply(x, move)
        assert value.hex() == problem.cost(y).hex()
        loads, open_bins, overflow = problem._summed(y)
        assert problem._state(y)[1:] == (loads.tolist(), open_bins, overflow)
        step = rng.random()
        if step < 0.2:  # built once to be checked, then again when the search keeps it
            y = problem.apply(x, move)
        if step < 0.7:
            x, f = y, value


def _checked_step(problem, solution, rng):
    """One sampled move from `solution`; its cost must be that of the packing it builds."""
    move = problem.sample_move(solution, rng)
    value = problem.move_cost(solution, problem.cost(np.asarray(solution)), move)
    built = problem.apply(solution, move)
    assert value.hex() == problem.cost(built).hex()
    return built


@pytest.mark.parametrize("seed", range(10))
def test_the_memo_is_never_stale_for_lists_copies_or_two_chains(seed):
    rng = seeded_rng(seed)
    problem = BinPackingInstance(rng.integers(20, 80, size=12), capacity=100)
    x, z = rng.integers(0, 4, size=12), rng.integers(0, 4, size=12)
    for step in range(60):
        x = _checked_step(problem, x, rng)  # two chains interleaved on one instance
        z = _checked_step(problem, z, rng)
        if step % 3 == 1:
            x = x.tolist()
        elif step % 3 == 2:
            x = x.copy()
            x[int(rng.integers(12))] = int(rng.integers(12))  # a copy, then changed


def test_a_packing_apply_builds_is_read_only_and_a_writeable_one_is_summed_afresh():
    """Moves are (item, other, source, target, shift); the memo trusts only
    the read-only arrays `apply` builds, and a move's price only on the
    packing it was priced on."""
    problem = BinPackingInstance([60, 50, 40, 30], capacity=100)
    x = problem.apply(np.array([0, 0, 1, 1]), (3, None, 1, 2, 30.0))
    x = problem.apply(x, (3, None, 2, 1, 30.0))  # loads 110 and 70, held by the memo
    with pytest.raises(ValueError):
        x[0] = 3
    relocate = (0, None, 0, 1, 60.0)
    assert problem.move_cost(x, problem.cost(x), relocate) == 2.0 + problem.penalty * 0.3
    alone = problem.apply(np.array([0, 1, 2, 3]), relocate)  # the priced move, elsewhere
    back = (0, None, 1, 0, 60.0)
    assert problem.move_cost(alone, problem.cost(alone), back) == 4.0
    x = problem.apply(x, (3, None, 1, 2, 30.0))  # held again: loads 110, 40 and 30
    x.flags.writeable = True
    x[:] = [0, 1, 2, 3]  # every item alone: the held loads no longer describe x
    value = problem.move_cost(x, problem.cost(x), relocate)
    assert value == problem.cost(np.array([1, 1, 2, 3])) == 3.0 + problem.penalty * 0.1
    assert problem.apply(x, relocate).tolist() == [1, 1, 2, 3]
