import ast
import json
from functools import partial
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
from stochopt.core import MOVE_TOLERANCE
from stochopt.problems.binpacking import EXACT_TOTAL, FIT_SLACK, first_fit_decreasing

from conftest import FIXTURES, REPO, id_arrays, outcome


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
    """Past a total of 2**53 a float load could round, so the loads become
    fractions, whose neighbourhood costs lie within a window of `cost`."""
    half = EXACT_TOTAL // 2
    at_limit = BinPackingInstance([half, half], capacity=half)
    assert at_limit.whole and at_limit.cap == half
    assert at_limit.cost([0, 0]) == 1.0 + at_limit.penalty
    hood = at_limit.neighbors(np.array([0, 1]))
    assert hood.window == 0.0
    assert hood.costs == [at_limit.cost(hood.row(k)) for k in range(len(hood))]
    past = BinPackingInstance([half, half, 1], capacity=half)
    assert not past.whole and past.cap == 1.0
    hood = past.neighbors(np.array([0, 1, 1]))
    assert hood.window > 0.0
    for k in range(len(hood)):
        assert abs(hood.costs[k] - past.cost(hood.row(k))) <= hood.window


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


def _old_assignment_rules(n, solution):
    """`BinPackingInstance.validate` as it read before it dropped numpy's Python-level wrappers."""
    a = np.asarray(solution)
    if a.ndim != 1 or a.size != n:
        raise EncodingMismatchError(
            f"assignment must map {n} items to bins, got shape {a.shape}"
        )
    if not np.issubdtype(a.dtype, np.integer):
        raise EncodingMismatchError("bin ids must be integers")
    if np.any(a < 0) or np.any(a >= n):
        raise ValidationError(f"bin ids must lie in 0..{n - 1}")
    return a.astype(np.intp)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_validate_keeps_the_old_rules(n, data):
    assignment = data.draw(id_arrays(n))
    want = outcome(partial(_old_assignment_rules, n), assignment)
    assert outcome(BinPackingInstance([0.5] * n).validate, assignment) == want


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
    `apply` builds, bit for bit, and the loads, counts, open-bin count and
    overflow `advance` carries along the chain are those a fresh sum gives."""
    rng = seeded_rng(seed)
    problem = BinPackingInstance(rng.integers(1, capacity + 1, size=n), capacity=capacity)
    assert problem.whole
    x = rng.integers(0, max(1, n // crowd), size=n)  # crowded: many bins overflow
    state, f = problem.chain(x), problem.cost(x)
    for _ in range(60):
        move = problem.sample_move(state, rng)
        value = problem.move_cost(state, f, move)
        y = problem.apply(state, move)
        assert value.hex() == problem.cost(y).hex()
        loads, overflow = problem._summed(y)
        open_bins = int(np.count_nonzero(loads > 0))
        step = rng.random()
        if step < 0.7:
            state = problem.advance(state, move)
            assert state[0].tolist() == y.tolist()
            counts = np.bincount(y, minlength=n).tolist()
            assert state[1:] == (loads.tolist(), counts, open_bins, overflow)
            f = value


def test_a_packing_move_builds_a_fresh_writeable_array():
    """`apply` copies the state's packing once and writes the move into it;
    the state, its loads included, is left as it was."""
    problem = BinPackingInstance([60, 50, 40, 30], capacity=100)
    state = problem.chain([0, 0, 1, 1])
    assert state[1:] == ([110.0, 70.0, 0.0, 0.0], [2, 2, 0, 0], 2, 10.0)
    swap = (0, 3, 0, 1, 30.0)
    built = problem.apply(state, swap)
    assert built.tolist() == [1, 0, 1, 0] and built.flags.writeable
    assert built.dtype == np.intp
    assert not np.shares_memory(built, state[0])
    assert problem.move_cost(state, problem.cost(state[0]), swap) == problem.cost(built) == 2.0
    after = problem.advance(state, swap)
    assert after[0].tolist() == built.tolist()
    assert after[1:] == ([80.0, 100.0, 0.0, 0.0], [2, 2, 0, 0], 2, 0.0)
    assert state[0].typecode == after[0].typecode == np.dtype(np.intp).char
    assert state[0].tolist() == [0, 0, 1, 1]
    assert state[1:] == ([110.0, 70.0, 0.0, 0.0], [2, 2, 0, 0], 2, 10.0)


def _straddling(n, seed, ulps):
    """Items 0 and 1 sum to the capacity plus the slack, 1 + FIT_SLACK * n,
    moved by `ulps` ulps; item 2 shares their bin, so moving it out leaves an
    overflow on the slack that the carried load can round to one side of and
    a fresh sum to the other."""
    rng = seeded_rng(seed)
    first = rng.uniform(0.3, 0.7)
    second = 1.0 + FIT_SLACK * n - first
    for _ in range(abs(ulps)):
        second = np.nextafter(second, np.inf if ulps > 0 else -np.inf)
    sizes = [first, second, rng.uniform(0.05, 0.9), *rng.uniform(0.05, 0.5, size=n - 3)]
    return BinPackingInstance(sizes), np.array([0, 0, 0, *range(1, n - 2)])


STRADDLING = [(seed, ulps) for seed in range(40) for ulps in range(-4, 5)]


def test_a_neighborhood_window_covers_an_overflow_that_straddles_the_slack():
    """A two-load cost whose overflow reads below the slack where a fresh sum
    reads above it (or the other way) is `penalty * slack / cap` off, and the
    window of a fractional neighborhood takes that in."""
    straddles = 0
    for seed, ulps in STRADDLING:
        problem, a = _straddling(6, seed, ulps)
        hood = problem.neighbors(a)
        costs = [problem.cost(hood.row(k)) for k in range(len(hood))]
        rounding = MOVE_TOLERANCE * max(1.0, *costs, *hood.costs)
        for value, full in zip(hood.costs, costs):
            straddles += abs(value - full) > rounding
            assert abs(value - full) <= hood.window
    assert straddles  # the instances do straddle the slack


def test_a_sampled_move_sums_an_overflow_near_the_slack_afresh():
    """Moving item 2 out of the straddling bin: `move_cost` stays within the
    window `Run.evaluate_move` allows, where the cost carried from the two
    loads alone would be `penalty * slack / cap` off."""
    straddles = 0
    for seed, ulps in STRADDLING:
        problem, a = _straddling(6, seed, ulps)
        state, f = problem.chain(a), problem.cost(a)
        for target in range(1, 6):
            move = (2, None, 0, target, problem._sizes[2])
            full = problem.cost(problem.apply(state, move))
            window = MOVE_TOLERANCE * max(1.0, f, full)
            straddles += abs(problem._cost(*problem._moved(state, move)) - full) > window
            assert abs(problem.move_cost(state, f, move) - full) <= window
    assert straddles


def test_only_the_constructor_reads_whole():
    """One packing path: `BinPackingInstance` reads `self.whole` in `__init__`,
    which sets the window and the other allowances for rounding from it, and
    in no other method, so no second path can branch off it again."""
    source = REPO / "src" / "stochopt" / "problems" / "binpacking.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "BinPackingInstance"]
    readers = {
        method.name
        for method in cls.body if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "whole"
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    assert readers == {"__init__"}
