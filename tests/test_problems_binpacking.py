import json
from itertools import product

import numpy as np
import pytest

from stochopt import (
    BinPackingInstance,
    EncodingMismatchError,
    ValidationError,
    brute_force_packing,
    seeded_rng,
)
from stochopt.problems.binpacking import first_fit_decreasing

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
    for neighbor in hood.solutions:
        assert neighbor.tolist() != a.tolist()
        inst.validate(neighbor)
    # relocations may open exactly one fresh bin
    targets = {label[3] for label in labels if label[0] == "relocate"}
    assert targets == {0, 1, 2}


def test_sample_neighbor_is_seed_stable():
    inst = BinPackingInstance([0.3, 0.4, 0.2])
    a = np.array([0, 1, 0])
    first = inst.sample_neighbor(a, seeded_rng(3))
    second = inst.sample_neighbor(a, seeded_rng(3))
    assert first.tolist() == second.tolist()
