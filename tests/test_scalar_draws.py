"""`ScalarDraws` against numpy's own `Generator`, and its hand-back in searchers.

The decoder must give every value numpy would, leave the bit generator in
the state numpy's calls would have left, and hand it back before any
other call.  Annealing and first-accept hill climbing decode their draws
through `Run.scalar_draws`; on every way out of their loops, `run.rng`
must be the numpy generator again, in the state a run drawing every
value from numpy leaves.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from stochopt import (
    BinPackingInstance,
    Budget,
    CoolingSchedule,
    NoNeighborError,
    hill_climb_first_accept,
    parse_tsp_file,
    seeded_rng,
    simulated_annealing,
)
from stochopt.core import Run, ScalarDraws

# an integers(m) bound, or None for random(); the edges are where
# numpy's bounded draw changes path (no draw, rejection, the raw half)
BOUND = st.one_of(
    st.sampled_from([1, 2, 3, 22, 2**31, 2**31 + 1, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)
DRAWS = st.lists(st.one_of(st.none(), BOUND), max_size=700)  # 700 crosses a 256-word read

# calls the decoder does not decode, each with a value to compare
OTHER = {
    "permutation": lambda g: g.permutation(9).tolist(),
    "uniform": lambda g: g.uniform(-1.0, 1.0),
    "integers-size": lambda g: g.integers(0, 50, size=4).tolist(),
    "integers-low-high": lambda g: int(g.integers(3, 2**40)),
}


def _pair(seed: int, primed: bool):
    """Two generators in one state; primed ones hold a buffered 32-bit half."""
    pair = seeded_rng(seed), seeded_rng(seed)
    if primed:
        for g in pair:
            g.integers(2**32)  # one 32-bit draw: the word's high half waits in the buffer
        assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


def _draw(rng, bound):
    return rng.random() if bound is None else rng.integers(bound)


def _assert_same_state(generator, reference):
    assert generator.bit_generator.state == reference.bit_generator.state
    assert generator.permutation(20).tolist() == reference.permutation(20).tolist()


# seed 0 primed buffers a half that 2**31 + 1 rejects (see the test below)
PRIMED_REJECTION = dict(seed=0, primed=True, draws=[2**31 + 1, None, 2**31 + 1])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), primed=st.booleans(), draws=DRAWS)
@example(**PRIMED_REJECTION)
def test_decoded_draws_match_numpy_and_hand_back_its_state(seed, primed, draws):
    reference, generator = _pair(seed, primed)
    decoder = ScalarDraws(generator)
    for bound in draws:
        assert _draw(decoder, bound) == _draw(reference, bound)
    decoder.close()
    assert generator.bit_generator.state == reference.bit_generator.state
    for bound in (7, None, 2**32, 1):  # a closed decoder's draws come from numpy
        assert _draw(decoder, bound) == _draw(reference, bound)
    _assert_same_state(generator, reference)


def test_the_primed_example_rejects_its_buffered_half():
    """Its first draw redraws after the buffered half, whatever else hypothesis tries."""
    generator, _ = _pair(PRIMED_REJECTION["seed"], PRIMED_REJECTION["primed"])
    m = PRIMED_REJECTION["draws"][0]
    assert (generator.bit_generator.state["uinteger"] * m) % 2**32 < (2**32 - m) % m


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    primed=st.booleans(),
    before=DRAWS,
    call=st.sampled_from(sorted(OTHER)),
    after=st.lists(st.one_of(st.none(), BOUND), max_size=40),
)
def test_any_other_call_hands_back_first(seed, primed, before, call, after):
    reference, generator = _pair(seed, primed)
    decoder = ScalarDraws(generator)
    for bound in before:
        assert _draw(decoder, bound) == _draw(reference, bound)
    assert OTHER[call](decoder) == OTHER[call](reference)
    for bound in after:
        assert _draw(decoder, bound) == _draw(reference, bound)
    assert OTHER[call](decoder) == OTHER[call](reference)
    _assert_same_state(generator, reference)


def test_a_bound_numpy_refuses_is_refused_by_numpy():
    reference, generator = _pair(0, primed=True)
    decoder = ScalarDraws(generator)
    assert decoder.random() == reference.random()
    with pytest.raises(ValueError):
        decoder.integers(0)
    _assert_same_state(generator, reference)


class DeadEnd(BinPackingInstance):
    """A packing whose proposal after `moves` others finds no move."""

    def __init__(self, sizes, moves: int):
        super().__init__(sizes)
        self.moves = moves

    def sample_move(self, state, rng):
        self.moves -= 1
        if self.moves < 0:
            raise NoNeighborError("no move left")
        return super().sample_move(state, rng)


EIGHT = parse_tsp_file(FIXTURES / "eight.tsp")
SIZES = seeded_rng(21).uniform(0.05, 0.7, size=12)

# exit: (status the run ends with, the search); DeadEnd is built per run
EXITS = {
    "sa-budget": ("budget_exhausted", lambda: simulated_annealing(EIGHT, Budget(3000), 0)),
    "sa-target": (
        "target_reached",
        lambda: simulated_annealing(EIGHT, Budget(10000, 242.46491759376055), 9),
    ),
    "sa-max-temperature-steps": (
        "frozen",
        lambda: simulated_annealing(
            EIGHT, Budget(3000), 1,
            CoolingSchedule(t0=300.0, steps_per_temperature=37, max_temperature_steps=5),
        ),
    ),
    "sa-underflow": (
        "frozen",
        lambda: simulated_annealing(
            EIGHT, Budget(3000), 2, CoolingSchedule(t0=300.0, rate=1e-200, steps_per_temperature=41)
        ),
    ),
    "sa-no-neighbour": (
        NoNeighborError, lambda: simulated_annealing(DeadEnd(SIZES, 333), Budget(3000), 3)
    ),
    "first-accept-budget": (
        "budget_exhausted",
        lambda: hill_climb_first_accept(BinPackingInstance(SIZES), Budget(2000), 4),
    ),
    "first-accept-target": (
        "target_reached",
        lambda: hill_climb_first_accept(EIGHT, Budget(10000, 242.46491759376055), 5),
    ),
    "first-accept-no-neighbour": (
        NoNeighborError, lambda: hill_climb_first_accept(DeadEnd(SIZES, 555), Budget(3000), 6)
    ),
}


def _finish(search, draws, monkeypatch):
    """Run `search` with `Run.scalar_draws` as `draws`; the record (or error) and the run."""
    runs = []

    def opened(run):
        runs.append((run, run.rng.bit_generator.state))
        return draws(run)

    monkeypatch.setattr(Run, "scalar_draws", opened)
    try:
        outcome = search().to_dict()
    except NoNeighborError as error:
        outcome = type(error)
    ((run, opening),) = runs
    assert run.rng.bit_generator.state != opening  # the block drew
    return outcome, run


@pytest.mark.parametrize("name", sorted(EXITS))
def test_every_exit_hands_the_generator_back(name, monkeypatch):
    expected, search = EXITS[name]
    decoding = Run.scalar_draws
    outcome, run = _finish(search, decoding, monkeypatch)
    plain, numpy_run = _finish(search, lambda run: nullcontext(), monkeypatch)
    assert outcome == plain
    assert (outcome if expected is NoNeighborError else outcome["status"]) == expected
    assert type(run.rng) is np.random.Generator
    _assert_same_state(run.rng, numpy_run.rng)
