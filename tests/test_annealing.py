import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from stochopt import (
    BinPackingInstance,
    Budget,
    ContinuousLandscape,
    CoolingSchedule,
    Run,
    TspInstance,
    ValidationError,
    cube_fixture,
    cube_state,
    metropolis_accept,
    next_temperature,
    parse_binpacking_file,
    parse_tsp_file,
    seeded_rng,
    simulated_annealing,
)
from stochopt import annealing
from stochopt.annealing import calibrate_t0, rescaled_delta


def test_geometric_schedule():
    s = CoolingSchedule(t0=10.0, rate=0.95)
    assert next_temperature(s, 0) == 10.0
    assert next_temperature(s, 1) == pytest.approx(9.5)
    assert next_temperature(s, 20) == pytest.approx(10.0 * 0.95**20)


def test_linear_schedule_floors():
    s = CoolingSchedule(kind="linear", t0=1.0, decrement=0.4, t_floor=1e-9)
    assert next_temperature(s, 0) == 1.0
    assert next_temperature(s, 1) == pytest.approx(0.6)
    assert next_temperature(s, 5) == 1e-9


def test_schedule_validation():
    with pytest.raises(ValidationError):
        CoolingSchedule(kind="quadratic")
    with pytest.raises(ValidationError):
        CoolingSchedule(t0=-1.0)
    with pytest.raises(ValidationError):
        CoolingSchedule(rate=1.0)
    with pytest.raises(ValidationError):
        CoolingSchedule(kind="linear", decrement=0.0)
    with pytest.raises(ValidationError):
        next_temperature(CoolingSchedule(), 0)  # nothing calibrated


def test_downhill_always_accepted():
    rng = seeded_rng(0)
    assert all(metropolis_accept(-0.5, 1.0, rng) for _ in range(1000))
    assert all(metropolis_accept(0.0, 1.0, rng) for _ in range(1000))


def test_uphill_acceptance_frequency_matches_boltzmann():
    # at delta = T ln 2 the acceptance probability is exactly 1/2
    temperature = 2.0
    delta = temperature * math.log(2.0)
    rng = seeded_rng(42)
    draws = 100_000
    hits = sum(metropolis_accept(delta, temperature, rng) for _ in range(draws))
    freq = hits / draws
    three_se = 3.0 * math.sqrt(0.25 / draws)
    assert abs(freq - 0.5) < three_se


def test_temperature_must_be_positive():
    with pytest.raises(ValidationError):
        metropolis_accept(1.0, 0.0, seeded_rng(0))


def test_rescaled_delta_values():
    # sqrt-energy form: (3-2)^2 - (2-1)^2 = 0
    assert rescaled_delta(4.0, 9.0, 1.0) == pytest.approx(0.0)
    assert rescaled_delta(0.0, 4.0, 0.0) == pytest.approx(4.0)
    with pytest.raises(ValidationError):
        rescaled_delta(-1.0, 1.0, 1.0)


def test_calibration_replays_the_probe_walk(cube):
    run = Run(cube, Budget(200), seed=5, algorithm="probe")
    start, f_start = run.start(cube_state(1, 0, 0))
    t0, last, f_last = calibrate_t0(run, start, f_start)
    assert run.evaluations == 101  # start plus one hundred probes

    replay = seeded_rng(5)
    current = cube_state(1, 0, 0)
    f_current = cube.evaluate(current)
    deltas = []
    for _ in range(100):
        candidate = cube.sample_neighbor(current, replay)
        f_candidate = cube.evaluate(candidate)
        deltas.append(abs(f_candidate - f_current))
        current, f_current = candidate, f_candidate
    assert t0 == pytest.approx(10.0 * np.mean(deltas), rel=1e-12)
    assert last == current
    assert f_last == f_current


def _walk_step_by_step(run, start, f_start):
    """`calibrate_t0` as it walked before its steps were counted as one block:
    draw a step, cost and count it, then draw the next."""
    current, f_current = start, f_start
    total, steps = 0.0, 0
    while steps < annealing.PROBES and not run.finished:
        candidate = run.problem.sample_neighbor(current, run.rng)
        f_candidate = run.evaluate(candidate)
        total += abs(f_candidate - f_current)
        steps += 1
        current, f_current = candidate, f_candidate
    t0 = 10.0 * (total / steps if steps else 0.0)
    return (t0 if t0 > 0 else 1.0), current, f_current


# tours, whole-number and fractional packings, a continuous box and a state graph
WALKED = {
    "eight": parse_tsp_file(FIXTURES / "eight.tsp"),
    "tour50": TspInstance.from_coords(seeded_rng(50).random((50, 2))),
    "pack10": parse_binpacking_file(FIXTURES / "pack10.txt"),
    "pack12": BinPackingInstance(seeded_rng(21).uniform(0.05, 0.7, size=12)),
    "rastrigin3": ContinuousLandscape("multimodal_test", dim=3),
    "cube": cube_fixture(),
}


def _walk(calibrate, problem, budget, seed):
    """What a walk from a random start leaves: its result and the run's count,
    curve and success, then the generator's state."""
    run = Run(problem, budget, seed, "probe")
    start, f_start = run.start()
    with run.scalar_draws():
        t0, last, f_last = calibrate(run, start, f_start)
    outcome = ((t0, problem.freeze(last), f_last), run.evaluations, run.best_curve,
               run.evaluations_to_success)
    return outcome, run.rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(WALKED)),
    budget=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    reach=st.one_of(st.none(), st.integers(1, 150)),
)
def test_the_probe_walk_counted_as_one_block_matches_it_step_by_step(name, budget, seed, reach):
    """Same t0, last step, count, curve and success; the target, when set, is
    the best the untargeted walk has found by evaluation `reach`, so it stops the
    walk at or before it.  Only a target stop leaves the generator elsewhere."""
    problem = WALKED[name]
    target = None
    if reach is not None:
        (_, _, curve, _), _ = _walk(_walk_step_by_step, problem, Budget(budget), seed)
        target = min(f for n, f in curve if n <= reach)
    block, block_state = _walk(calibrate_t0, problem, Budget(budget, target), seed)
    steps, steps_state = _walk(_walk_step_by_step, problem, Budget(budget, target), seed)
    assert block == steps
    if block[3] is None:
        assert block_state == steps_state  # no probe drawn past the budget


def _neumaier(values, start=0):
    """Compensated (Neumaier) summation, what the builtin `sum` of floats does from Python 3.12."""
    total, carry = float(start), 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


def test_calibration_does_not_depend_on_the_builtin_sum(eight, monkeypatch):
    """t0 is 10 x the left-to-right mean of the probe steps on every Python.

    A compensated sum changes 78 of these 100 probe sums on eight.tsp in
    their last bits, and 66 of the t0 values, each moving the whole record.
    """
    def t0s():
        return [simulated_annealing(eight, Budget(150), seed).extras["t0"] for seed in range(100)]

    plain = t0s()
    for seed, t0 in enumerate(plain):
        rng = seeded_rng(seed)
        current = eight.random_solution(rng)
        f_current, total = eight.cost(current), 0.0
        for _ in range(100):
            current = eight.sample_neighbor(current, rng)
            f_candidate = eight.cost(current)
            total += abs(f_candidate - f_current)
            f_current = f_candidate
        assert t0 == 10.0 * (total / 100), seed
    monkeypatch.setattr(annealing, "sum", _neumaier, raising=False)
    assert t0s() == plain


def test_annealing_solves_the_eight_city_fixture(eight, eight_oracle):
    target = eight_oracle["optimum"] * (1.0 + 1e-9)
    rec = simulated_annealing(eight, Budget(10_000, target_fitness=target), seed=0)
    assert rec.status == "target_reached"
    assert rec.best_fitness == pytest.approx(eight_oracle["optimum"], rel=1e-12)
    assert rec.extras["t0"] > 0


def test_annealing_with_explicit_mean_edge_start(eight, eight_oracle):
    mean_edge = float(eight.d[~np.eye(8, dtype=bool)].mean())
    schedule = CoolingSchedule(t0=10.0 * mean_edge, rate=0.95, steps_per_temperature=100)
    target = eight_oracle["optimum"] * (1.0 + 1e-9)
    rec = simulated_annealing(
        eight, Budget(10_000, target_fitness=target), seed=0, schedule=schedule
    )
    assert rec.status == "target_reached"
    assert rec.extras["t0"] == pytest.approx(10.0 * mean_edge)


def test_schedule_exhaustion_freezes_the_run(cube):
    schedule = CoolingSchedule(t0=1.0, max_temperature_steps=2, steps_per_temperature=5)
    rec = simulated_annealing(cube, Budget(1000), seed=0, schedule=schedule)
    assert rec.status == "frozen"
    assert rec.extras["temperature_steps"] == 2
    assert rec.evaluations == 11  # start plus 2 x 5 proposals


def test_uphill_bookkeeping(cube):
    schedule = CoolingSchedule(t0=1e9, rate=0.999, steps_per_temperature=50)
    rec = simulated_annealing(cube, Budget(300), seed=0, schedule=schedule)
    proposed = rec.extras["uphill_proposed"]
    accepted = rec.extras["uphill_accepted"]
    assert proposed > 0
    # at T ~ 1e9 essentially every uphill proposal passes
    assert accepted >= 0.9 * proposed


def test_rescaled_variant_runs_and_validates(eight):
    rec = simulated_annealing(
        eight, Budget(500), seed=0, rescaled=True, alpha=2.0,
        schedule=CoolingSchedule(t0=50.0),
    )
    assert rec.evaluations == 500
    for alpha in (0.0, float("nan"), float("inf"), True, "x"):
        with pytest.raises(ValidationError, match="'alpha'"):
            simulated_annealing(eight, Budget(10), seed=0, rescaled=True, alpha=alpha)
