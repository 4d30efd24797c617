import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    Budget,
    ContinuousLandscape,
    Run,
    SwarmConfig,
    UnsupportedOperationError,
    ValidationError,
    pso_run,
    seeded_rng,
)
from stochopt.swarm import step_swarm, update_velocity

from conftest import BOXES


def _rows(*rows):
    return np.asarray(rows, dtype=float)


def test_velocity_rule_matches_hand_formula():
    cfg = SwarmConfig(size=2, p_increment=2.0, g_increment=3.0)
    pos = _rows([1.0, -2.0], [0.0, 3.0])
    veloc = _rows([0.5, 0.5], [-1.0, 0.0])
    p_best = _rows([2.0, 0.0], [1.0, 1.0])
    g_pos = np.array([0.0, 4.0])

    probe = seeded_rng(5)  # each particle draws r1, then r2, in index order
    want = []
    for i in range(2):
        r1 = probe.random(2)
        r2 = probe.random(2)
        want.append(veloc[i] + 2.0 * r1 * (p_best[i] - pos[i]) + 3.0 * r2 * (g_pos - pos[i]))

    got = update_velocity(pos, veloc, p_best, g_pos, cfg, seeded_rng(5))
    np.testing.assert_array_equal(got, want)


def test_velocity_is_clipped_to_vmax():
    cfg = SwarmConfig(size=1, p_increment=50.0, g_increment=50.0, vmax=0.5)
    for seed in range(10):
        v = update_velocity(_rows([0.0]), _rows([0.0]), _rows([4.0]), np.array([-4.0]), cfg,
                            seeded_rng(seed))
        assert abs(v[0, 0]) <= 0.5


def test_inertia_scales_the_carried_velocity():
    cfg = SwarmConfig(size=1, p_increment=0.0, g_increment=0.0, inertia=0.25)
    v = update_velocity(_rows([0.0, 0.0]), _rows([2.0, -8.0]), _rows([0.0, 0.0]), np.zeros(2),
                        cfg, seeded_rng(0))
    np.testing.assert_array_equal(v, [[0.5, -2.0]])


def test_step_swarm_counts_clamped_moves():
    prob = ContinuousLandscape("abs_linear", dim=2)
    cfg = SwarmConfig(size=2, p_increment=0.0, g_increment=0.0)
    # a runaway particle, out on both axes, and a docile one; personal bests 5.0 and 1.0
    pos, veloc = _rows([4.0, 4.0], [0.0, 0.0]), _rows([10.0, -10.0], [0.1, 0.1])
    p_best, p_best_val = _rows([4.0, 4.0], [0.0, 0.0]), np.array([5.0, 1.0])
    pos, veloc, g_pos, g_val, clamped = step_swarm(
        pos, veloc, p_best, p_best_val, np.zeros(2), 1.0, cfg, Run(prob, Budget(2), 0, "pso"),
    )
    assert clamped == 1  # particles, not coordinates
    np.testing.assert_array_equal(pos[0], [5.0, -5.0])  # pinned to the box
    assert pos[1, 0] == pytest.approx(0.1)
    # neither landing beat its personal best, so the swarm best stands
    np.testing.assert_array_equal(p_best_val, [5.0, 1.0])
    assert g_val == 1.0


def test_ties_keep_the_standing_bests():
    # abs_linear ignores x[1], so each landing costs exactly its personal best
    prob = ContinuousLandscape("abs_linear", dim=2)
    cfg = SwarmConfig(size=2, p_increment=0.0, g_increment=0.0)
    pos, veloc = _rows([0.0, 0.0], [1.0, 0.0]), np.zeros((2, 2))
    p_best, p_best_val = _rows([0.0, 3.0], [1.0, -3.0]), np.array([1.0, 2.0])
    g_pos = np.array([-2.0, 4.0])
    _, _, g_pos, g_val, _ = step_swarm(
        pos, veloc, p_best, p_best_val, g_pos, 1.0, cfg, Run(prob, Budget(2), 0, "pso"),
    )
    np.testing.assert_array_equal(p_best, [[0.0, 3.0], [1.0, -3.0]])
    np.testing.assert_array_equal(g_pos, [-2.0, 4.0])
    assert g_val == 1.0


@st.composite
def sweep_cases(draw):
    """A swarm state on a landscape whose bounds may be 0.0 or -0.0, and a rule
    for it: coordinates and velocities at 0.0, -0.0, a bound, or anywhere
    about the box, and increments of zero, some or many box widths."""
    size, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    lower, upper = zip(*draw(st.lists(st.sampled_from(BOXES), min_size=dim, max_size=dim)))
    prob = ContinuousLandscape("abs_linear", dim=dim, bounds=(lower, upper))
    value = st.one_of(st.sampled_from(lower + upper + (0.0, -0.0)), st.floats(-8.0, 8.0))
    pos, veloc, p_best = (
        np.array(draw(st.lists(value, min_size=size * dim, max_size=size * dim))).reshape(size, dim)
        for _ in range(3)
    )
    g_pos = np.array(draw(st.lists(value, min_size=dim, max_size=dim)))
    increment = st.sampled_from([0.0, 0.5, 2.0, 50.0])
    cfg = SwarmConfig(size=size, p_increment=draw(increment), g_increment=draw(increment),
                      vmax=draw(st.sampled_from([None, 0.25, 3.0])),
                      inertia=draw(st.sampled_from([None, 0.5, -1.0])))
    return prob, pos, veloc, p_best, g_pos, cfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=sweep_cases())
@example(case=(  # zero increments pull by -0.0 toward lower bests: moved lands on -0.0 at a 0.0 bound
    ContinuousLandscape(dim=1, bounds=(0.0, 2.5)), np.full((2, 1), -0.0), np.full((2, 1), -0.0),
    np.full((2, 1), -1.0), np.array([-1.0]),
    SwarmConfig(size=2, p_increment=0.0, g_increment=0.0), 0,
))
def test_the_sweep_clamps_equal_np_clip_bit_for_bit(case):
    """`update_velocity`'s vmax clip and `step_swarm`'s clamp of the moved positions."""
    prob, pos, veloc, p_best, g_pos, cfg, seed = case
    free = update_velocity(pos, veloc, p_best, g_pos, replace(cfg, vmax=None), seeded_rng(seed))
    v = update_velocity(pos, veloc, p_best, g_pos, cfg, seeded_rng(seed))
    want = free if cfg.vmax is None else np.clip(free, -cfg.vmax, cfg.vmax)
    np.testing.assert_array_equal(np.signbit(v), np.signbit(want))
    assert v.tobytes() == want.tobytes()

    run = Run(prob, Budget(100), seed, "pso")
    p_best_val = np.full(len(pos), np.inf)
    moved_pos, v, *_, clamped = step_swarm(
        pos, veloc, p_best.copy(), p_best_val, g_pos, np.inf, cfg, run,
    )
    assert v.tobytes() == want.tobytes()
    moved = pos + v
    want = np.clip(moved, prob.lower, prob.upper)
    np.testing.assert_array_equal(np.signbit(moved_pos), np.signbit(want))
    assert moved_pos.tobytes() == want.tobytes()
    assert clamped == np.count_nonzero(np.any(want != moved, axis=1))


def _replay(prob, size, budget, seed, inertia=None, vmax=None):
    """The swarm by hand, one particle at a time: the reference draw order.

    No particle is evaluated once the run has finished, by budget or by
    target; a sweep cut short still counts, with the swarm best it found.
    """
    dim = prob.dim
    rng = seeded_rng(seed)
    lo, span = prob.lower, prob.upper - prob.lower
    vmax = float(span.max()) / 2.0 if vmax is None else vmax
    keep = 1.0 if inertia is None else inertia
    pos, vel = [], []
    for _ in range(size):
        pos.append(lo + rng.random(dim) * span)
        vel.append((rng.random(dim) * 2.0 - 1.0) * span / 10.0)
    pb_pos = [p.copy() for p in pos]
    pb_val = [float("inf")] * size
    g_val, g_pos = float("inf"), pos[0].copy()
    out = {"evaluations": 0, "best": float("inf"), "hit": None,
           "curve": [], "sweeps": 0, "clamped": 0, "vmax": vmax}

    def finished():
        return out["evaluations"] == budget.max_evaluations or out["hit"] is not None

    def evaluate(x):
        val = prob.evaluate(x)
        out["evaluations"] += 1
        out["best"] = min(out["best"], val)
        target = budget.target_fitness
        if out["hit"] is None and target is not None and out["best"] <= target:
            out["hit"] = out["evaluations"]
        return val

    for i in range(size):
        if finished():
            break
        val = evaluate(pos[i])
        if val < pb_val[i]:
            pb_val[i], pb_pos[i] = val, pos[i].copy()
        if val < g_val:
            g_val, g_pos = val, pos[i].copy()
    out["curve"].append(g_val)
    while not finished():
        anchor = g_pos
        nxt = []
        for i in range(size):
            r1 = rng.random(dim)
            r2 = rng.random(dim)
            v = keep * vel[i] + 2.0 * r1 * (pb_pos[i] - pos[i]) + 2.0 * r2 * (anchor - pos[i])
            nxt.append(np.clip(v, -vmax, vmax))
        vel = nxt
        for i in range(size):
            if finished():
                break  # the particles left are neither evaluated nor counted as clamped
            moved = pos[i] + vel[i]
            pos[i] = prob.clamp(moved)
            out["clamped"] += bool(np.any(pos[i] != moved))
            val = evaluate(pos[i])
            if val < pb_val[i]:
                pb_val[i], pb_pos[i] = val, pos[i].copy()
        for i in range(size):
            if pb_val[i] < g_val:
                g_val, g_pos = pb_val[i], pb_pos[i].copy()
        out["sweeps"] += 1
        out["curve"].append(g_val)
    return out


@pytest.mark.parametrize(
    "budget, cfg",
    [
        pytest.param(Budget(12), SwarmConfig(size=4), id="two-full-sweeps"),
        pytest.param(Budget(30), SwarmConfig(size=4), id="budget-mid-sweep"),
        pytest.param(Budget(400, target_fitness=0.3), SwarmConfig(size=4),
                     id="target-mid-sweep"),
        pytest.param(Budget(40), SwarmConfig(size=4, inertia=0.6), id="inertia"),
        pytest.param(Budget(40), SwarmConfig(size=4, vmax=0.3), id="explicit-vmax"),
    ],
)
def test_pso_run_matches_manual_replay(budget, cfg):
    prob = ContinuousLandscape("abs_linear", dim=2)
    rec = pso_run(prob, budget, seed=3, cfg=cfg)
    want = _replay(prob, cfg.size, budget, 3, inertia=cfg.inertia, vmax=cfg.vmax)

    assert rec.evaluations == want["evaluations"]
    assert rec.evaluations_to_success == want["hit"]
    assert rec.extras["sweeps"] == want["sweeps"]
    assert rec.extras["clamped_moves"] == want["clamped"]
    assert rec.extras["vmax"] == want["vmax"]
    assert rec.best_fitness == want["best"]
    assert rec.extras["gbest_curve"] == want["curve"]
    assert prob.evaluate(np.asarray(rec.best_solution)) == rec.best_fitness


def test_replay_cases_cover_what_they_name():
    prob = ContinuousLandscape("abs_linear", dim=2)
    assert pso_run(prob, Budget(12), 3, SwarmConfig(size=4)).extras["vmax"] == 5.0
    cut = _replay(prob, 4, Budget(30), 3)
    assert cut["evaluations"] == 30 and cut["sweeps"] == 7  # the seventh sweep is cut short
    assert len(cut["curve"]) == 8
    hit = _replay(prob, 4, Budget(400, target_fitness=0.3), 3)
    assert hit["hit"] % 4 != 0  # the target falls mid-sweep ...
    assert hit["evaluations"] == hit["hit"]  # ... and the run ends there
    assert cut["clamped"] > 0


def test_pso_needs_a_continuous_landscape(cube):
    with pytest.raises(UnsupportedOperationError):
        pso_run(cube, Budget(10), seed=0)


def test_pso_finds_the_line_minimum():
    prob = ContinuousLandscape("abs_linear")
    rec = pso_run(prob, Budget(3000), seed=0)
    assert rec.best_fitness <= 1e-2
    assert abs(rec.best_solution[0] + 1.0) <= 1e-2
    curve = rec.extras["gbest_curve"]
    assert len(curve) == rec.extras["sweeps"] + 1
    assert all(b <= a for a, b in zip(curve, curve[1:]))


def test_pso_respects_explicit_vmax():
    prob = ContinuousLandscape("abs_linear")
    cfg = SwarmConfig(size=5, vmax=0.5)
    rec = pso_run(prob, Budget(50), seed=1, cfg=cfg)
    assert rec.extras["vmax"] == 0.5


def test_pso_runs_are_reproducible():
    prob = ContinuousLandscape("multimodal_test", dim=3)
    a = pso_run(prob, Budget(400), seed=11)
    b = pso_run(prob, Budget(400), seed=11)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    c = pso_run(prob, Budget(400), seed=12)
    assert c.best_curve != a.best_curve


def test_swarm_config_validation():
    with pytest.raises(ValidationError):
        SwarmConfig(size=0)
    with pytest.raises(ValidationError):
        SwarmConfig(p_increment=-1.0)
    with pytest.raises(ValidationError):
        SwarmConfig(vmax=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["p_increment", "g_increment", "vmax", "inertia"])
def test_swarm_config_refuses_non_finite_settings(field, value):
    with pytest.raises(ValidationError, match=f"'{field}' must be finite"):
        SwarmConfig(**{field: value})
