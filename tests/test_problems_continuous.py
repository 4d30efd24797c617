import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    Budget,
    ContinuousLandscape,
    EncodingMismatchError,
    Run,
    UnsupportedOperationError,
    ValidationError,
    hill_climb_first_accept,
    seeded_rng,
    simulated_annealing,
)

from conftest import BOXES


def test_abs_linear_values():
    f = ContinuousLandscape("abs_linear")
    assert f.evaluate([-1.0]) == 0.0
    assert f.evaluate([0.0]) == 1.0
    assert f.evaluate([2.5]) == 3.5
    assert (f.lower[0], f.upper[0]) == (-5.0, 5.0)


def test_abs_linear_ignores_extra_dimensions():
    f = ContinuousLandscape("abs_linear", dim=3)
    assert f.evaluate([-1.0, 4.0, -4.0]) == 0.0


def test_multimodal_test_is_rastrigin():
    f = ContinuousLandscape("multimodal_test", dim=2)
    assert f.evaluate([0.0, 0.0]) == 0.0
    x = np.array([0.5, -1.25])
    expected = 10.0 * 2 + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x))
    assert f.evaluate(x) == pytest.approx(expected, rel=1e-12)
    assert (f.lower[0], f.upper[0]) == (-5.12, 5.12)


def test_clamp_clips_to_the_box():
    f = ContinuousLandscape("abs_linear")
    assert f.clamp(np.array([1.0]))[0] == 1.0
    assert f.clamp(np.array([7.0]))[0] == 5.0
    np.testing.assert_array_equal(f.clamp(np.array([[-9.0], [2.0]])), [[-5.0], [2.0]])
    # evaluation clamps too, so the objective is total on R^d
    assert f.evaluate([100.0]) == f.evaluate([5.0])


@st.composite
def boxed_blocks(draw):
    """A landscape over a few of `BOXES` and an (m, dim) block of points for it:
    coordinates on a bound, at 0.0 or -0.0, or anywhere in and around the box."""
    dim = draw(st.integers(1, 3))
    lower, upper = zip(*draw(st.lists(st.sampled_from(BOXES), min_size=dim, max_size=dim)))
    objective = draw(st.sampled_from(["abs_linear", "multimodal_test"]))
    prob = ContinuousLandscape(objective, dim=dim, bounds=(lower, upper))
    m = draw(st.integers(1, 6))
    coordinate = st.one_of(st.sampled_from(lower + upper + (0.0, -0.0)), st.floats(-8.0, 8.0))
    block = draw(st.lists(coordinate, min_size=m * dim, max_size=m * dim))
    return prob, np.array(block).reshape(m, dim)


def _old_objective(prob, x):
    """The objective as it was written over `np.clip` and `np.sum`."""
    x = np.clip(x, prob.lower, prob.upper)
    if prob.objective == "abs_linear":
        return np.abs(x[..., 0] + 1.0)
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


@settings(max_examples=300, deadline=None)
@given(case=boxed_blocks())
@example(case=(ContinuousLandscape(dim=1, bounds=(0.0, 2.5)), np.array([[-0.0], [0.0]])))
@example(case=(ContinuousLandscape(dim=2, bounds=((-0.0, -2.5), (2.5, 0.0))),
               np.array([[0.0, -0.0], [-0.0, 0.0]])))
def test_the_clamps_equal_np_clip_bit_for_bit(case):
    """`clamp`, and the clamp inside `cost` and `cost_rows`, on one point and on a block."""
    prob, block = case
    for x in (block[0], block):
        want = np.clip(x, prob.lower, prob.upper)
        got = prob.clamp(x)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert got.tobytes() == want.tobytes()
        got, want = np.asarray(prob._objective(x)), np.asarray(_old_objective(prob, x))
        assert got.tobytes() == want.tobytes()
    costs = _old_objective(prob, block).tolist()
    assert prob.cost_rows(block) == [prob.cost(x) for x in block] == costs


@pytest.mark.parametrize("method, points, outside", [
    ("cost", [1.0, -2.0], False),
    ("cost", [5.0, -5.0], False),  # on the box is inside it
    ("cost", [1.0, 5.5], True),
    ("cost_rows", [[1.0, -2.0], [-5.0, 5.0]], False),
    ("cost_rows", [[1.0, -2.0], [-7.0, 0.0]], True),
])
def test_the_clamp_is_logged_at_debug_exactly_when_a_point_lies_outside(
    caplog, method, points, outside
):
    prob = ContinuousLandscape("abs_linear", dim=2)
    logged = []
    for level in (logging.DEBUG, logging.INFO):
        caplog.clear()
        with caplog.at_level(level, logger="stochopt.problems.continuous"):
            getattr(prob, method)(np.array(points))
        logged.append("clamped before evaluation" in caplog.text)
    assert logged == [outside, False]


def test_validation_and_unsupported_enumeration():
    f = ContinuousLandscape("abs_linear", dim=2)
    with pytest.raises(EncodingMismatchError):
        f.validate([1.0])
    with pytest.raises(UnsupportedOperationError):
        f.neighbors(np.zeros(2))
    with pytest.raises(ValidationError):
        ContinuousLandscape("parabola")
    with pytest.raises(ValidationError):
        ContinuousLandscape("abs_linear", bounds=(3.0, 3.0))
    for bounds in (5, [1.0, 2.0, 3.0], ["a", "b"], [np.nan, 1.0], [-1.0, np.inf]):
        with pytest.raises(ValidationError, match="'bounds'"):
            ContinuousLandscape("abs_linear", bounds=bounds)
    for radius in ("x", np.nan, [0.1, 0.2]):
        with pytest.raises(ValidationError, match="'neighbor_radius'"):
            ContinuousLandscape("abs_linear", neighbor_radius=radius)
    for dim in (2.5, True, np.nan, "2"):
        with pytest.raises(ValidationError, match="'dim'"):
            ContinuousLandscape("abs_linear", dim=dim)


@pytest.mark.parametrize("point, where", [
    ([np.nan, 0.0], r"x\[0\] = nan"),
    ([np.inf, 0.0], r"x\[0\] = inf"),
    ([0.0, -np.inf], r"x\[1\] = -inf"),
], ids=["nan", "inf", "minus-inf"])
def test_a_point_that_is_not_finite_is_refused(monkeypatch, point, where):
    f = ContinuousLandscape("abs_linear", dim=2)
    with pytest.raises(ValidationError, match=rf"must be finite; {where}"):
        f.evaluate(point)
    monkeypatch.setattr(Run, "evaluate", lambda *a: pytest.fail("an evaluation ran"))
    for search in (hill_climb_first_accept, simulated_annealing):
        with pytest.raises(ValidationError, match=rf"must be finite; {where}"):
            search(f, Budget(200), 0, start=point)


def test_random_solutions_fill_the_box():
    f = ContinuousLandscape("abs_linear", dim=4)
    rng = seeded_rng(2)
    pts = np.array([f.random_solution(rng) for _ in range(200)])
    assert np.all(pts >= f.lower) and np.all(pts <= f.upper)
    assert pts.min() < -4.0 and pts.max() > 4.0


def test_sampled_neighbors_stay_in_bounds_and_nearby():
    f = ContinuousLandscape("abs_linear", dim=2)
    rng = seeded_rng(4)
    x = np.array([4.9, -4.9])
    for _ in range(50):
        y = f.sample_neighbor(x, rng)
        assert np.all(y >= f.lower) and np.all(y <= f.upper)
        # default radius is 5% of the 10-wide box
        assert np.all(np.abs(y - x) <= 0.5 + 1e-12)


def test_landscape_value_matches_evaluate():
    f = ContinuousLandscape("multimodal_test", dim=3)
    x = np.array([0.1, -0.2, 0.3])
    rastrigin = 10.0 * 3 + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)
    assert f.evaluate(x) == pytest.approx(rastrigin, rel=1e-12)
