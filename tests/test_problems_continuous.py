import math

import numpy as np
import pytest

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


def test_clamp_reports_and_clips():
    f = ContinuousLandscape("abs_linear")
    inside, hit = f.clamp(np.array([1.0]))
    assert not hit
    assert inside[0] == 1.0
    outside, hit = f.clamp(np.array([7.0]))
    assert hit
    assert outside[0] == 5.0
    # evaluation clamps too, so the objective is total on R^d
    assert f.evaluate([100.0]) == f.evaluate([5.0])


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
