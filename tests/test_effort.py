import math
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    Budget,
    ComplexityClass,
    EffortUndefinedError,
    EnsembleStats,
    RunRecord,
    TabuConfig,
    ValidationError,
    computational_effort,
    cube_fixture,
    cumulative_success,
    effort_steps,
    nfl_comparison,
    random_search,
    runtime_projection,
    tabu_search,
)
from stochopt.effort import Magnitude, _runs_needed


def _record(success_at=None, evaluations=100, best=0.0, algorithm="demo",
            curve=()):
    return RunRecord(
        algorithm=algorithm,
        seed=0,
        status="target_reached" if success_at else "budget_exhausted",
        evaluations=evaluations,
        best_fitness=best,
        best_solution=None,
        best_curve=tuple(curve),
        evaluations_to_success=success_at,
    )


def _dense(e, z):
    """[(n, I(n, z))] for every n in 1..budget with P(n) > 0, read from `cumulative_success`."""
    return [(n, n * _runs_needed(cumulative_success(e, n), z))
            for n in range(1, e.budget + 1) if cumulative_success(e, n) > 0]


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        EnsembleStats(records=(), budget=10)
    with pytest.raises(ValidationError):
        EnsembleStats(records=(_record(1),), budget=0)
    with pytest.raises(ValidationError):
        EnsembleStats(records=(_record(1), _record(1, algorithm="other")), budget=10)


def test_success_times_from_recorded_bookkeeping():
    e = EnsembleStats(records=(_record(7), _record(None), _record(3)), budget=10)
    assert e.success_times() == [3, 7]
    assert cumulative_success(e, 2) == 0.0
    assert cumulative_success(e, 3) == pytest.approx(1 / 3)
    assert cumulative_success(e, 10) == pytest.approx(2 / 3)
    with pytest.raises(ValidationError):
        cumulative_success(e, 0)
    for bad in ("3", 2.5, True):
        with pytest.raises(ValidationError, match="'n' must be a whole number"):
            cumulative_success(e, bad)
    assert cumulative_success(e, 3.0) == pytest.approx(1 / 3)  # a whole float reads as its int


def test_success_times_rederived_from_curves():
    rec = _record(None, evaluations=6, best=2.0, curve=[(1, 5.0), (4, 2.0)])
    e = EnsembleStats(records=(rec,), budget=6, threshold=2.5)
    assert e.success_times() == [4]
    loose = EnsembleStats(records=(rec,), budget=6, threshold=5.0)
    assert loose.success_times() == [1]
    strict = EnsembleStats(records=(rec,), budget=6, threshold=1.0)
    assert strict.success_times() == []


def test_half_chance_at_budget_costs_seven_restarts():
    # one success in two runs, only at the full budget of 100:
    # ceil(ln .01 / ln .5) = 7 restarts of length 100
    e = EnsembleStats(records=(_record(100), _record(None)), budget=100)
    assert effort_steps(e, 0.99) == _dense(e, 0.99) == [(100, 700)]
    assert computational_effort(e, 0.99) == (100, 700)


def test_integer_ratio_is_not_bumped_by_float_noise():
    # nine of ten succeed immediately: ln .01 / ln .1 is exactly 2
    records = tuple(_record(1) for _ in range(9)) + (_record(None),)
    e = EnsembleStats(records=records, budget=1)
    assert effort_steps(e, 0.99) == _dense(e, 0.99) == [(1, 2)]


def test_effort_hand_checked_ensemble():
    records = tuple(_record(t, evaluations=10) for t in (3, 5, 5, 9))
    e = EnsembleStats(records=records, budget=10)
    want = [(3, 27), (4, 36), (5, 10), (6, 12), (7, 14), (8, 16), (9, 9), (10, 10)]
    assert _dense(e, 0.9) == want
    assert effort_steps(e, 0.9) == [(3, 27), (5, 10), (9, 9)]
    assert computational_effort(e, 0.9) == (9, 9)


def test_effort_on_geometric_ensemble():
    # success counts halve with each extra evaluation: P(n) = 1 - 2^-n
    records = []
    for n in range(1, 11):
        records.extend(_record(n, evaluations=10) for _ in range(2 ** (10 - n)))
    records.append(_record(None, evaluations=10))
    e = EnsembleStats(records=tuple(records), budget=10)
    assert len(records) == 1024

    curve = effort_steps(e, 0.99)  # every n in 1..10 is a success time
    c = math.log(0.01)
    want = [(n, n * math.ceil(round(c / math.log(2.0**-n), 12))) for n in range(1, 11)]
    assert curve == _dense(e, 0.99) == want
    assert [i for _, i in curve] == [7, 8, 9, 8, 10, 12, 7, 8, 9, 10]
    assert computational_effort(e, 0.99) == (1, 7)


def test_effort_error_cases():
    e = EnsembleStats(records=(_record(None),), budget=10)
    with pytest.raises(EffortUndefinedError):
        effort_steps(e, 0.99)
    ok = EnsembleStats(records=(_record(1),), budget=10)
    with pytest.raises(ValidationError):
        effort_steps(ok, 0.0)
    with pytest.raises(ValidationError):
        effort_steps(ok, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(st.one_of(st.none(), st.integers(1, 40)), min_size=1, max_size=30),
    budget=st.integers(1, 30),
    z=st.floats(0.01, 0.999),
)
def test_effort_at_success_times_matches_the_dense_curve(times, budget, z):
    e = EnsembleStats(records=tuple(_record(t) for t in times), budget=budget)
    dense = _dense(e, z)
    if not dense:  # no success, or none within the budget
        with pytest.raises(EffortUndefinedError):
            effort_steps(e, z)
        with pytest.raises(EffortUndefinedError):
            computational_effort(e, z)
        return
    assert computational_effort(e, z) == min(dense, key=lambda step: step[1])
    hit = set(e.success_times())
    assert effort_steps(e, z) == [(n, i) for n, i in dense if n in hit]


def test_complexity_operation_counts():
    assert ComplexityClass("poly", 2).operations(20) == 400
    assert ComplexityClass("poly", 5).operations(18) == 18**5
    assert ComplexityClass("poly", 2.5).operations(4) == pytest.approx(32.0)
    assert ComplexityClass("exp", 2).operations(30) == 2**30
    assert ComplexityClass("exp", 5).operations(20) == 5**20
    assert ComplexityClass("factorial").operations(12) == math.factorial(12)
    assert ComplexityClass("tsp_factorial").operations(20) == math.factorial(19) // 2
    for n in (1, 2):
        assert ComplexityClass("tsp_factorial").operations(n) == 1
    assert ComplexityClass("tsp_factorial").operations(3) == 1
    assert ComplexityClass("tsp_factorial").operations(4) == 3
    with pytest.raises(ValidationError):
        ComplexityClass("poly", 2).operations(0)


def test_complexity_validation():
    for kind, param in (
        ("poly", None),
        ("poly", 0.5),
        ("exp", None),
        ("exp", 1.0),
        ("tsp_factorial", 2),
        ("factorial", 1),
        ("cubic", None),
        ("poly", True),
        ("poly", "x"),
    ):
        with pytest.raises(ValidationError):
            ComplexityClass(kind, param)
    assert ComplexityClass("exp", "3").parameter == 3.0  # numeric text reads as a number


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_counts_too_long_to_print_are_magnitudes():
    t0 = time.perf_counter()
    tours = ComplexityClass("tsp_factorial").operations(10**6)
    assert isinstance(tours, Magnitude)
    assert str(tours) == "~4.13e+5565702"
    assert str(ComplexityClass("factorial").operations(10**7)) == "~1.2e+65657059"
    assert runtime_projection(ComplexityClass("factorial"), 10**7, 1e9) == math.inf
    assert time.perf_counter() - t0 < 1.0

    # across the print limit: the exact count wherever str() prints it, and
    # otherwise the magnitude math.log10 gives of the exact count
    for kind, exact in (("factorial", math.factorial),
                        ("tsp_factorial", lambda n: math.factorial(n - 1) // 2)):
        for n in range(1400, 1800, 3):
            count = exact(n)
            try:
                want = str(count)
            except ValueError:
                log10 = math.log10(count)
                want = f"~{10 ** (log10 % 1):.3g}e+{int(log10)}"
            assert str(ComplexityClass(kind).operations(n)) == want, (kind, n)


def test_runtime_projection():
    quad = ComplexityClass("poly", 2)
    assert runtime_projection(quad, 20, 1e9) == pytest.approx(4e-7)
    huge = ComplexityClass("factorial")
    assert runtime_projection(huge, 300, 1e9) == math.inf
    with pytest.raises(ValidationError):
        runtime_projection(quad, 20, 0.0)


def _ensemble(times, budget, algorithm, bests=None):
    bests = bests or [1.0] * len(times)
    records = tuple(
        _record(t, evaluations=budget, best=b, algorithm=algorithm)
        for t, b in zip(times, bests)
    )
    return EnsembleStats(records=records, budget=budget)


def test_comparison_report_structure():
    tabu = _ensemble([5, 5, 9], 10, "tabu_search", bests=[1.0, 2.0, 6.0])
    base = _ensemble([None, None, None], 10, "random_search", bests=[4.0, 5.0, 9.0])
    report = nfl_comparison({"tabu": tabu}, base, z=0.9)
    assert report.budget == 10
    assert report.confidence == 0.9
    by_name = {e["name"]: e for e in report.entries}
    assert set(by_name) == {"tabu", "random_baseline"}

    t = by_name["tabu"]
    assert t["algorithm"] == "tabu_search"
    assert t["runs"] == 3
    # ties at n=5 collapse to one step; the curve closes at the budget
    assert t["success_curve"] == [[5, 2 / 3], [9, 1.0], [10, 1.0]]
    assert t["effort"] is not None
    assert t["best_median"] == 2.0
    assert t["best_min"] == 1.0 and t["best_max"] == 6.0

    r = by_name["random_baseline"]
    assert r["effort"] is None
    assert r["success_curve"] == [[10, 0.0]]
    assert r["best_mean"] == pytest.approx(6.0)

    report.to_dict()  # serializable without error


def _same(a, b) -> bool:
    """Equal bit for bit, or two zeros: the sort keeps a signed-zero tie in input order."""
    return struct.pack("<d", a) == struct.pack("<d", b) or a == b == 0.0


@settings(max_examples=300, deadline=None)
@given(bests=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([math.inf, 1e308])), min_size=1, max_size=60))
@example(bests=[math.inf, math.inf])
@example(bests=[1.0, math.inf])
@example(bests=[1e308, 1e308])
@example(bests=[6.0, -1.5, 2.0, 0.25])
def test_best_summary_matches_numpy(bests):
    e = EnsembleStats(records=tuple(_record(best=b) for b in bests), budget=10)
    best = np.array(bests)
    # two middle costs of 1e308 sum past the largest double, and a sum of
    # such costs of both signs can read inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        got = e.best_summary()
        want = {"best_median": np.median(best), "best_mean": best.mean(),
                "best_min": best.min(), "best_max": best.max()}
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert type(got[key]) is float
        assert _same(got[key], float(value)), (key, got[key], value)


def test_comparison_refuses_mixed_budgets():
    a = _ensemble([1], 10, "tabu_search")
    b = _ensemble([1], 20, "random_search")
    with pytest.raises(ValidationError):
        nfl_comparison({"tabu": a}, b)


def test_comparison_on_live_runs():
    cube = cube_fixture()
    budget = 30
    cfg = TabuConfig(tenure=2)
    tabu_recs = tuple(
        tabu_search(cube, Budget(budget), seed=s, cfg=cfg) for s in range(20)
    )
    rand_recs = tuple(random_search(cube, Budget(budget), seed=s) for s in range(20))
    tabu = EnsembleStats(records=tabu_recs, budget=budget, threshold=5.0)
    base = EnsembleStats(records=rand_recs, budget=budget, threshold=5.0)
    report = nfl_comparison({"tabu": tabu}, base)
    for entry in report.entries:
        assert entry["runs"] == 20
        assert entry["effort"] is not None
        assert entry["success_curve"][-1][0] == budget
        assert entry["best_min"] == 5.0
