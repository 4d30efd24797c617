import json
import logging
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    AcoConfig,
    Budget,
    TspInstance,
    ValidationError,
    aco_run,
    seeded_rng,
    two_route_instance,
)
from stochopt import aco
from stochopt.aco import (
    _build_tours,
    choose_next_city,
    edge_desirability,
    global_update,
    local_update,
)


def _searchsorted_step(scores, current, unvisited, u):
    """Ant by ant, the step `choose_next_city` must take: `searchsorted` over its candidates.

    Returns the picks and the candidate count of every uniform choice.
    """
    picks, uniform = [], []
    for city, mask, draw in zip(current, unvisited, u):
        candidates = np.flatnonzero(mask)
        cum = np.cumsum(scores[city, candidates])
        if cum[-1] <= 0:
            uniform.append(candidates.size)
            picks.append(candidates[int(draw * candidates.size)])
        else:
            k = int(np.searchsorted(cum, draw * cum[-1], side="right"))
            picks.append(candidates[min(k, candidates.size - 1)])
    return picks, uniform


def _per_edge_local_update(tau, tour, cfg):
    """One tour's deposits edge by edge, each capped as it is made: `local_update`'s reference."""
    deposit, cap = cfg.local_deposit, cfg.tau_max
    cities = np.asarray(tour).tolist()
    entries = memoryview(tau)  # reads and writes Python floats
    for a, b in zip(cities, cities[1:]):
        value = entries[a, b] + deposit
        entries[a, b] = entries[b, a] = cap if value > cap else value


def _numpy_global_update(tau, best_tour, tour_length, cfg):
    """The numpy-scalar update `global_update` must reproduce bit for bit."""
    tau *= 1.0 - cfg.rho
    tour = np.asarray(best_tour)
    if tour.size > 1:
        gain = cfg.q / tour_length
        for a, b in zip(tour, np.roll(tour, -1)):
            tau[a, b] += gain
            tau[b, a] = tau[a, b]
    np.clip(tau, cfg.tau_min, cfg.tau_max, out=tau)


def test_config_validation():
    for bad in (
        dict(ants=0),
        dict(w_tau=-1.0),
        dict(w_tau=0.0, w_eta=0.0),
        dict(rho=0.0),
        dict(rho=1.0),
        dict(local_deposit=0.0),
        dict(q=0.0),
        dict(tau0=0.0),
        dict(tau_min=0.0),
        dict(tau0=0.5, tau_min=0.6),
        dict(tau0=2.0, tau_max=1.0),
        dict(rule="rank"),
    ):
        with pytest.raises(ValidationError):
            AcoConfig(**bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "field", ["w_tau", "w_eta", "rho", "local_deposit", "q", "tau0", "tau_min", "tau_max"]
)
def test_config_refuses_non_finite_settings(field, value):
    with pytest.raises(ValidationError, match=f"'{field}' must be finite"):
        AcoConfig(**{field: value})


@pytest.mark.parametrize("ants", [2.5, float("nan"), float("inf"), True, "3", 0, -2.0])
def test_ant_count_must_be_a_whole_number_of_at_least_one(ants):
    with pytest.raises(ValidationError, match="'ants'"):
        AcoConfig(ants=ants)


def test_a_whole_float_ant_count_is_stored_as_an_int(eight):
    cfg = AcoConfig(ants=3.0)
    assert cfg.ants == 3 and type(cfg.ants) is int
    assert type(AcoConfig(ants=np.int64(4)).ants) is int
    rec = aco_run(eight, Budget(10), 0, cfg)
    assert rec.extras["ants"] == 3 and type(rec.extras["ants"]) is int
    assert rec.to_dict() == aco_run(eight, Budget(10), 0, AcoConfig(ants=3)).to_dict()


@pytest.mark.parametrize("budget, ants", [(12, None), (100, 3), (5, 4)])
def test_only_counted_tours_lay_a_local_deposit(monkeypatch, eight, budget, ants):
    """A budget that ends mid-iteration leaves no trail from the ant built past it."""
    deposits = []

    def counted(tau, tours, cfg):
        deposits.extend(tours)
        local_update(tau, tours, cfg)

    monkeypatch.setattr(aco, "local_update", counted)
    rec = aco_run(eight, Budget(budget), 0, AcoConfig(ants=ants))
    assert rec.evaluations % rec.extras["ants"] != 0
    assert len(deposits) == rec.evaluations == budget


def test_edge_desirability_both_rules():
    inst = TspInstance(np.array([[0.0, 4.0, 2.0], [4.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    added, eta = aco._resolved(AcoConfig(w_tau=1.0, w_eta=2.0), inst)
    assert edge_desirability(2.0, eta[0, 1], added) == 2.0 + 2.0 / 4.0
    multiplied, eta_product = aco._resolved(AcoConfig(w_tau=2.0, w_eta=3.0, rule="product"), inst)
    assert edge_desirability(2.0, eta_product[0, 1], multiplied) == pytest.approx(4.0 / 64.0)
    rows = edge_desirability(np.array([2.0, 1.0]), eta[0, 1:], added)
    np.testing.assert_array_equal(rows, [2.0 + 2.0 / 4.0, 1.0 + 2.0 / 2.0])
    assert np.all(np.diag(eta) == 0.0) and np.all(np.diag(eta_product) == 0.0)


@pytest.mark.parametrize("rule", ["sum", "product"])
@pytest.mark.parametrize("n", [2, 4])
def test_zero_distance_fails_before_the_first_tour(monkeypatch, n, rule):
    # with n = 2 the one candidate is taken unscored, so only the run-level check sees it
    d = np.ones((n, n)) - np.eye(n)
    d[0, n - 1] = d[n - 1, 0] = 0.0
    monkeypatch.setattr(aco, "_build_tours", lambda *a: pytest.fail("a tour was built"))
    with pytest.raises(ValidationError, match="distance 0"):
        aco_run(TspInstance(d), Budget(10), seed=0, cfg=AcoConfig(rule=rule))


def test_choose_next_city_follows_the_roulette_wheel():
    cfg = AcoConfig(w_tau=1.0, w_eta=2.0)
    tau = np.full((4, 4), cfg.tau0)
    tau[0] = [1.0, 0.3, 2.0, 0.7]
    eta = np.array([[0.0, 2.0 / 1.0, 2.0 / 2.0, 2.0 / 4.0]] * 4)  # w_eta / d
    scores = edge_desirability(tau, eta, cfg)

    cum = np.cumsum([0.3 + 2.0 / 1.0, 2.0 + 2.0 / 2.0, 0.7 + 2.0 / 4.0])
    u = np.array([seeded_rng(seed).random() for seed in range(20)])
    unvisited = np.tile([False, True, True, True], (20, 1))
    fallbacks = []
    got = choose_next_city(scores, np.zeros(20, dtype=np.intp), unvisited, u, fallbacks)
    want = [1 + int(np.searchsorted(cum, draw * cum[-1], side="right")) for draw in u]
    assert got.tolist() == want
    assert fallbacks == []


def test_a_spin_on_a_cumulative_score_moves_past_it_and_one_at_the_total_takes_the_last_city():
    scores = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 5e-324, 5e-324, 5e-324]])
    unvisited = np.array([[False, True, True, True], [False, True, True, True]])
    # 0.5 * 2.0 is the first city's cumulative score exactly, so the spin goes right;
    # 0.9 * 1.5e-323 rounds to the subnormal total, which no cumulative score exceeds
    got = choose_next_city(scores, np.array([0, 1]), unvisited, np.array([0.5, 0.9]), [])
    assert got.tolist() == [2, 3]


def test_zero_desirability_falls_back_to_the_ants_own_draw():
    """All-zero candidates: the floor(u * remaining)-th unvisited city, counted as a fallback."""
    scores = np.zeros((5, 5))
    unvisited = np.array([[False, True, False, True, True]] * 4)
    u = np.array([0.0, 0.34, 0.67, 0.999])
    fallbacks = []
    got = choose_next_city(scores, np.zeros(4, dtype=np.intp), unvisited, u, fallbacks)
    assert got.tolist() == [1, 3, 4, 4]
    assert fallbacks == [3] * 4  # the candidate count of every uniform choice


@st.composite
def _steps(draw):
    """Scores with zeros and all-zero rows; ants at any city, with any cities unvisited.

    Scores span either two decades or subnormal to 1e300, so that a row of
    40 of them stays finite.
    """
    n = draw(st.integers(1, 40))
    ants = draw(st.integers(1, 12))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    scores = 10.0 ** rng.uniform(*draw(st.sampled_from([(-1.0, 1.0), (-320.0, 300.0)])), (n, n))
    scores[rng.random((n, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    scores[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    current = rng.integers(n, size=ants)
    unvisited = rng.random((ants, n)) < draw(st.floats(0.0, 1.0))
    unvisited[np.arange(ants), rng.integers(n, size=ants)] = True
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=ants, max_size=ants))
    return scores, current, unvisited, np.array(u)


@settings(max_examples=300, deadline=None)
@given(case=_steps())
@example(case=(np.zeros((3, 3)), np.array([0, 1]), np.array([[0, 1, 1], [1, 0, 1]], bool),
               np.array([0.5, 0.99])))  # two uniform choices
@example(case=(np.array([[0.0, 1e-300, 1e300]]), np.array([0]), np.array([[False, True, True]]),
               np.array([0.0])))
@example(case=(np.full((2, 2), 5e-324), np.array([0]), np.array([[True, True]]),
               np.array([0.99])))  # the spin rounds to the total
def test_choose_next_city_equals_searchsorted_ant_by_ant(case):
    scores, current, unvisited, u = case
    fallbacks = []
    got = choose_next_city(scores, current, unvisited.copy(), u, fallbacks)
    picks, uniform = _searchsorted_step(scores, current, unvisited, u)
    assert got.tolist() == picks
    assert fallbacks == uniform
    assert unvisited[np.arange(len(got)), got].all()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    ants=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.lists(st.integers(0, 29), max_size=30),
)
def test_every_built_tour_is_a_permutation_from_its_own_draws(n, ants, seed, zero_rows):
    """Each ant draws `integers(n)` for its start, then one `random(n - 2)` block, nothing more."""
    scores = seeded_rng(seed).random((n, n))
    scores[[z for z in zero_rows if z < n]] = 0.0
    streams = seeded_rng(seed).spawn(ants)
    tours = _build_tours(scores, streams, [])
    assert tours.shape == (ants, n) and tours.dtype == np.intp
    assert all(sorted(tour) == list(range(n)) for tour in tours.tolist())
    for stream, start, again in zip(streams, tours[:, 0], seeded_rng(seed).spawn(ants)):
        assert again.integers(n) == start
        again.random(max(n - 2, 0))
        assert stream.bit_generator.state == again.bit_generator.state


def test_an_iteration_builds_every_tour_from_the_trail_it_began_with(eight, monkeypatch):
    """The trail changes only after all of an iteration's tours are built."""
    snapshots = []
    build = aco._build_tours

    def spy(scores, streams, fallbacks):
        snapshots.append(scores.copy())
        return build(scores, streams, fallbacks)

    monkeypatch.setattr(aco, "_build_tours", spy)
    cfg = AcoConfig(ants=4)
    rec = aco_run(eight, Budget(12), 0, cfg)
    assert len(snapshots) == rec.extras["iterations"] == 3
    cfg, eta = aco._resolved(cfg, eight)
    tau = np.full((eight.n, eight.n), cfg.tau0)
    assert snapshots[0].tobytes() == edge_desirability(tau, eta, cfg).tobytes()
    # the first iteration by hand: all four tours from the first snapshot, then the updates
    tours = _build_tours(snapshots[0], seeded_rng(0).spawn(4), [])
    costs = eight.cost_rows(tours)
    local_update(tau, tours, cfg)
    global_update(tau, tours[costs.index(min(costs))], min(costs), cfg)
    assert snapshots[1].tobytes() == edge_desirability(tau, eta, cfg).tobytes()


def test_local_update_is_symmetric_and_clamped():
    cfg = AcoConfig(local_deposit=0.01)
    tau = np.full((4, 4), cfg.tau0)
    local_update(tau, np.array([[2, 0, 3, 1]]), cfg)
    want = np.full((4, 4), 1.0)
    for a, b in [(2, 0), (0, 3), (3, 1)]:  # the closing edge (1, 2) gets nothing
        want[a, b] = want[b, a] = 1.01
    np.testing.assert_array_equal(tau, want)

    capped = AcoConfig(local_deposit=0.01, tau_max=1.005)
    tau = np.full((3, 3), capped.tau0)
    local_update(tau, np.array([[1, 0, 2]]), capped)
    assert tau[0, 1] == tau[1, 0] == tau[0, 2] == tau[2, 0] == 1.005
    assert tau[1, 2] == 1.0


@st.composite
def _trail_cases(draw):
    """A symmetric trail inside [tau_min, tau_max], a tour of 1 to 12 of its cities, a config.

    The tour's first edge may sit at the cap and the other entries at the
    floor, so that the cap and the floor bind; gains run up to a few times
    the width of the bounds.
    """
    n = draw(st.integers(1, 12))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    tau_min = 10.0 ** draw(st.floats(-6.0, 1.0))
    tau_max = tau_min * 10.0 ** draw(st.floats(0.0, 4.0))
    width = tau_max - tau_min
    cfg = AcoConfig(
        tau_min=tau_min, tau0=tau_min, tau_max=tau_max,
        rho=draw(st.floats(0.01, 0.99)),
        q=draw(st.floats(1e-3, 3.0)) * width or tau_min,
    )
    tau = np.triu(rng.uniform(tau_min, tau_max, size=(n, n)))
    if draw(st.booleans()):
        tau[rng.random((n, n)) < 0.5] = tau_min
    tau = tau + np.triu(tau, 1).T
    tour = rng.permutation(n)[: draw(st.integers(1, n))]
    if tour.size > 1 and draw(st.booleans()):
        a, b = tour[:2]
        tau[a, b] = tau[b, a] = tau_max
    return tau, tour, cfg, draw(st.floats(0.1, 10.0))


@settings(max_examples=300, deadline=None)
@given(case=_trail_cases())
def test_trail_updates_equal_their_numpy_forms(case):
    tau, tour, cfg, length = case
    for best_tour in (tour, tour.tolist()):
        got, want = tau.copy(), tau.copy()
        global_update(got, best_tour, length, cfg)
        _numpy_global_update(want, best_tour, length, cfg)
        assert got.tobytes() == want.tobytes()


@st.composite
def _deposit_cases(draw):
    """A symmetric trail inside [tau_min, tau_max], a block of 1 to 8 tours of 2 to 60 cities.

    Deposits run up to most of the width of the bounds, so most entries a
    few ants share pass the cap; with tau_max = tau_min every one does.
    """
    n = draw(st.integers(2, 60))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    tau_min = 10.0 ** draw(st.floats(-6.0, 1.0))
    tau_max = tau_min * 10.0 ** draw(st.sampled_from([0.0]) | st.floats(0.0, 3.0))
    cfg = AcoConfig(
        tau_min=tau_min, tau0=tau_min, tau_max=tau_max,
        local_deposit=draw(st.floats(1e-3, 0.7)) * (tau_max - tau_min) or tau_min,
    )
    tau = np.triu(rng.uniform(tau_min, tau_max, size=(n, n)))
    tau = tau + np.triu(tau, 1).T
    tours = np.array([rng.permutation(n) for _ in range(draw(st.integers(1, 8)))])
    return tau, tours, cfg


@settings(max_examples=300, deadline=None)
@given(case=_deposit_cases())
def test_local_update_equals_capped_deposits_tour_by_tour_edge_by_edge(case):
    tau, tours, cfg = case
    got, want = tau.copy(), tau.copy()
    local_update(got, tours, cfg)
    for tour in tours:
        _per_edge_local_update(want, tour, cfg)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    trail=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=64),
    rho=st.floats(0.01, 0.99),
    bounds=st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 3.0)),
)
def test_the_closing_clamp_equals_np_clip(trail, rho, bounds):
    """Evaporated trails on both sides of both bounds are clamped as `np.clip` clamps them."""
    tau_min, tau_max = bounds
    cfg = AcoConfig(rho=rho, tau_min=tau_min, tau0=tau_min, tau_max=tau_max)
    tau = np.array(trail)
    want = np.clip(tau * (1.0 - rho), tau_min, tau_max)
    global_update(tau, None, 1.0, cfg)
    assert tau.tobytes() == want.tobytes()


def test_a_two_city_tour_gains_twice_and_the_bounds_bind():
    cfg = AcoConfig(rho=0.5, q=2.0, tau_min=0.6, tau0=1.0, tau_max=1.2, local_deposit=0.5)
    tau = np.full((3, 3), 1.0)
    global_update(tau, np.array([0, 2]), 8.0, cfg)
    assert tau[0, 2] == tau[2, 0] == 0.5 + 0.25 + 0.25  # as (0, 2), then as the closing (2, 0)
    assert tau[0, 1] == tau[1, 1] == 0.6  # evaporated to 0.5, then raised to the floor
    local_update(tau, np.array([[2, 0]]), cfg)
    assert tau[0, 2] == tau[2, 0] == 1.2  # capped at tau_max


def test_aco_run_calls_the_traced_helpers_through_the_module(eight, monkeypatch):
    """The benchmark tracer wraps these three names; each must be called through them."""
    cfg = AcoConfig(ants=4)
    plain = aco_run(eight, Budget(40), 3, cfg)
    calls = {}

    def counting(name):
        original = getattr(aco, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapped

    for name in ("choose_next_city", "local_update", "global_update"):
        monkeypatch.setattr(aco, name, counting(name))
    traced = aco_run(eight, Budget(40), 3, cfg)
    assert traced.to_dict() == plain.to_dict()
    iterations = traced.extras["iterations"]
    assert iterations == 10
    assert calls == {
        "choose_next_city": iterations * (eight.n - 2),  # one per step with a choice to make
        "local_update": iterations,  # one per block of counted tours
        "global_update": iterations,
    }


def test_global_update_matches_hand_computation():
    cfg = AcoConfig(rho=0.5, q=2.0)
    tau = np.full((4, 4), cfg.tau0)
    tour = [0, 2, 1, 3]
    global_update(tau, tour, 8.0, cfg)
    want = np.full((4, 4), 0.5)
    for a, b in [(0, 2), (2, 1), (1, 3), (3, 0)]:
        want[a, b] += 2.0 / 8.0
        want[b, a] = want[a, b]
    np.testing.assert_allclose(tau, want)


def test_one_iteration_leaves_the_predicted_trail():
    # one ant, one tour: chosen edges carry the local deposit, the
    # closing edge only the global share, everything else just evaporates
    inst = two_route_instance()
    cfg = AcoConfig(ants=1, rho=0.5, local_deposit=0.25, q=1.0, tau0=1.0)
    rec = aco_run(inst, Budget(1), seed=4, cfg=cfg)
    assert rec.evaluations == 1
    assert rec.extras["iterations"] == 1

    tour = list(rec.best_solution)
    length = rec.best_fitness
    tau = np.array(rec.extras["pheromone"])
    chosen = {frozenset(e) for e in zip(tour, tour[1:])}
    closing = frozenset((tour[-1], tour[0]))
    for i in range(4):
        assert tau[i, i] == 0.5
        for j in range(i + 1, 4):
            pair = frozenset((i, j))
            if pair == closing:
                want = 0.5 + 1.0 / length
            elif pair in chosen:
                want = (1.0 + 0.25) * 0.5 + 1.0 / length
            else:
                want = 0.5
            assert tau[i, j] == pytest.approx(want)
            assert tau[j, i] == tau[i, j]


def test_budget_counts_tours(triangle):
    rec = aco_run(triangle, Budget(12), seed=0, cfg=AcoConfig(ants=3))
    assert rec.evaluations == 12
    assert rec.extras["iterations"] == 4
    assert len(rec.extras["iteration_best"]) == 4
    assert rec.best_fitness == 3.0


def test_partial_iteration_ends_as_a_full_one(triangle):
    """The budget ends the second iteration after two of its three ants; it still counts."""
    rec = aco_run(triangle, Budget(5), seed=0, cfg=AcoConfig(ants=3))
    assert rec.evaluations == 5
    assert rec.extras["iterations"] == 2
    assert rec.extras["iteration_best"] == [3.0, 3.0]
    assert rec.status == "budget_exhausted"
    full = aco_run(triangle, Budget(6), seed=0, cfg=AcoConfig(ants=3))
    assert full.extras["iterations"] == 2
    assert rec.extras["pheromone"] != full.extras["pheromone"]  # one ant's deposit fewer


def test_target_stops_mid_iteration(triangle):
    budget = Budget(1000, target_fitness=3.0)
    rec = aco_run(triangle, budget, seed=0, cfg=AcoConfig(ants=3))
    assert rec.status == "target_reached"
    assert rec.evaluations == rec.evaluations_to_success
    assert rec.evaluations < 1000


def test_needs_a_distance_matrix(cube):
    with pytest.raises(ValidationError):
        aco_run(cube, Budget(10), seed=0)


def test_runs_are_reproducible():
    inst = two_route_instance()
    a = aco_run(inst, Budget(60), seed=9)
    b = aco_run(inst, Budget(60), seed=9)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_trail_mass_collects_on_the_short_route():
    inst = two_route_instance()
    rec = aco_run(inst, Budget(200), seed=0)
    tau = np.array(rec.extras["pheromone"])
    short = [(0, 1), (1, 2), (2, 3), (3, 0)]
    long_route = [(0, 2), (2, 1), (1, 3), (3, 0)]
    short_mass = sum(tau[a, b] for a, b in short)
    long_mass = sum(tau[a, b] for a, b in long_route)
    assert short_mass > long_mass
    assert rec.best_fitness == 4.0


def test_product_rule_default_weight_keeps_the_wheel_alive(caplog):
    # w_eta is an exponent under the product rule; two mean edge lengths
    # (~1000 here) would drive every score to 0.0 and every choice uniform
    inst = TspInstance.from_coords(seeded_rng(0).random((50, 2)) * 1000.0)
    with caplog.at_level(logging.WARNING, logger="stochopt.aco"):
        rec = aco_run(inst, Budget(50), seed=0, cfg=AcoConfig(rule="product"))
    assert rec.evaluations == 50
    assert not any("uniform choice" in r.message for r in caplog.records)


@pytest.mark.parametrize("rule", typing.get_args(typing.get_type_hints(AcoConfig)["rule"]))
def test_one_city_resolves_its_defaults_without_warnings(rule):
    inst = TspInstance(np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, _ = aco._resolved(AcoConfig(rule=rule), inst)
        rec = aco_run(inst, Budget(3), seed=0, cfg=AcoConfig(rule=rule))
    assert cfg.w_eta > 0
    assert rec.best_solution == (0,)
    assert rec.best_fitness == 0.0
    assert rec.evaluations == 3
