"""End-to-end acceptance checks for the toolkit's core guarantees.

Each test prints one PASS line when its guarantee holds; a failure keeps
the line out and pytest reports the broken guarantee by name.
"""

import json
import math
import time
from itertools import permutations

import numpy as np
import pytest

from conftest import EXPERIMENTS
from stochopt import (
    Budget,
    ComplexityClass,
    ContinuousLandscape,
    EnsembleStats,
    ExperimentConfig,
    HopfieldNet,
    RunRecord,
    SwarmConfig,
    TabuConfig,
    TankParams,
    TspInstance,
    aco_run,
    async_step,
    build_weights,
    computational_effort,
    constraint_energy,
    cost_energy,
    cube_state,
    decode_tour,
    effort_steps,
    hill_climb_first_accept,
    hill_climb_steepest,
    hopfield_solve,
    metropolis_accept,
    network_energy,
    pso_run,
    random_search,
    run_experiment,
    runtime_projection,
    seeded_rng,
    simulated_annealing,
    tabu_search,
    two_route_instance,
)

START = cube_state(1, 0, 0)  # the corner costing 10


def _ok(name):
    print(f"[acceptance] {name}: PASS")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_tabu_walk_crosses_the_ridge_only_with_aspiration(cube):
    cfg = TabuConfig(tenure=3, aspiration="best_so_far")
    args = (cube, Budget(100))

    rec = tabu_search(*args, seed=0, cfg=cfg, start=START)
    assert rec.extras["visited"] == [10.0, 8.0, 11.0, 9.0, 5.0]
    assert rec.best_fitness == 5.0

    blocked = tabu_search(
        *args, seed=0, cfg=TabuConfig(tenure=3, aspiration="off"), start=START
    )
    assert blocked.extras["visited"] == [10.0, 8.0, 11.0, 9.0]
    assert 5.0 not in blocked.extras["visited"]

    elapsed = min(
        _timed(lambda: tabu_search(*args, seed=0, cfg=cfg, start=START))
        for _ in range(5)
    )
    assert elapsed < 1e-3
    _ok("tabu walk escapes the basin exactly when aspiration is on")


def test_steepest_descent_is_trapped_below_the_optimum(cube):
    rec = hill_climb_steepest(cube, Budget(100), seed=0, start=START)
    assert rec.status == "local_optimum"
    assert rec.best_fitness == 8.0
    assert rec.best_fitness != 5.0
    _ok("steepest descent stalls at the 8-cost corner")


def test_energy_function_identities(eight):
    t0 = time.perf_counter()
    p = TankParams()

    # feasibility penalty: zero exactly on the 6 permutation matrices,
    # positive on the other 506 binary 3x3 matrices
    perms = 0
    for bits in range(512):
        v = np.array([(bits >> k) & 1 for k in range(9)], dtype=float).reshape(3, 3)
        if np.all(v.sum(axis=0) == 1.0) and np.all(v.sum(axis=1) == 1.0):
            assert constraint_energy(v, p) == 0.0
            perms += 1
        else:
            assert constraint_energy(v, p) > 0.0
    assert perms == 6

    # tour term: scaled tour length on every valid assignment up to n=5
    rng = seeded_rng(99)
    checked = 0
    for n in range(1, 6):
        d = rng.uniform(1.0, 9.0, size=(n, n))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        inst = TspInstance(d, name=f"rand{n}")
        for order in permutations(range(n)):
            v = np.zeros((n, n))
            for pos, city in enumerate(order):
                v[city, pos] = 1.0
            want = p.d * inst.evaluate(decode_tour(v))
            got = cost_energy(v, d, p.d)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            checked += 1
    assert checked == 153

    # asynchronous updates never raise the network energy
    trials = 0
    rng = seeded_rng(4)
    while trials < 100_000:
        m = int(rng.integers(5, 20))
        w = rng.normal(size=(m, m))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        net = HopfieldNet(
            weights=w,
            thresholds=rng.normal(size=m),
            state=rng.integers(0, 2, size=m).astype(float),
        )
        e = network_energy(net)
        for _ in range(2000):
            async_step(net, rng)
            e_next = network_energy(net)
            assert e_next <= e + 1e-9
            e = e_next
            trials += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok("energy identities and monotone dynamics")


MINUTE, HOUR, DAY = 60.0, 3600.0, 86400.0
YEAR = 365.0 * DAY

# printed projection table at 1e9 ops/s: (kind, param, n, value, unit, digit)
PRINTED_CELLS = [
    ("poly", 1, 17, 17.0, 1e-9, 1.0),
    ("poly", 1, 18, 18.0, 1e-9, 1.0),
    ("poly", 1, 19, 19.0, 1e-9, 1.0),
    ("poly", 1, 20, 20.0, 1e-9, 1.0),
    ("poly", 2, 17, 289.0, 1e-9, 1.0),
    ("poly", 2, 18, 324.0, 1e-9, 1.0),
    ("poly", 2, 19, 361.0, 1e-9, 1.0),
    ("poly", 2, 20, 400.0, 1e-9, 1.0),
    ("poly", 5, 17, 1.4, 1e-3, 0.1),
    ("poly", 5, 18, 1.8, 1e-3, 0.1),
    ("poly", 5, 19, 2.4, 1e-3, 0.1),
    ("poly", 5, 20, 3.2, 1e-3, 0.1),
    ("exp", 2, 17, 131.0, 1e-6, 1.0),
    ("exp", 2, 18, 262.0, 1e-6, 1.0),
    ("exp", 2, 19, 524.0, 1e-6, 1.0),
    ("exp", 2, 20, 1.0, 1e-3, 1.0),
    ("exp", 5, 17, 12.7, MINUTE, 0.1),
    ("exp", 5, 18, 1.0, HOUR, 1.0),
    ("exp", 5, 19, 5.29, HOUR, 0.01),
    ("exp", 5, 20, 26.4, HOUR, 0.1),
    ("tsp_factorial", None, 17, 2.9, HOUR, 0.1),
    ("tsp_factorial", None, 18, 2.0, DAY, 1.0),
    ("tsp_factorial", None, 19, 37.0, DAY, 1.0),
    ("tsp_factorial", None, 20, 2.0, YEAR, 1.0),
    ("factorial", None, 17, 4.0, DAY, 1.0),
    ("factorial", None, 18, 74.0, DAY, 1.0),
    ("factorial", None, 19, 4.0, YEAR, 1.0),
    ("factorial", None, 20, 77.0, YEAR, 1.0),
]


def test_runtime_projections_match_the_printed_table():
    t0 = time.perf_counter()
    for kind, param, n, value, unit, digit in PRINTED_CELLS:
        exact = runtime_projection(ComplexityClass(kind, param), n, 1e9)
        printed = value * unit
        # printed cells are rounded, so allow 5% or half a printed digit
        tol = max(0.05 * exact, 0.5 * digit * unit)
        assert abs(exact - printed) <= tol, (kind, param, n)

    tours_20 = runtime_projection(ComplexityClass("tsp_factorial"), 20, 1e9)
    assert abs(tours_20 / YEAR - 1.9287) < 1e-3

    assert time.perf_counter() - t0 < 1.0
    _ok("runtime projections reproduce all 28 printed cells")


def _rec(success_at, algorithm="demo", evaluations=100):
    return RunRecord(
        algorithm=algorithm,
        seed=0,
        status="target_reached" if success_at else "budget_exhausted",
        evaluations=evaluations,
        best_fitness=0.0,
        best_solution=None,
        best_curve=(),
        evaluations_to_success=success_at,
    )


def test_restart_effort_arithmetic():
    t0 = time.perf_counter()
    # success probability one half at the full budget of 100 evaluations
    e = EnsembleStats(records=(_rec(100), _rec(None)), budget=100)
    assert effort_steps(e, 0.99) == [(100, 700)]

    # geometric ensemble: success count halves per extra evaluation
    records = []
    for n in range(1, 11):
        records.extend(_rec(n, evaluations=10) for _ in range(2 ** (10 - n)))
    records.append(_rec(None, evaluations=10))
    ens = EnsembleStats(records=tuple(records), budget=10)

    times = sorted(
        r.evaluations_to_success
        for r in records
        if r.evaluations_to_success is not None
    )
    best = None
    for n in range(1, 11):
        p = sum(1 for t in times if t <= n) / len(records)
        if p == 0:
            continue
        runs = 1
        while p < 1.0 and (1.0 - p) ** runs > 0.01:
            runs += 1
        if best is None or n * runs < best[1]:
            best = (n, n * runs)
    assert computational_effort(ens, 0.99) == best == (1, 7)

    assert time.perf_counter() - t0 < 1.0
    _ok("restart effort matches the exhaustive scan")


def test_stochastic_methods_recover_the_exact_tour(tmp_path):
    t0 = time.perf_counter()
    floors = {"eight_sa.json": 90, "eight_tabu.json": 95, "eight_aco.json": 80}
    for name, floor in floors.items():
        cfg = ExperimentConfig.from_file(EXPERIMENTS / name)
        table = run_experiment(cfg, output_dir=tmp_path)
        assert table.summary["replicas"] == 100
        assert table.summary["successes"] >= floor, name
    assert time.perf_counter() - t0 < 60.0
    _ok("annealing, tabu and ant ensembles beat their success floors")


def test_swarm_reaches_the_line_minimum_and_balance_wins():
    t0 = time.perf_counter()
    prob = ContinuousLandscape("abs_linear")
    budget = Budget(5000, target_fitness=1e-2)

    def ensemble(cfg):
        evals, hits = [], 0
        for seed in range(100):
            rec = pso_run(prob, budget, seed, cfg=cfg)
            if rec.evaluations_to_success is not None:
                hits += 1
                evals.append(rec.evaluations_to_success)
            else:
                evals.append(budget.max_evaluations)
        return hits, float(np.median(evals))

    balanced_hits, balanced_median = ensemble(SwarmConfig(size=20))
    assert balanced_hits >= 95

    lopsided = SwarmConfig(size=20, p_increment=20.0, g_increment=0.2)
    _, lopsided_median = ensemble(lopsided)
    assert balanced_median < lopsided_median

    assert time.perf_counter() - t0 < 10.0
    _ok("balanced swarm hits the target and beats the lopsided increments")


def test_acceptance_frequency_tracks_the_boltzmann_factor():
    t0 = time.perf_counter()
    temperature = 2.0
    delta = temperature * math.log(2.0)  # acceptance probability one half
    rng = seeded_rng(42)
    draws = 100_000
    accepted = sum(metropolis_accept(delta, temperature, rng) for _ in range(draws))
    freq = accepted / draws
    se = math.sqrt(0.25 / draws)
    assert abs(freq - 0.5) <= 3 * se

    downhill = seeded_rng(7)
    for i in range(draws):
        d = 0.0 if i % 10 == 0 else -downhill.random()
        assert metropolis_accept(d, temperature, downhill)

    assert time.perf_counter() - t0 < 1.0
    _ok("uphill moves pass at the Boltzmann rate, downhill always")


def test_pheromone_mass_prefers_the_short_route():
    t0 = time.perf_counter()
    inst = two_route_instance()
    short = [(0, 1), (1, 2), (2, 3), (3, 0)]
    long_route = [(0, 2), (2, 1), (1, 3), (3, 0)]
    wins = 0
    for seed in range(100):
        rec = aco_run(inst, Budget(200), seed)
        tau = np.array(rec.extras["pheromone"])
        if sum(tau[a, b] for a, b in short) > sum(tau[a, b] for a, b in long_route):
            wins += 1
    assert wins >= 95
    assert time.perf_counter() - t0 < 5.0
    _ok(f"trail mass favors the short route in {wins}/100 ensembles")


def test_identical_seeds_give_identical_records(cube, eight, tmp_path):
    prob = ContinuousLandscape("abs_linear")
    unit5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)), name="unit5")
    runners = {
        "random": lambda: random_search(cube, Budget(100), 7),
        "hillclimb": lambda: hill_climb_first_accept(cube, Budget(100), 7),
        "steepest": lambda: hill_climb_steepest(cube, Budget(100), 7),
        "sa": lambda: simulated_annealing(eight, Budget(2000), 7),
        "tabu": lambda: tabu_search(eight, Budget(500), 7),
        "hopfield": lambda: hopfield_solve(unit5, Budget(10), 7, TankParams(d=40.0)),
        "pso": lambda: pso_run(prob, Budget(500), 7),
        "aco": lambda: aco_run(two_route_instance(), Budget(100), 7),
    }
    for name, runner in runners.items():
        first = json.dumps(runner().to_dict(), sort_keys=True)
        second = json.dumps(runner().to_dict(), sort_keys=True)
        assert first == second, name

    cfg = ExperimentConfig.from_file(EXPERIMENTS / "cube_tabu.json")

    def stripped_report(out_dir):
        table = run_experiment(cfg, output_dir=out_dir)
        with open(table.json_path) as fh:
            data = json.load(fh)
        data["summary"].pop("total_wall_time_s")
        for row in data["rows"]:
            row.pop("wall_time_s")
        return json.dumps(data, sort_keys=True)

    assert stripped_report(tmp_path / "a") == stripped_report(tmp_path / "b")
    _ok("reruns are byte-identical apart from wall time")
