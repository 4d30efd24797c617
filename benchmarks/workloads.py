"""The benchmark's workloads: which ensembles run, on which instances.

Each workload mixes shipped experiment configs with seeded synthetic
instances, and every ensemble goes through `ExperimentConfig` and
`run_experiment`, the path `optimize run` takes.  The workload seed sets
the synthetic instances and the base seed of every ensemble that runs a
fixed budget.  Ensembles that stop at a success target keep fixed seeds
(shipped configs run exactly as shipped), because their work changes
with the seed: letting the workload seed move them spread wall time and
replica percentiles by 15-40% across seeds, more than any bound the
benchmark can set.  The shipped success floors therefore hold on every
run, and the effort statistics repeat exactly.

Synthetic tours and packings are written as `.tsp` and plain packing
files so that the real parsers run during set-up.

This module imports numpy and stochopt only inside the functions that
need them, so run.py can read the definitions without loading either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "fixtures" / "experiments"

DEFAULT_SEED = 0
# A fixed-budget config's replicas use seeds base .. base + replicas - 1,
# and none runs 1000 replicas, so adjacent workload seeds share no seed.
SEED_STRIDE = 1000

# Synthetic instances, each drawn from its own stream of the workload seed,
# so the 50-city tour is the same city set in every workload of one seed.
TOURS = {"tour200": (0, 200), "tour50": (1, 50), "tour40": (2, 40)}
PACKINGS = {"pack60": (3, 60)}
TOUR_SIDE = 1000.0
PACK_CAPACITY = 100
PACK_SIZES = (5, 60)  # integer item sizes, inclusive


@dataclass(frozen=True)
class Ensemble:
    """One config of a workload: a shipped file, or a synthetic config.

    `shipped` names a file under fixtures/experiments.  Otherwise
    `instance` is a synthetic instance key, a path relative to the
    repository root, or an inline descriptor, and `oracle` names a
    fixture whose exact optimum becomes the success target.  `floor` is
    the shipped success floor: successes out of the shipped replicas.
    """

    label: str
    shipped: str | None = None
    instance: object = None
    algorithm: str | None = None
    replicas: int = 1
    budget: int = 1000
    params: dict = field(default_factory=dict)
    oracle: str | None = None
    floor: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ensembles: tuple
    # span names the traced run must see called at least once
    exercises: tuple


_DRIVER = ("cli.run_experiment", "cli.load_instance", "cli.config_load",
           "effort.computational_effort", "core.evaluate")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trajectory",
            why="one sampled neighbour per evaluation (annealing, hill climbing, "
            "random search), so problems and the core meter do most of the work",
            ensembles=(
                Ensemble("eight_sa", shipped="eight_sa", floor=90),
                Ensemble("eight_random", shipped="eight_random"),
                Ensemble("sa_pack10", instance="fixtures/pack10.txt", algorithm="sa",
                         replicas=10, budget=10000, oracle="fixtures/pack10.oracle.json"),
                Ensemble("sa_tour200", instance="tour200", algorithm="sa",
                         replicas=2, budget=3000),
                Ensemble("hillclimb_tour200", instance="tour200", algorithm="hillclimb",
                         replicas=2, budget=3000),
                Ensemble("sa_pack60", instance="pack60", algorithm="sa",
                         replicas=2, budget=3000),
            ),
            exercises=_DRIVER + (
                "problems.validate", "problems.evaluate", "problems.sample_neighbor",
                "problems.freeze", "local_search.random_search",
                "local_search.hill_climb_first_accept", "annealing.simulated_annealing",
                "annealing.calibrate_t0",
            ),
        ),
        Workload(
            name="neighbourhood",
            why="full-neighbourhood enumeration every step (tabu, steepest descent), "
            "so problems.neighbors and tabu selection dominate",
            ensembles=(
                Ensemble("eight_tabu", shipped="eight_tabu", floor=95),
                Ensemble("cube_tabu", shipped="cube_tabu"),
                Ensemble("tabu_pack10", instance="fixtures/pack10.txt", algorithm="tabu",
                         replicas=10, budget=10000, oracle="fixtures/pack10.oracle.json"),
                Ensemble("tabu_tour50", instance="tour50", algorithm="tabu",
                         replicas=6, budget=5000),
                Ensemble("steepest_tour50", instance="tour50", algorithm="steepest",
                         replicas=6, budget=5000),
                Ensemble("tabu_pack60", instance="pack60", algorithm="tabu",
                         replicas=4, budget=8000),
            ),
            exercises=_DRIVER + (
                "problems.neighbors", "problems.evaluate", "problems.validate",
                "problems.freeze", "tabu.tabu_search", "tabu.select_best_admissible",
                "local_search.hill_climb_steepest",
            ),
        ),
        Workload(
            name="population",
            why="cheap objectives next to the algorithms' own work (ant trails, swarm "
            "velocities, the n^4 Hopfield weights), so algorithm modules and memory dominate",
            ensembles=(
                Ensemble("eight_aco", shipped="eight_aco", floor=80),
                Ensemble("pso_balanced", shipped="pso_balanced", floor=95),
                Ensemble("pso_lopsided", shipped="pso_lopsided"),
                Ensemble("pso_rastrigin10",
                         instance={"kind": "continuous", "objective": "multimodal_test",
                                   "dim": 10},
                         algorithm="pso", replicas=2, budget=5000),
                Ensemble("aco_tour50", instance="tour50", algorithm="aco",
                         replicas=2, budget=150),
                Ensemble("hopfield_tour40", instance="tour40", algorithm="hopfield",
                         replicas=1, budget=2, params={"restarts": 2}),
            ),
            exercises=_DRIVER + (
                "problems.evaluate", "problems.freeze", "aco.aco_run",
                "aco.choose_next_city", "aco.local_update", "aco.global_update",
                "swarm.pso_run", "swarm.step_swarm", "swarm.update_velocity",
                "hopfield.hopfield_solve", "hopfield.build_weights", "hopfield.async_step",
                "hopfield.is_fixed_point",
            ),
        ),
    )
}


def is_exact(success: dict | None) -> bool:
    """True when a success predicate asks for the optimum itself."""
    return bool(
        success
        and "optimum" in success
        and float(success.get("relative", 1e-9)) <= 1e-9
        and float(success.get("absolute", 0.0)) == 0.0
    )


def write_instances(workload: Workload, seed: int, directory: Path) -> dict:
    """Draw the workload's synthetic instances and write them as files."""
    import numpy as np

    wanted = {e.instance for e in workload.ensembles if isinstance(e.instance, str)}
    paths = {}
    for key, (stream, n) in TOURS.items():
        if key in wanted:
            xy = np.random.default_rng([seed, stream]).uniform(0.0, TOUR_SIDE, (n, 2))
            lines = [f"NAME: {key}", "TYPE: TSP", f"DIMENSION: {n}",
                     "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
            lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(xy.tolist(), start=1)]
            paths[key] = directory / f"{key}.tsp"
            paths[key].write_text("\n".join(lines + ["EOF", ""]))
    for key, (stream, n) in PACKINGS.items():
        if key in wanted:
            lo, hi = PACK_SIZES
            sizes = np.random.default_rng([seed, stream]).integers(lo, hi + 1, n)
            paths[key] = directory / f"{key}.txt"
            paths[key].write_text(
                f"# {key}: seeded packing\n{n}\n{PACK_CAPACITY}\n"
                + "\n".join(str(s) for s in sizes.tolist()) + "\n"
            )
    return paths


def load_configs(workload: Workload, seed: int, directory: Path) -> list:
    """Write the synthetic configs to files and load every config from its file."""
    from stochopt import cli

    instances = write_instances(workload, seed, directory)
    configs = []
    for e in workload.ensembles:
        if e.shipped is not None:
            configs.append(cli.ExperimentConfig.from_file(EXPERIMENTS / f"{e.shipped}.json"))
            continue
        instance = e.instance
        if isinstance(instance, str):
            instance = str(instances.get(instance) or ROOT / instance)
        raw = {
            "instance": instance,
            "algorithm": e.algorithm,
            "replicas": e.replicas,
            "seed": SEED_STRIDE * seed,
            "budget": e.budget,
            "label": e.label,
        }
        if e.params:
            raw[e.algorithm] = e.params
        if e.oracle is not None:
            oracle = json.loads((ROOT / e.oracle).read_text())
            raw["success"] = {"optimum": oracle["optimum"]}
            raw["seed"] = 0  # stops at its target: fixed seeds, see the module notes
        path = directory / f"{e.label}.config.json"
        path.write_text(json.dumps(raw, indent=2) + "\n")
        configs.append(cli.ExperimentConfig.from_file(path))
    return configs
