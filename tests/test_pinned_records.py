"""Searcher records pinned by digest.

Each case runs one searcher on a fixed instance and hashes the canonical
JSON of `RunRecord.to_dict()`.  The tabu and steepest-descent digests
were taken from the per-neighbour implementation (a solution copy and a
`Move` per neighbour, one `cost` call each); the array neighbourhoods
must reproduce them bit for bit.  The memory-weighted cases are the only
guard on the penalty path, which no shipped config or benchmark turns on.
The cases on the benchmark-size tours (`SIZED`) were taken from the
row-building neighbourhood, which built every reversed tour as a row of
an (M, n) block and costed each row in full; neighbourhoods costed by the
four edges each reversal changes must reproduce them bit for bit.

The annealing and first-accept digests were taken from the full-costing
implementation (every sampled neighbour built as a new tour and costed
edge by edge); sampled moves costed by their changed edges must
reproduce them bit for bit.  Most of these configurations (fixed and
linear schedules, rescaled acceptance, random walks, a 50-city tour with
irrational edge lengths) are in no shipped config or benchmark workload.
The three `sa-rescaled-alpha` cases (alpha = 0.5) are the exception to
the first rule: they were taken from sampled moves costed by their
changed edges, while annealing still offered a second rescaled formula.

The 4x4 lattice is the exception for annealing.  Many of its reversals
trade two edges for two of the same lengths; such a move now costs
exactly the current cost and is accepted without a draw, where the full
recompute summed the reordered tour, could land an ulp above and then
drew a number.  Its two annealing digests are this implementation's (the
full-costing ones were afa0b8db... and 9b350d6a...); its first-accept
digests are the full-costing ones.

The three annealing and first-accept cases on a continuous landscape
(`rastrigin3-*`) were taken while every draw of those searchers came
from numpy's `Generator`.  Each step of such a landscape draws a vector
with `uniform`, so they pin the path on which a searcher that decodes
its scalar draws itself hands the generator back to numpy.

The ant-colony digests were taken from lockstep construction: all ants
of an iteration build their tours from the trail as it stood when the
iteration began, one (ants, n) step at a time, and lay their local
deposits once the iteration is costed and counted.  Each ant draws
`integers(n)` for its start and then one `random(n - 2)` block; a step
takes the first city whose cumulative score exceeds the ant's draw times
its row total, and an all-zero row takes the floor(u * remaining)-th
unvisited city.  The cases cover both rules (the product rule with an
exponent numpy raises by its generic `pow`), tours from 2 to 140 cities,
a budget that ends mid-iteration, a `tau_max` the local deposit hits,
the uniform fallback, a target stop and the `tau_min` floor.  Six of the
sixteen are those of the earlier per-ant construction, where each ant
read the trail after the previous ant's deposits and spun a wheel of
normalized shares: `eight-aco-mid-iteration`, `eight-aco-tau-max`,
`eight-aco-target`, `eight-aco-tau-min`, `tour2-aco` and
`tour9-aco-tau-min` came out the same.  The other ten were re-pinned
when construction went lockstep.

The particle-swarm digests were taken from the per-particle
implementation (each particle's position costed by its own
`ContinuousLandscape.cost` call as the sweep reached it).  Costing each
sweep as one block through `cost_rows`, then counting the particles in
index order, must reproduce them bit for bit.  The cases cover both
shipped settings (`pso_balanced`, `pso_lopsided`), the line in one and
three dimensions, Rastrigin in 3, 10 and 130 dimensions (past the 8
terms where numpy's pairwise sum unrolls and the 128 where it splits),
a budget that ends mid-sweep, targets that fall mid-sweep, inertia, an
explicit `vmax` and a swarm of one.  Four cases were re-pinned when the
swarm came to stop at the particle that finishes the run: the two
target cases (`line-pso-target`, `rastrigin3-pso-target`) no longer
count the rest of the sweep past the target, and the two whose budget
ends mid-sweep (`rastrigin10-pso-mid-sweep`, `rastrigin130-pso`) count
that last sweep in `sweeps`, `gbest_curve` and `clamped_moves`.  The
counted particles did not move.

The two 12-city Hopfield cases and the two `tau_min` floor cases
(`eight-aco-tau-min`, `tour9-aco-tau-min`) were taken while the network
summed its whole state for every field and drew each neuron from numpy's
`Generator`, and while the trail updates ran as numpy index expressions.
The Hopfield cases cap their steps at a count that is no multiple of the
144 neurons, so a capped restart ends mid-sweep; one decodes valid tours,
the other (the textbook coefficients) settles on fixed points that are
not tours.

Nine `pack10` cases were re-pinned when packings with whole-number
sizes and capacity came to keep their loads in capacity units, as exact
integers: `pack10-tabu-memory`, `pack10-tabu-mid-neighbourhood` and
the seven annealing cases `pack10-sa-{calibrated,fixed,linear,rescaled,
rescaled-alpha,start,target}`.  Their costs had carried the rounding of
fractional loads summed in item order.  The other `pack10` cases came
out the same, and the `pack12` cases, whose sizes are fractions, must
reproduce their digests bit for bit.

The two `pack12` first-accept cases were taken while a sampled packing
move was the neighbour itself, a copied array costed by a full
`bincount`.  `pack12-sa-calibrated` was re-pinned (a01c3477... became
c7cbf578...) when fractional packings came to carry their loads by the
two bins a move changes, as whole-number packings do: a carried cost
rounds apart from a full sum in the last bits, an ulp-uphill move then
draws an acceptance number where a level one drew none, and the draws
shift.  The first-accept, tabu and steepest `pack12` cases came out the
same; tabu and steepest must, as every choice they make reads full costs.
`pack12-first-accept-random-walk`, which keeps every move and so sums a
fractional packing afresh at each step, and the two `cube` annealing and
random-walk cases, whose chain state is the solution itself, were taken
while a packing held its current loads in a memo on the instance and the
searchers walked bare solutions; a chain state the searcher carries must
reproduce them bit for bit.

The random-search and Hopfield digests, and those of the first-accept,
steepest and annealing runs from an explicit `start` (given as a list,
so `validate` turns it into the problem's array), were taken before
every searcher drew its start through one `Run.start` and every problem
kind sampled through one `sample_move`; both must reproduce them.

The four annealing and first-accept cases on 140- and 300-city tours
(`tour140-sa-calibrated`, `tour140-first-accept-random-walk`,
`tour300-sa-calibrated`, `tour300-first-accept`) were taken while a
sampled tour's chain state was the tour array itself, its four cities
read with `ndarray.item` and each kept reversal copied through numpy.
They are the only sampled cases whose reversals span more than 50
cities; a tour state held any other way must reproduce them bit for bit.

The twelve annealing and first-accept cases on tours of 1, 2 and 3
cities (`tour{1,2,3}-{sa-calibrated,sa-rescaled,first-accept,
first-accept-random-walk}`) and `tour1-aco` were taken while a tour of
fewer than four cities drew the move `None`, which each move method
special-cased, and while the ants' last column was guarded for one
city.  Every move there leaves the cyclic tour as it is and draws
nothing; an empty reversal must reproduce them bit for bit.

The two tour random-search cases (`eight-random-target`, stopped by its
target at evaluation 93, and `tour50-random`, a budget of 150) were
taken while random search drew and costed one tour at a time.  Neither
stop falls on a multiple of 64, so a search that draws and costs its
candidates in blocks of 64 must end part-way through its last block and
reproduce them bit for bit.

Three annealing cases end inside `calibrate_t0`'s probe walk of 100
steps: `eight-sa-short` (a budget of 40), `rastrigin3-sa-short` (a
budget of 60) and `cube-sa-target`, whose target is reached at
evaluation 36.  They were taken while the walk drew, costed and counted
one probe at a time; a walk drawn first and counted as one block must
reproduce them bit for bit.

Six cases on `eight` and `pack10` pin the exits of the annealing and
first-accept loops: `*-sa-step-boundary` (a fixed `t0`, 50 steps per
temperature and a budget of 1 + 50 x 60, so the budget ends on the last
proposal of a temperature step), `*-sa-frozen` (frozen by
`max_temperature_steps` = 30 with budget left) and
`*-first-accept-target` (stopped by its target).  Their
`temperature_steps` and `uphill_*` extras are in the digest.  They were
taken while both loops asked `Run.finished` before every proposal; a
loop that checks the budget once per block must reproduce them bit for
bit.

Two Hopfield cases were taken while every asynchronous step decided its
neuron from the exact field, the distance dot product included.
`tour40-hopfield-textbook` runs the textbook coefficients on 40 cities
in a 1000-unit square, where most fields are far from 0.
`ties6-hopfield` runs `TankParams(a=1, b=1, c=2, d=1)` on six cities
with distances of 0 and 1, so every field is a small integer and many
are exactly 0; a field of 0 fires.  A step that decides from bounds
before it reads the distances must reproduce both, and the final state
of every restart of every Hopfield case, bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import FIXTURES
from stochopt import (
    AcoConfig,
    BinPackingInstance,
    Budget,
    ContinuousLandscape,
    SwarmConfig,
    TabuConfig,
    TankParams,
    TspInstance,
    CoolingSchedule,
    aco_run,
    cube_fixture,
    cube_state,
    hill_climb_first_accept,
    hill_climb_steepest,
    hopfield_solve,
    parse_binpacking_file,
    parse_tsp_file,
    pso_run,
    random_search,
    seeded_rng,
    simulated_annealing,
    tabu_search,
)
from stochopt import hopfield

# Per instance: a tenure and memory weights large enough, next to its cost
# scale, that the penalty changes which move is chosen.
MEMORY = {
    "eight": dict(tenure=3, intensification_weight=200.0, diversification_weight=2000.0),
    "pack10": dict(tenure=5, intensification_weight=3.0, diversification_weight=40.0),
    "tour12": dict(tenure=6, intensification_weight=3.0, diversification_weight=40.0),
    "pack12": dict(tenure=5, intensification_weight=50.0, diversification_weight=400.0),
    "cube": dict(tenure=2, intensification_weight=3.0, diversification_weight=40.0),
    "tour50": dict(tenure=5, intensification_weight=3.0, diversification_weight=40.0),
    "grid16": dict(tenure=5, intensification_weight=3.0, diversification_weight=40.0),
    "tour140": dict(tenure=5, intensification_weight=10.0, diversification_weight=100.0),
}


def _ties6():
    upper = np.triu(seeded_rng(1).integers(0, 2, size=(6, 6)), 1)
    return TspInstance(upper + upper.T, name="ties6")


def _instances():
    return {
        "eight": parse_tsp_file(FIXTURES / "eight.tsp"),
        "pack10": parse_binpacking_file(FIXTURES / "pack10.txt"),
        "tour12": TspInstance.from_coords(seeded_rng(12).random((12, 2)), name="tour12"),
        "pack12": BinPackingInstance(seeded_rng(21).uniform(0.05, 0.7, size=12), name="pack12"),
        "cube": cube_fixture(),
        "tour50": TspInstance.from_coords(seeded_rng(50).random((50, 2)), name="tour50"),
        "grid16": TspInstance.from_coords(
            [(x, y) for x in range(4) for y in range(4)], name="grid16"
        ),
        **{
            f"tour{n}": TspInstance.from_coords(seeded_rng(n).random((n, 2)), name=f"tour{n}")
            for n in (1, 2, 3, 5, 9, 140, 300)
        },
        "tour40": TspInstance.from_coords(
            seeded_rng(40).uniform(0.0, 1000.0, size=(40, 2)), name="tour40"
        ),
        "ties6": _ties6(),
        "line": ContinuousLandscape("abs_linear"),
        "line3": ContinuousLandscape("abs_linear", dim=3),
        **{
            f"rastrigin{d}": ContinuousLandscape("multimodal_test", dim=d)
            for d in (3, 10, 130)
        },
    }


def _tabu(budget, seed, target=None, start=None, **cfg):
    def run(problem):
        return tabu_search(
            problem, Budget(budget, target), seed, cfg=TabuConfig(**cfg), start=start
        )

    return run


def _steepest(budget, seed, restart=False, start=None):
    def run(problem):
        return hill_climb_steepest(
            problem, Budget(budget), seed, start=start, restart_on_optimum=restart
        )

    return run


def _random(budget, seed, target=None):
    def run(problem):
        return random_search(problem, Budget(budget, target), seed)

    return run


def _hopfield(restarts, seed, **kw):
    def run(problem):
        return hopfield_solve(problem, Budget(restarts), seed, **kw)

    return run


CASES = {
    "eight-tabu": ("eight", _tabu(1500, 0)),
    "eight-tabu-tenure0": ("eight", _tabu(1500, 1, tenure=0)),
    "eight-tabu-aspiration-off": ("eight", _tabu(1500, 2, aspiration="off")),
    "eight-tabu-memory": ("eight", _tabu(1500, 3, elite_size=3, **MEMORY["eight"])),
    "eight-tabu-mid-neighbourhood": ("eight", _tabu(113, 4)),
    "eight-tabu-target": ("eight", _tabu(5000, 5, target=255.0)),
    "eight-steepest": ("eight", _steepest(1000, 0)),
    "eight-steepest-restarts": ("eight", _steepest(1000, 1, restart=True)),
    "pack10-tabu": ("pack10", _tabu(3000, 0)),
    "pack10-tabu-tenure0": ("pack10", _tabu(3000, 1, tenure=0)),
    "pack10-tabu-aspiration-off": ("pack10", _tabu(3000, 2, aspiration="off", tenure=12)),
    "pack10-tabu-memory": ("pack10", _tabu(3000, 3, elite_size=3, **MEMORY["pack10"])),
    "pack10-tabu-mid-neighbourhood": ("pack10", _tabu(347, 4)),
    "pack10-steepest-restarts": ("pack10", _steepest(3000, 5, restart=True)),
    "tour12-tabu": ("tour12", _tabu(3000, 0)),
    "tour12-tabu-tenure0": ("tour12", _tabu(3000, 1, tenure=0)),
    "tour12-tabu-aspiration-off": ("tour12", _tabu(3000, 2, aspiration="off", tenure=10)),
    "tour12-tabu-memory": ("tour12", _tabu(3000, 3, elite_size=3, **MEMORY["tour12"])),
    "tour12-tabu-mid-neighbourhood": ("tour12", _tabu(200, 4)),
    "tour12-steepest": ("tour12", _steepest(3000, 5)),
    "tour12-steepest-restarts": ("tour12", _steepest(3000, 6, restart=True)),
    "tour12-steepest-mid-neighbourhood": ("tour12", _steepest(150, 7)),
    "pack12-tabu": ("pack12", _tabu(4000, 0)),
    "pack12-tabu-tenure0": ("pack12", _tabu(4000, 1, tenure=0)),
    "pack12-tabu-aspiration-off": ("pack12", _tabu(4000, 2, aspiration="off", tenure=15)),
    "pack12-tabu-memory": ("pack12", _tabu(4000, 3, elite_size=3, **MEMORY["pack12"])),
    "pack12-tabu-mid-neighbourhood": ("pack12", _tabu(401, 4)),
    "pack12-steepest": ("pack12", _steepest(4000, 5)),
    "pack12-steepest-restarts": ("pack12", _steepest(4000, 6, restart=True)),
    "cube-tabu-memory": (
        "cube", _tabu(100, 0, start=cube_state(1, 0, 0), elite_size=3, **MEMORY["cube"])
    ),
    "cube-steepest-restarts": ("cube", _steepest(60, 1, restart=True)),
    "tour12-steepest-start": ("tour12", _steepest(3000, 8, start=list(range(12)))),
    "eight-random": ("eight", _random(2000, 0)),
    "pack10-random-target": ("pack10", _random(5000, 1, target=5.0)),
    "rastrigin3-random": ("rastrigin3", _random(1000, 2)),
    "cube-random": ("cube", _random(50, 3)),
    "eight-random-target": ("eight", _random(2000, 5, target=250.0)),
    "tour50-random": ("tour50", _random(150, 6)),
    "eight-hopfield": ("eight", _hopfield(5, 0, max_steps=640)),
    "tour5-hopfield": ("tour5", _hopfield(20, 1, p=TankParams(d=40.0))),
    # 613 = 4 * 144 + 37 steps: a restart the cap ends stops 37 steps into a sweep
    "tour12-hopfield": ("tour12", _hopfield(6, 1, p=TankParams(d=10.0), max_steps=613)),
    "tour12-hopfield-textbook": ("tour12", _hopfield(6, 0, max_steps=613)),
    "tour40-hopfield-textbook": ("tour40", _hopfield(2, 0)),
    "ties6-hopfield": ("ties6", _hopfield(10, 0, p=TankParams(a=1, b=1, c=2, d=1))),
}

# Tours at benchmark sizes, a few neighbourhoods each: irrational edges
# (tour50), a lattice full of exact ties and twin reversals (grid16, whose
# small neighbourhoods let it reach the plateau, a restart and a halt) and
# rows past numpy's 128-term pairwise split (tour140).
SIZED = {"tour50": 6200, "grid16": 1500, "tour140": 30000}
for _name, _budget in SIZED.items():
    CASES[f"{_name}-tabu"] = (_name, _tabu(_budget, 0))
    CASES[f"{_name}-tabu-tenure0"] = (_name, _tabu(_budget, 1, tenure=0))
    CASES[f"{_name}-tabu-aspiration-off"] = (
        _name, _tabu(_budget, 2, aspiration="off", tenure=4)
    )
    CASES[f"{_name}-tabu-memory"] = (_name, _tabu(_budget, 3, elite_size=3, **MEMORY[_name]))
    CASES[f"{_name}-steepest-restarts"] = (_name, _steepest(_budget, 4, restart=True))

# Per instance: a starting temperature near 10x its mean step, for the
# fixed-start and linear schedules.
T0 = {"eight": 300.0, "tour50": 2.0, "pack10": 20.0, "grid16": 14.0, "rastrigin3": 150.0,
      "pack12": 130.0}


def _sa(budget, seed, target=None, schedule="calibrated", max_temperature_steps=None, **kw):
    def run(problem, instance):
        cooling = None
        if schedule == "fixed":
            cooling = CoolingSchedule(t0=T0[instance], steps_per_temperature=50,
                                      max_temperature_steps=max_temperature_steps)
        elif schedule == "linear":
            t0 = T0[instance]
            cooling = CoolingSchedule(
                kind="linear", t0=t0, decrement=t0 / 80, t_floor=t0 / 1000,
                steps_per_temperature=50,
            )
        return simulated_annealing(problem, Budget(budget, target), seed, cooling, **kw)

    return run


def _first_accept(budget, seed, random_walk=False, start=None, target=None):
    def run(problem, instance):
        return hill_climb_first_accept(
            problem, Budget(budget, target), seed, start=start, random_walk=random_walk
        )

    return run


TRAJECTORY = {
    "sa-calibrated": _sa(6000, 0),
    "sa-fixed": _sa(6000, 1, schedule="fixed"),
    "sa-linear": _sa(6000, 2, schedule="linear"),
    "sa-rescaled": _sa(6000, 3, rescaled=True),
    "sa-rescaled-alpha": _sa(6000, 4, rescaled=True, alpha=0.5),
    "first-accept": _first_accept(4000, 7),
    "first-accept-random-walk": _first_accept(2000, 8, random_walk=True),
}
TRAJECTORY_CASES = {
    f"{instance}-{name}": (instance, run)
    for instance in ("eight", "tour50", "pack10")
    for name, run in TRAJECTORY.items()
}
TRAJECTORY_CASES["eight-sa-target"] = ("eight", _sa(10000, 9, target=242.46491759376055))
TRAJECTORY_CASES["pack10-sa-target"] = ("pack10", _sa(10000, 10, target=4.0))
for name in ("sa-calibrated", "sa-rescaled", "first-accept", "first-accept-random-walk"):
    TRAJECTORY_CASES[f"grid16-{name}"] = ("grid16", TRAJECTORY[name])
# A continuous landscape draws each step with `uniform`, a vector-valued call.
for name in ("sa-calibrated", "sa-fixed", "first-accept"):
    TRAJECTORY_CASES[f"rastrigin3-{name}"] = ("rastrigin3", TRAJECTORY[name])
TRAJECTORY_CASES["eight-first-accept-start"] = (
    "eight", _first_accept(2000, 12, start=[3, 1, 4, 0, 5, 2, 6, 7])
)
TRAJECTORY_CASES["pack10-sa-start"] = ("pack10", _sa(4000, 13, start=[0] * 10))
TRAJECTORY_CASES["tour50-sa-fixed-start"] = (
    "tour50", _sa(4000, 14, schedule="fixed", start=list(range(50)))
)
# Fractional sizes: each sampled move is costed by `cost` of the built neighbour.
TRAJECTORY_CASES["pack12-sa-calibrated"] = ("pack12", TRAJECTORY["sa-calibrated"])
TRAJECTORY_CASES["pack12-first-accept"] = ("pack12", TRAJECTORY["first-accept"])
# Every step of a random walk keeps its move, so a fractional chain is re-summed each step.
TRAJECTORY_CASES["pack12-first-accept-random-walk"] = (
    "pack12", TRAJECTORY["first-accept-random-walk"]
)
# A state graph draws whole neighbours: its chain state is the state id itself.
for name in ("sa-calibrated", "first-accept-random-walk"):
    TRAJECTORY_CASES[f"cube-{name}"] = ("cube", TRAJECTORY[name])
# Tours past 50 cities: a sampled reversal here spans up to a few hundred cities.
for name in ("sa-calibrated", "first-accept-random-walk"):
    TRAJECTORY_CASES[f"tour140-{name}"] = ("tour140", TRAJECTORY[name])
for name in ("sa-calibrated", "first-accept"):
    TRAJECTORY_CASES[f"tour300-{name}"] = ("tour300", TRAJECTORY[name])
# Tours of 1-3 cities: every reversal is the same cyclic tour, so a move draws nothing.
for n in (1, 2, 3):
    for name in ("sa-calibrated", "sa-rescaled", "first-accept", "first-accept-random-walk"):
        TRAJECTORY_CASES[f"tour{n}-{name}"] = (f"tour{n}", TRAJECTORY[name])
# Runs that end inside the probe walk: two budgets, and a target reached at evaluation 36.
TRAJECTORY_CASES["eight-sa-short"] = ("eight", _sa(40, 15))
TRAJECTORY_CASES["rastrigin3-sa-short"] = ("rastrigin3", _sa(60, 16))
TRAJECTORY_CASES["cube-sa-target"] = ("cube", _sa(1000, 17, target=5.0))
# Loop exits: a budget spent on the last step of a temperature (the start and
# 60 steps of 50), a schedule frozen with budget left, a first-accept target.
FIRST_ACCEPT_TARGET = {"eight": 242.46491759376055, "pack10": 4.0}
for _name, _target in FIRST_ACCEPT_TARGET.items():
    TRAJECTORY_CASES[f"{_name}-sa-step-boundary"] = (_name, _sa(1 + 50 * 60, 18, schedule="fixed"))
    TRAJECTORY_CASES[f"{_name}-sa-frozen"] = (
        _name, _sa(6000, 19, schedule="fixed", max_temperature_steps=30)
    )
    TRAJECTORY_CASES[f"{_name}-first-accept-target"] = (
        _name, _first_accept(4000, 18, target=_target)
    )



def _aco(budget, seed, target=None, **cfg):
    def run(problem):
        return aco_run(problem, Budget(budget, target), seed, AcoConfig(**cfg))

    return run


ACO_CASES = {
    "eight-aco-sum": ("eight", _aco(400, 0)),
    "eight-aco-product": ("eight", _aco(400, 1, rule="product", w_tau=1.7)),
    "eight-aco-mid-iteration": ("eight", _aco(100, 2, ants=3)),
    "eight-aco-tau-max": ("eight", _aco(400, 3, tau0=0.05, tau_max=0.06, local_deposit=0.004)),
    # every (1 / d) ** 400 underflows to 0.0, so every choice is uniform
    "eight-aco-uniform": ("eight", _aco(64, 4, rule="product", w_eta=400.0)),
    "eight-aco-target": ("eight", _aco(5000, 5, target=242.4649175937606)),
    "tour1-aco": ("tour1", _aco(10, 16)),
    "tour2-aco": ("tour2", _aco(10, 6)),
    "tour3-aco": ("tour3", _aco(12, 7)),
    "tour9-aco": ("tour9", _aco(200, 8)),
    "tour9-aco-product": ("tour9", _aco(200, 9, rule="product", w_tau=0.6, w_eta=3.3)),
    "tour50-aco": ("tour50", _aco(150, 10)),
    "tour50-aco-product": ("tour50", _aco(150, 11, rule="product")),
    "tour140-aco": ("tour140", _aco(10, 12, ants=4)),
    "tour140-aco-product": ("tour140", _aco(6, 13, ants=3, rule="product", w_tau=2.5)),
    # trails left unwalked for a few iterations fall to the tau_min floor
    "eight-aco-tau-min": ("eight", _aco(80, 14, rho=0.9)),
    "tour9-aco-tau-min": ("tour9", _aco(90, 15, rho=0.6, tau_min=0.05)),
}


def _pso(budget, seed, target=None, **cfg):
    def run(problem):
        return pso_run(problem, Budget(budget, target), seed, SwarmConfig(**cfg))

    return run


BALANCED = dict(size=20, p_increment=2.0, g_increment=2.0)  # pso_balanced.json
LOPSIDED = dict(size=20, p_increment=20.0, g_increment=0.2)  # pso_lopsided.json

PSO_CASES = {
    "line-pso-balanced": ("line", _pso(5000, 0, **BALANCED)),
    "line-pso-lopsided": ("line", _pso(5000, 1, **LOPSIDED)),
    "line3-pso-balanced": ("line3", _pso(2000, 2, **BALANCED)),
    "rastrigin3-pso-balanced": ("rastrigin3", _pso(3000, 3, **BALANCED)),
    "rastrigin10-pso-balanced": ("rastrigin10", _pso(5000, 4, **BALANCED)),
    "rastrigin10-pso-lopsided": ("rastrigin10", _pso(5000, 5, **LOPSIDED)),
    "rastrigin10-pso-mid-sweep": ("rastrigin10", _pso(1010, 6, **BALANCED)),
    "line-pso-target": ("line", _pso(5000, 7, target=1e-3, size=7)),
    "rastrigin3-pso-target": ("rastrigin3", _pso(20000, 8, target=0.5, size=13)),
    "rastrigin10-pso-inertia": ("rastrigin10", _pso(3000, 9, size=15, inertia=0.7)),
    "rastrigin3-pso-vmax": ("rastrigin3", _pso(2000, 10, size=10, vmax=0.3)),
    "rastrigin10-pso-size1": ("rastrigin10", _pso(300, 11, size=1)),
    "line-pso-size1": ("line", _pso(300, 12, size=1)),
    "rastrigin130-pso": ("rastrigin130", _pso(400, 13, size=9)),
}

DIGESTS = {
    "cube-steepest-restarts": "23fc10764e25c7066b3598e7b4fcc054f6b2dfc82412bc8495daa47f8b76afbe",
    "cube-tabu-memory": "3d99af233dcd5c178a1df4552eeb14f1d68945c2993ca74628f0a0609f9b4f1f",
    "eight-steepest": "6ee1a0ec145692170d1b20e729b3141154214d4b95ca9f38061debb69ad5cab6",
    "eight-steepest-restarts": "0c8ce321c2d204693e9b9c4449790edf67efbe68a4ee80140b78150ce86051b2",
    "eight-tabu": "8b5bd4897b2bfb5a42f154fc301c465348a108dc705693a26fc42d64b41dd69e",
    "eight-tabu-aspiration-off": "d475963b7d14a981b5a3a0e9f25dfee2e90bac345fe5292ab71f38f04d7c20e5",
    "eight-tabu-memory": "a716d3eae4f9b9a76ec3cf2db0a1a7c830c36439405aa3750c3009597dd47bfc",
    "eight-tabu-mid-neighbourhood": "87229e22d62e7a6fc1f01b63bcce8c11d1cee182fa30ac463472ed3800192a1a",
    "eight-tabu-target": "aa96d6544b05bef48c9206f1f80fd71c1297fe6d2d3adc664e568fb15c08850e",
    "eight-tabu-tenure0": "21d453b004e4c215fa1c990029cffa479da360e6e990924ea917210c27a4cf55",
    "pack10-steepest-restarts": "197d5e66c55b0e82c88fc138958673d3b1fe39e0deae9e8e388af5ebe68b2ee6",
    "pack10-tabu": "06716d3a469610c8439da935dc538e0d68fe8c077a2c841559e47c1bc5805d22",
    "pack10-tabu-aspiration-off": "5e004d7a653d4a7c000024e375ad691309469db07c0fc7f70fc55d2c3eee1dae",
    "pack10-tabu-memory": "7f1779cbbb390b91ee509be25278e12d6bb938ecd12f33662c328dbfac84763a",
    "pack10-tabu-mid-neighbourhood": "f8ba3d17545f36911ef7f6ab0db2844cf5155ad1e4e4f6f165eda1d2193aec1c",
    "pack10-tabu-tenure0": "2904bcf8e2d1630daa39fa7440585424ddf87d675706a0e5380ee5bdad3fbd5e",
    "pack12-steepest": "0b3d6a3e4bff196d81e4f794a3a84c7490f0878168fa061e1baad749a3b69612",
    "pack12-steepest-restarts": "20c6123de56f7f299e01b6e8fc4d2a92491c0077fbde27b5a3cb7c89cd083aaa",
    "pack12-tabu": "7ee08c9c5dcf74041a0f9c7bcbc6f53433e9bc8d77a01bee181bd857bdfce366",
    "pack12-tabu-aspiration-off": "240f73ee324c6388f5f461a2822f4d51f045b0b2077786f6af74514882a15497",
    "pack12-tabu-memory": "e24ff0cb4f9832f5c516ba2eea468244ba838c9a83cc2514c5776b361a44afb9",
    "pack12-tabu-mid-neighbourhood": "aa880af6fc3142ec321679c676b1d032003c620c97c8a42bfb7c5d25fa11365a",
    "pack12-tabu-tenure0": "fd8cb2ed001249304c7e9e1c76be57060a87eb9ee4873487805046b5dc104859",
    "tour12-steepest": "1e55deac542bad5fc37c7917168fc8bbd4c8480bb8930177029c4c125298dce7",
    "tour12-steepest-mid-neighbourhood": "326a353a2549d9640ae0e27f2d16c7e734eb47b852aacc77fec4d0ae02e4ba81",
    "tour12-steepest-restarts": "b79b41ccdfc0ee98c0dcec1abfb6b0f57357c9d0efc1abec4ece9e70c6e3ec38",
    "tour12-tabu": "227bbdf802c814f191a3ebe288525edb1094c15ae3756864b6fdd1aa0f9b9238",
    "tour12-tabu-aspiration-off": "357a086d8b7265998064119fcadb9573ef3d86d68096c046c2b05fd95a79bcac",
    "tour12-tabu-memory": "4be4795946b80195960c62ec45f9b711e708fce74c5d903f550a45157304d953",
    "tour12-tabu-mid-neighbourhood": "368bf3288d97c72982e6edaaf893e18e161ea9ce569ac3df4962f5fd45f66fae",
    "tour12-tabu-tenure0": "6080799e0cbbf5aab05bbd37cf8aa8963302c63a85da71610423682f38b7e5f0",
    "tour12-steepest-start": "db841346dbfef951f0473ca41fd68428af7c1d93fd51800efa86b463da2c1bb0",
    "eight-random": "400b2aee48c8e34b04a60e806fae21ec7135487c2c4f6b35a2daf64ae80b7c6f",
    "pack10-random-target": "91f7025958b3703c5da7371de9e5f12ba2ac1eb70e5ec6e019eb0955f617f978",
    "rastrigin3-random": "23e8106de62e0ad38c5cb91baa280acc28fee8a29bda6cff1d95e29f21e1d1a9",
    "cube-random": "93344dcaeb3d55564bcbeaa697883ffde18fa461e947cefe7778729d120ac05a",
    "eight-random-target": "03c8e5b3e6e6c8ec106c0a15afab4534cc04c19602eedd8fbd2c022b0ea67aa9",
    "tour50-random": "130f52bb2f8c6133b68ef4b543a0f94fc29c442fbe482bf0b1955ce11afb5134",
    "eight-hopfield": "50083b59753c6cf5e92b80e0936d047474cf7c901441eef8ceba4d9f4cc130f2",
    "tour5-hopfield": "cfda22b912278f17586e8734b1efa2039b41866ad9fd01a8d38fb187afafa642",
    "tour12-hopfield": "79571d5c68c4e0b2fa45f6e3774fe86aaab32f66d0f4ebf2f40411c66c6b00cc",
    "tour12-hopfield-textbook": "4d74129250526055bc8ed91ba03fdf7ca33c5753500d5b18fa9afe7c023fd0f4",
    "tour40-hopfield-textbook": "fe378f8747e702d4a92f054056cbc3417612b9bc5dadebad75c19c58012e63a4",
    "ties6-hopfield": "0df91441045883ef7fb09122cba2380b4f4ddad4ed057fd910f32413dddf3fa7",
    "grid16-steepest-restarts": "eb2a59222a04b353135fa63e7a32da13bc353331b61b3c6ecf9542bfbf24d0d3",
    "grid16-tabu": "d910483869cb12c78998bca32f7c8ee0c20d3fc7c21e7542efbf19dd4df1f385",
    "grid16-tabu-aspiration-off": "3f03b654f2df87de163d29671b4d461e1eeb628dcca1e455002144c14703ffef",
    "grid16-tabu-memory": "558705e6e2be038a9a5d432f3ec152133e0657abf9781d3cb872396f73c74960",
    "grid16-tabu-tenure0": "b377ff97fb2294425557c41161c27ba49cc795de61b087696305942ea24b920f",
    "tour140-steepest-restarts": "154fcaca0de24e28fdd88924bb58cc8b88b8b4773f8470219becc24fce23811f",
    "tour140-tabu": "633072ce9d53570f0a4d46e70e7cafaa1bcbe91fbb075396fc7eeb5cc528f574",
    "tour140-tabu-aspiration-off": "ee84f3e4feeae48df28723a07bf004927c08576a12ffc2dcf8607a8c857b52c1",
    "tour140-tabu-memory": "ba52d4cde6af160b8ce14272b84abe1e816d070863744b247fb0b686a387278d",
    "tour140-tabu-tenure0": "c7a210deab585321f85b6c330daa12aa744b2bff4aa48ddcd4e067970af52d0e",
    "tour50-steepest-restarts": "8e90f828dd3a82388b772c4f488e632428d0d1bdf4fe744cc3fa5566815d3d2b",
    "tour50-tabu": "2a8444e1c179211d48eadd96ba3ffa337a2ee51001b59136198de8bc084a12fe",
    "tour50-tabu-aspiration-off": "00715e2f0002d156e30e9c482d678d9856b8cc7680c356e89fce498ab5e2c43e",
    "tour50-tabu-memory": "44f6797652b2772ecad17845ec5d7c094e8af905fd4dad7eb71da81f7d94eb27",
    "tour50-tabu-tenure0": "b53d228b3820fc4f1d86606fef880d98023a691c8d5adff2772c2aaf79706e8e",
}

TRAJECTORY_DIGESTS = {
    "eight-first-accept": "002a3848962612a0bc6154373ce43a89ff8605aa78e1630d44ce30c514fbeb96",
    "eight-first-accept-random-walk": "7ce421528bb7d2b021c41324be90f45f9995f20debe10426fcb57becf6882258",
    "eight-sa-calibrated": "5f0fc04e3ab719e83604ee5a764daf43c7c8f950935d1af83c5b9851dce2e281",
    "eight-sa-fixed": "27f8ed7c52faad88aa9cd8e78236d3ade747645de351622123f1b783bf6ca27f",
    "eight-sa-linear": "5f30a679563e9fe37e96c4edcc988c3975e66e758ba21acc262dff7647d7fa58",
    "eight-sa-rescaled": "5ad51c3fdb67e373c7b9bae10899720d5e09311d857cd2c3226ac3b49bc244c5",
    "eight-sa-rescaled-alpha": "a18f6cead01473e1825893926bbcf384361bb4e8cff24faf45bba740e62d68b2",
    "eight-sa-target": "3a4283fc88f09da9d3bfc87628478b0b816c44371b8010f4eafd408e1f33752e",
    "pack10-first-accept": "acbb80c501756621ddd9f8b3640282e823e3fc60fe3f6288e438f3e5a294bb09",
    "pack10-first-accept-random-walk": "d8ff9a4aebb3771edca54f4c2a9fdd12d76813626537a674a760a10fcb1188c1",
    "pack10-sa-calibrated": "7df46746122e380e8acc144ba8c9b632ea3821f8200bbd47a4c6f86907e2d144",
    "pack10-sa-fixed": "a6fc0afd3b5a0f8da45dfca690e2f3d29cf7f8704a66c1bfc9e96f9347c683e6",
    "pack10-sa-linear": "bca9def7f594dea5ba326eb240a6c66147fa164496d6ff0a042408fbfc3c22ed",
    "pack10-sa-rescaled": "16e95d5ac44bc9cc15a56a2316c876bd8d91b08deb88ff75ee31ea4a67b2958d",
    "pack10-sa-rescaled-alpha": "36962f8496e99d1104d30246ba391ea0834fdd40674ea86f0dc4e41b59d0c050",
    "pack10-sa-target": "7b3810ad656dbfd4c73ac0a07bcca94e254267d68da47f71a855fc750d767ccd",
    "tour50-first-accept": "d8a69aabd60fab0349a6bf65d6a606c06d7c951723039b99f4300bd9d4c9560b",
    "tour50-first-accept-random-walk": "dcf415b52bef463fb010ed5fe5519f770cb13b9c949c793be33cb2874ee576b1",
    "tour50-sa-calibrated": "02f54de7fcad5790093c7158c547dcd47ba52f8c5b33cf8cc31920c0f80b05ba",
    "tour50-sa-fixed": "1445838f9a21c4c4fbd2d64cccad29da577af1ac63546f40fad2e34a6692697e",
    "tour50-sa-linear": "c1454cddf95dc648c3592759e94fe49bad3e3e8b8407718b2bb34d626c4eca27",
    "tour50-sa-rescaled": "fa2ac6af02baf20e87818f02f6120ed193d5c4d9c083e803da4b96fdecf17f9a",
    "tour50-sa-rescaled-alpha": "57938ccf677bab42f953af30cbb61b907e56a8ce656796558f883ffa2f1a58cb",
    "tour140-sa-calibrated": "75e090d7454a2e9366fea552278fdc04b572bf9539886825de4b726a7647fb68",
    "tour140-first-accept-random-walk": "bc3aa2d1326a9cd5ee86b4adeb2ee8d76f0a4479c48619f998ad2b8dbff0a4b8",
    "tour300-sa-calibrated": "163ddb8fdb1ec978c8e75065f07c4886d5a5d123d0c19b82214b90bb3c063f1a",
    "tour300-first-accept": "32094b22a9171321f42c5effec0ea45ac064a6e89846364e5a15eb4ea9800268",
    "tour1-sa-calibrated": "0cffe9ab8ceca96c3f694092ae3eb95356b9d22ee52d53d0a989501d703b0ed6",
    "tour1-sa-rescaled": "829d0c0b3c9f40ce2251f9b2adcfb33edd105214cd828355532a9bb064a14f79",
    "tour1-first-accept": "4ecb18fecdf8506d325b4fd987e8c521ef584403ae6c850857bfebf83759f245",
    "tour1-first-accept-random-walk": "fa53c3c7ee0087e3316337bfa581a506012d8b3f1a6fcd74f62ac7992d834278",
    "tour2-sa-calibrated": "7d0ff3d12e89432fec22bb39c0671159ee67a45dc4753af44e1962c862e3e800",
    "tour2-sa-rescaled": "a744e651b84b1f267bdf47f48e275b7c9073c94487d56b70a78fe6fb42b6d3df",
    "tour2-first-accept": "4b7a0d89a4d5a6cfe7186e4367343e913ebc1675e650fdab9292ea6f6b74a48f",
    "tour2-first-accept-random-walk": "e12af739145ea2d909408bc4eb24cc0c7a3dad446406406ca9ea56558045ed04",
    "tour3-sa-calibrated": "0adbdb7e9abe2064accefcb612212fff6716910be5ced89af8a3c7205643b0ae",
    "tour3-sa-rescaled": "f28ac2f8bae976a0593d9ea2a307e484f3db661ee62379eb2ae43c7c7703e77a",
    "tour3-first-accept": "d66c9385d3b158137d71386f40cc3ea2387e3e9e43bba508864aa69cb7a3462a",
    "tour3-first-accept-random-walk": "81b92dcc190e754311ad173593b487dc5cdfadcb6b3a593cbd2177f30483e008",
    "grid16-first-accept": "8ca8c793c3b71dda42b92d9fd4956b6447c4404f23ea446a9725718284b4343d",
    "grid16-first-accept-random-walk": "c1f386ea79cd06a587c6d3929ee9227f25c88b0b4df4ac343ecbe9224fa4ecc3",
    "grid16-sa-calibrated": "722a7210cc48723f4b40ee730765e197554e171e1cd93ecf8db06aa3a7db06c4",
    "grid16-sa-rescaled": "f4e2a3b2917c16a67f0404d36d54b3909023d90b885da2ab0e81b5b811b77489",
    "eight-first-accept-start": "116accc96088edf416d59ae2b42713ebf5cfd75fea366a838ab0dc0d4d538f5b",
    "pack10-sa-start": "420bdfee1c627c21a819167b7fdaf03961fce94ecae2ca7ca6d2cc042b6d0595",
    "tour50-sa-fixed-start": "abe67c55af9ad609bda556b1858c5c8aecf90562a35ea85a9d8d3895b07faef5",
    "rastrigin3-sa-calibrated": "ed284f476f35af63915adce5b01453c66d384210da8b3eb5c602d90f32d10ac2",
    "rastrigin3-sa-fixed": "d331dd39f4930095db3f591c173aeb9fc0e7699aace02248b55ad2eebba83fe0",
    "rastrigin3-first-accept": "7b5c8d791733cdca18e673028676b1ecdfd3efecdab738cba839139cea836443",
    "pack12-sa-calibrated": "c7cbf578ac6bc5cc633d08baf11904c3ae4583fe2efbef408d80b60db2c7f353",
    "pack12-first-accept": "092fdd325143c1e4a101b90789685abe8e168ea24b7f62fe8435fb6ed8550dec",
    "pack12-first-accept-random-walk": "cccdc890d599a08f0299d4a419331d74f8ba2f212d0f24b478a99112e2c95dea",
    "cube-sa-calibrated": "f82601260ef1a2361279cefebe86fef4c0e0799435dc89e3e8052666cf50fbef",
    "cube-first-accept-random-walk": "e93529b54417a3299a002404f7a87ad324fb833a24cd3f16f241b98f633df453",
    "eight-sa-short": "7d083e4e39ae80156b81769b9b966f08289f02a4c1d89264354e2bcdce5d5c81",
    "rastrigin3-sa-short": "192cce30dcd0d7f479aae8cdf8f50b5697d7097a49d62e2de7b374e8050d30cb",
    "cube-sa-target": "cc50acc30a1ed34850fd4e583bc3526c8a5ace31c98378a7396d285a210359c6",
    "eight-sa-step-boundary": "25f2844fbbf750c0c465559bbf78897b2a1e2fa09154a33c686a801a7c5f78b7",
    "eight-sa-frozen": "b6e49ad3ca0875d325d83c90178bdf90cc303f1662f7d1776645db963493c28b",
    "eight-first-accept-target": "7c5c477b28dc9a38bcfb165bb662b308b6a3dc346a947015842ddc767f89e322",
    "pack10-sa-step-boundary": "96cdb898b0bdb80fc0f0bb1acd16e2ae881dd661a67c348f414aac769fcd45bd",
    "pack10-sa-frozen": "25e8e5609ace84c22a412b596fb58d85f0c12aa23f435ad4e355bbf58216d796",
    "pack10-first-accept-target": "b270cedc7003da40def1f5cf766a8112b488e40eec41d652fd4100bb5e9c700a",
}


ACO_DIGESTS = {
    "eight-aco-mid-iteration": "a1242fb121269b20eef7b77bf0504383519cd542a1ef3a743074fc64e6e07d79",
    "eight-aco-product": "0dc617450ad0eb4c47a478fe52f5cfa752218fca0db27f656eb569abe503a370",
    "eight-aco-sum": "eb5d7a0e8b631a75de66c8ea4d5da8e0a795ce56cc425b7f9936edcd006105e2",
    "eight-aco-target": "14820f2bc090167211ebc335a4ef368a9a16db991b28bd23c909b976e142140b",
    "eight-aco-tau-min": "72db7fd0bbd443acba381cc5462bda092857da9987974046d8ac7c42b4557d78",
    "eight-aco-tau-max": "113e18781e87ac21ce51a9c6b81b6f613d9c4d6685094d27df7f0021f259ac4e",
    "eight-aco-uniform": "352d4396eba6d9241b08b76757a259b09ab254e2b9cd5668baba2e970ed2170f",
    "tour140-aco": "161d201c3717f67ee1a1bc24b7c87fc6a2db2e28b6b5ce075f2f955a5c9d061d",
    "tour140-aco-product": "6b28538cc8ccbe53f4d340b52db29d3a7b5bb657fcbb4b9d7139664587764d01",
    "tour1-aco": "c113c75e26f5c1f9055c6383c9bcf68d48369fca5b448fdb14bbdb28fd8dee14",
    "tour2-aco": "722f95d32526a89c0c3660c74b0399d203e0300fdfd2f1c361c4baa577baa2ba",
    "tour3-aco": "bbefb5d786a8de9a7855d9796da3da54e193a100e2bda9dc15fef4d0a4c80941",
    "tour50-aco": "8788fe49a0ca1834cacdc0557bcd8c9cccc084ccb4697edc99f14c337540eae5",
    "tour50-aco-product": "e15fdf040f7d40e0400c456c0204f76887dc69fc9bf5682b6e8f3a8ffb51f0eb",
    "tour9-aco": "1237a6536116356c4a776f818aa26a96c14b51b8ec5ed73a4377c02120c686ef",
    "tour9-aco-product": "4af2c9621760f443645b3397e684f0982f009b1dfeafd459aa1a613d546ff2a6",
    "tour9-aco-tau-min": "7c090d99a32ddc5c8d7382121721d64c238a5a066be8b4d239afdeb4359601e8",
}


PSO_DIGESTS = {
    "line-pso-balanced": "24c2da7b5c06d3b0de27d97bce03cd7668c4ff70b60bb12eff736892584478c2",
    "line-pso-lopsided": "5cad50ebe6e6e694caabc31654b22032b612430539742bc6b6bf10eea6f6b456",
    "line-pso-size1": "4412bbbf46a93ff78c67422363453eb381564fa5b8d6cf59f77b9b081e6fb65c",
    "line-pso-target": "f4a6faac147fa1dd18f90438bb7399eddd65cad8854317425268c8d1cc498828",
    "line3-pso-balanced": "ec7a869d0c491608596200c0af16597f3c57e6c254b1f8ce2131cd9fa198836a",
    "rastrigin10-pso-balanced": "9d74c9e337e4635032a53f5d294aae03aa9f22f228b6504908ea46a9a109264d",
    "rastrigin10-pso-inertia": "9ff914e6d6b3d5b035e7515e90b87ce0690721ad8114e1052139ccd2f6b8d588",
    "rastrigin10-pso-lopsided": "19801ef403ccc019cc68c12eb8d9eaa089be9a73e775d2032a8b7698ecaea614",
    "rastrigin10-pso-mid-sweep": "09e34c67c3817999ee0c878e0d63b6fc1b8f258eb24cb28065a06389fe375d66",
    "rastrigin10-pso-size1": "d890c17514eeb6d0b7f6239fa66584385424642f7870ae1a499a9f414e9a50ba",
    "rastrigin130-pso": "e8c8af7b96d98a574d855039ac4487ece52f5e0b1616edc3a4fd147c5273d71d",
    "rastrigin3-pso-balanced": "4f257b43b293d416fe98b10f5dfd1e3e929c8938e98a609bcf53f35d3e10d95d",
    "rastrigin3-pso-target": "b1d2a36c6cf6925bed11611ab53944c572f0496442dfd4032af1331bafd6fd49",
    "rastrigin3-pso-vmax": "cb65ef1f7f19991ba9017d454f60cf6c6457e5b02235a02f738c0a5ec0e4b444",
}


def _digest(record) -> str:
    text = json.dumps(record.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_its_pinned_digest(name, instances):
    instance, run = CASES[name]
    assert _digest(run(instances[instance])) == DIGESTS[name]


def test_hopfield_cases_take_the_paths_they_pin(instances, monkeypatch):
    """Each 12-city case has restarts the step cap ends mid-sweep; one decodes valid tours."""
    settled, decoded = [], []
    fixed_point, decode = hopfield.is_fixed_point, hopfield.decode_tour
    monkeypatch.setattr(hopfield, "is_fixed_point",
                        lambda net: settled.append(fixed_point(net)) or settled[-1])
    monkeypatch.setattr(hopfield, "decode_tour",
                        lambda v: decoded.append((settled[-1], decode(v) is not None))
                        or decode(v))
    assert 613 % 144 != 0
    for name, valid in (("tour12-hopfield", True), ("tour12-hopfield-textbook", False)):
        decoded.clear()
        instance, run = CASES[name]
        rec = run(instances[instance])
        assert rec.extras["restarts"] == len(decoded) == 6
        assert (False, False) in decoded  # a restart the cap ended
        assert (rec.extras["valid_tours"] > 0) == valid
        assert ((True, True) in decoded) == valid


# sha256 over each restart's last state, as one byte per neuron, in restart order.
HOPFIELD_STATE_DIGESTS = {
    "eight-hopfield": "df0177815aba4ec11528f9da5a444a2c1227dc570d6cd297b7b6690079321473",
    "ties6-hopfield": "02a1058c57ce3372886d3d9c9ef7578ada77fb0dd269fca0e873756cc9c0745c",
    "tour12-hopfield": "06bca6b9dd256a24b2571d886a6a542987a0b9dae4485cc8d799c57e65f64db1",
    "tour12-hopfield-textbook": "54413c26e21967d73369f4210766f83a41b96531a64b41980f08eb67c30fa497",
    "tour40-hopfield-textbook": "2e637753dfc6b25b922b3dc4e9ba9f06542e8105de98b2bc8678b31621b2cf65",
    "tour5-hopfield": "c6212103f9a692cecc8027351f71f983ece1dec0810f79d2763bd434c90bfcf2",
}


@pytest.mark.parametrize("name", sorted(HOPFIELD_STATE_DIGESTS))
def test_hopfield_final_states_match_their_pinned_digests(name, instances, monkeypatch):
    """A record with few valid tours says little of the dynamics; each restart's last state does."""
    finals = hashlib.sha256()
    decode = hopfield.decode_tour
    monkeypatch.setattr(hopfield, "decode_tour",
                        lambda v: finals.update(np.asarray(v, dtype=np.uint8).tobytes())
                        or decode(v))
    instance, run = CASES[name]
    run(instances[instance])
    assert finals.hexdigest() == HOPFIELD_STATE_DIGESTS[name]


def test_hopfield_tie_case_settles_on_fields_of_zero(instances, monkeypatch):
    """`ties6-hopfield` settles on states where fields of exactly 0 hold neurons on."""
    ties = []
    fixed_point = hopfield.is_fixed_point

    def counted(net):
        settled = fixed_point(net)
        if settled:
            ties.append(int(np.count_nonzero((net.fields() == 0.0) & (net.state == 1.0))))
        return settled

    monkeypatch.setattr(hopfield, "is_fixed_point", counted)
    instance, run = CASES["ties6-hopfield"]
    rec = run(instances[instance])
    assert rec.extras["valid_tours"] > 0
    assert len(ties) == rec.extras["restarts"] and sum(ties) > 0


def test_tour_random_cases_stop_part_way_through_a_block(instances):
    """The target and the budget stop both fall between multiples of 64."""
    hit = CASES["eight-random-target"][1](instances["eight"])
    assert hit.status == "target_reached"
    assert hit.evaluations == hit.evaluations_to_success == 93
    cut = CASES["tour50-random"][1](instances["tour50"])
    assert cut.status == "budget_exhausted" and cut.evaluations == 150
    assert 93 % 64 and 150 % 64


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CASES))
def test_trajectory_record_matches_its_pinned_digest(name, instances):
    instance, run = TRAJECTORY_CASES[name]
    assert _digest(run(instances[instance], instance)) == TRAJECTORY_DIGESTS[name]


def test_probe_walk_cases_end_inside_the_walk(instances):
    """Each stop falls before the start and its 100 probes are counted."""
    for name, evaluations, status in (("eight-sa-short", 40, "budget_exhausted"),
                                      ("rastrigin3-sa-short", 60, "budget_exhausted"),
                                      ("cube-sa-target", 36, "target_reached")):
        instance, run = TRAJECTORY_CASES[name]
        rec = run(instances[instance], instance)
        assert (rec.evaluations, rec.status) == (evaluations, status), name
        assert rec.extras["temperature_steps"] == 0, name


def test_loop_exit_cases_stop_where_they_are_named_for(instances):
    """The budget ends on a temperature step's last proposal, the schedule
    freezes with budget left, and first-accept stops at its target."""
    for name in FIRST_ACCEPT_TARGET:
        instance, run = TRAJECTORY_CASES[f"{name}-sa-step-boundary"]
        rec = run(instances[instance], instance)
        assert (rec.status, rec.evaluations) == ("budget_exhausted", 3001), name
        assert rec.extras["temperature_steps"] == 60, name
        instance, run = TRAJECTORY_CASES[f"{name}-sa-frozen"]
        rec = run(instances[instance], instance)
        assert (rec.status, rec.evaluations) == ("frozen", 1 + 30 * 50), name
        assert rec.extras["temperature_steps"] == 30, name
        instance, run = TRAJECTORY_CASES[f"{name}-first-accept-target"]
        rec = run(instances[instance], instance)
        assert rec.status == "target_reached" and rec.evaluations < 4000, name
        assert rec.evaluations == rec.evaluations_to_success, name


@pytest.mark.parametrize("name", sorted(ACO_CASES))
def test_aco_record_matches_its_pinned_digest(name, instances):
    instance, run = ACO_CASES[name]
    assert _digest(run(instances[instance])) == ACO_DIGESTS[name]


def test_aco_cases_take_the_paths_they_pin(instances, caplog):
    """The mid-iteration, fallback and target cases stop and choose as named."""
    mid = ACO_CASES["eight-aco-mid-iteration"][1](instances["eight"])
    assert mid.evaluations % 3 != 0 and mid.status == "budget_exhausted"
    assert mid.extras["iterations"] == len(mid.extras["iteration_best"]) == 34  # 33 full + 1
    target = ACO_CASES["eight-aco-target"][1](instances["eight"])
    assert target.status == "target_reached" and target.evaluations < 5000
    with caplog.at_level("WARNING", logger="stochopt.aco"):
        ACO_CASES["eight-aco-uniform"][1](instances["eight"])
    assert any("uniform choice" in r.message for r in caplog.records)
    for name, floor in (("eight-aco-tau-min", 1e-4), ("tour9-aco-tau-min", 0.05)):
        instance, run = ACO_CASES[name]
        tau = np.array(run(instances[instance]).extras["pheromone"])
        off_diagonal = ~np.eye(len(tau), dtype=bool)
        assert np.any(tau[off_diagonal] == floor), name  # the floor binds on a real edge


def test_aco_uniform_fallback_warns_once_per_run(instances, caplog):
    """64 tours of 8 cities make 6 drawn choices each, all of them uniform."""
    with caplog.at_level("WARNING", logger="stochopt.aco"):
        ACO_CASES["eight-aco-uniform"][1](instances["eight"])
    warned = [r.getMessage() for r in caplog.records if "uniform choice" in r.getMessage()]
    assert warned == [
        "all desirabilities zero on 384 choices; each fell back to a uniform choice"
    ]


@pytest.mark.parametrize("name", sorted(PSO_CASES))
def test_pso_record_matches_its_pinned_digest(name, instances):
    instance, run = PSO_CASES[name]
    assert _digest(run(instances[instance])) == PSO_DIGESTS[name]


def test_pso_cases_take_the_paths_they_pin(instances):
    """The mid-sweep and target cases stop where they are named for."""
    cut = PSO_CASES["rastrigin10-pso-mid-sweep"][1](instances["rastrigin10"])
    assert cut.evaluations == 1010 and cut.evaluations % 20 != 0
    assert cut.extras["sweeps"] == 50  # 20 + 49 full sweeps of 20, and 10 in the last
    assert len(cut.extras["gbest_curve"]) == 51
    for name, size in (("line-pso-target", 7), ("rastrigin3-pso-target", 13)):
        instance, run = PSO_CASES[name]
        hit = run(instances[instance])
        assert hit.status == "target_reached"
        assert hit.evaluations_to_success % size != 0  # the target falls mid-sweep ...
        assert hit.evaluations == hit.evaluations_to_success  # ... and the run ends there


def test_memory_weights_change_the_walk(instances):
    """The memory cases pin a walk the penalty actually steers."""
    budgets = {"eight": 1500, "pack10": 1500, "tour12": 1500, "pack12": 1500, **SIZED}
    for name, budget in budgets.items():
        cfg = MEMORY[name]
        plain = _tabu(budget, 3, tenure=cfg["tenure"])(instances[name])
        steered = _tabu(budget, 3, elite_size=3, **cfg)(instances[name])
        assert plain.extras["moves"] != steered.extras["moves"], name
