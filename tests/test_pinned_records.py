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
linear schedules, both rescaled forms, the current-cost curve, random
walks, a 50-city tour with irrational edge lengths) are in no shipped
config or benchmark workload.

The 4x4 lattice is the exception for annealing.  Many of its reversals
trade two edges for two of the same lengths; such a move now costs
exactly the current cost and is accepted without a draw, where the full
recompute summed the reordered tour, could land an ulp above and then
drew a number.  Its two annealing digests are this implementation's (the
full-costing ones were afa0b8db... and 9b350d6a...); its first-accept
digests are the full-costing ones.

The ant-colony digests were taken from the per-choice implementation
(each choice gathered its row of scores with numpy, summed them, and
drew with `searchsorted` over the normalized cumulative sum; each edge
got its local deposit as it was chosen).  Ant construction from one
score snapshot per ant, with a pure-Python wheel and the deposits made
once per tour, must reproduce them bit for bit.  The cases cover both
rules (the product rule with an exponent numpy raises by its generic
`pow`), tours from 2 to 140 cities (past the 128 terms where numpy's
pairwise sum splits), a budget that ends mid-iteration, a `tau_max` the
local deposit hits, the uniform fallback and a target stop.  The four
cases whose budget is not a multiple of the ant count
(`eight-aco-mid-iteration`, `tour9-aco`, `tour9-aco-product`,
`tour140-aco`) were re-pinned when each tour came to be counted before
its deposit: the ant built past the budget no longer lays a trail, so
their `pheromone` lacked that one tour's deposit and nothing else moved.
They were re-pinned again when that ant stopped being built at all and a
partial iteration came to end as a full one does: it now gets the
global update, one more `iteration_best` entry and one more in
`iterations`, and the counted tours did not move.

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

The random-search and Hopfield digests, and those of the first-accept,
steepest and annealing runs from an explicit `start` (given as a list,
so `validate` turns it into the problem's array), were taken before
every searcher drew its start through one `Run.start` and every problem
kind sampled through one `sample_move`; both must reproduce them.
"""

import hashlib
import json

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
            for n in (2, 3, 5, 9, 140)
        },
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
    "eight-hopfield": ("eight", _hopfield(5, 0, max_steps=640)),
    "tour5-hopfield": ("tour5", _hopfield(20, 1, p=TankParams(d=40.0))),
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
T0 = {"eight": 300.0, "tour50": 2.0, "pack10": 20.0, "grid16": 14.0}


def _sa(budget, seed, target=None, schedule="calibrated", **kw):
    def run(problem, instance):
        t0 = T0[instance]
        cooling = {
            "calibrated": None,
            "fixed": CoolingSchedule(t0=t0, steps_per_temperature=50),
            "linear": CoolingSchedule(
                kind="linear", t0=t0, decrement=t0 / 80, t_floor=t0 / 1000,
                steps_per_temperature=50,
            ),
        }[schedule]
        return simulated_annealing(problem, Budget(budget, target), seed, cooling, **kw)

    return run


def _first_accept(budget, seed, random_walk=False, start=None):
    def run(problem, instance):
        return hill_climb_first_accept(
            problem, Budget(budget), seed, start=start, random_walk=random_walk
        )

    return run


TRAJECTORY = {
    "sa-calibrated": _sa(6000, 0),
    "sa-fixed": _sa(6000, 1, schedule="fixed"),
    "sa-linear": _sa(6000, 2, schedule="linear"),
    "sa-rescaled": _sa(6000, 3, rescaled=True),
    "sa-rescaled-target-centered": _sa(
        6000, 4, rescaled=True, alpha=0.5, rescaled_form="target_centered"
    ),
    "sa-record-current": _sa(4000, 5, record_current=True),
    "sa-rescaled-record-current": _sa(4000, 6, rescaled=True, record_current=True),
    "sa-fixed-record-current": _sa(8000, 11, schedule="fixed", record_current=True),
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
TRAJECTORY_CASES["eight-first-accept-start"] = (
    "eight", _first_accept(2000, 12, start=[3, 1, 4, 0, 5, 2, 6, 7])
)
TRAJECTORY_CASES["pack10-sa-start"] = ("pack10", _sa(4000, 13, start=[0] * 10))
TRAJECTORY_CASES["tour50-sa-fixed-start"] = (
    "tour50", _sa(4000, 14, schedule="fixed", start=list(range(50)))
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
    "tour2-aco": ("tour2", _aco(10, 6)),
    "tour3-aco": ("tour3", _aco(12, 7)),
    "tour9-aco": ("tour9", _aco(200, 8)),
    "tour9-aco-product": ("tour9", _aco(200, 9, rule="product", w_tau=0.6, w_eta=3.3)),
    "tour50-aco": ("tour50", _aco(150, 10)),
    "tour50-aco-product": ("tour50", _aco(150, 11, rule="product")),
    "tour140-aco": ("tour140", _aco(10, 12, ants=4)),
    "tour140-aco-product": ("tour140", _aco(6, 13, ants=3, rule="product", w_tau=2.5)),
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
    "pack10-tabu-memory": "1dff151edd96ea663df8430e1f50f0e42b3662c37cc5fa4efc08f9c3440c36d7",
    "pack10-tabu-mid-neighbourhood": "fa20e541e58c89f4f57b5f000b21f53d314fa68719a04dc403adfcedfe698680",
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
    "eight-hopfield": "50083b59753c6cf5e92b80e0936d047474cf7c901441eef8ceba4d9f4cc130f2",
    "tour5-hopfield": "cfda22b912278f17586e8734b1efa2039b41866ad9fd01a8d38fb187afafa642",
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
    "eight-sa-fixed-record-current": "19c3a26d876febb81cc9521d8320d255b3c2f78661e37cc87e7508d7e62e8375",
    "eight-sa-linear": "5f30a679563e9fe37e96c4edcc988c3975e66e758ba21acc262dff7647d7fa58",
    "eight-sa-record-current": "7099ba6c81f7bb256ffa229f1b0227bed02d575017bcc4ae9ed6f432b4a39714",
    "eight-sa-rescaled": "5ad51c3fdb67e373c7b9bae10899720d5e09311d857cd2c3226ac3b49bc244c5",
    "eight-sa-rescaled-record-current": "b1e707d44234b7387bfaa6cd2eda2691f8c24479abaf117f77a0f210d9c07928",
    "eight-sa-rescaled-target-centered": "42ec5e08c83925747bb99d000b8091efde96b21fc8f9ce02b18d4dd8efaf9f68",
    "eight-sa-target": "3a4283fc88f09da9d3bfc87628478b0b816c44371b8010f4eafd408e1f33752e",
    "pack10-first-accept": "acbb80c501756621ddd9f8b3640282e823e3fc60fe3f6288e438f3e5a294bb09",
    "pack10-first-accept-random-walk": "d8ff9a4aebb3771edca54f4c2a9fdd12d76813626537a674a760a10fcb1188c1",
    "pack10-sa-calibrated": "babfe5a7127cd7e9b1b59ff67a09a144b7060ad4b2c4bb68a15db5c984952fdb",
    "pack10-sa-fixed": "a24e7448318db9c5bbec205f9f00ad9a6c9f0d470da5c8efec28e94805ec3ff0",
    "pack10-sa-fixed-record-current": "02d2782a0a51bef35a5951cc1e39e83aa266086e48b5929f857ea72156813db9",
    "pack10-sa-linear": "070a52d1ab61cb7819a188b1d5c0c4c6d146ba90cef0e480b61998e53df33dbc",
    "pack10-sa-record-current": "8f358712ce5801c88b377b6b976fd241d45614428aae6d1665af76fde2b34b81",
    "pack10-sa-rescaled": "41199edfa69a5243462b4ccc56edf09067e99396e8c890d5ad8f70c0bc0dabed",
    "pack10-sa-rescaled-record-current": "7244a58cff17ce2650a6868032138557300aa6c3431bc7d8e5822495940b96d2",
    "pack10-sa-rescaled-target-centered": "a2f89f046ee5d664e63f73a7e501f93822e4f86d168543b04062cef93348b910",
    "pack10-sa-target": "ff94896ffbdd41a5f0154d805e7324f9eb5a138c289796b51c3696d546e90ca2",
    "tour50-first-accept": "d8a69aabd60fab0349a6bf65d6a606c06d7c951723039b99f4300bd9d4c9560b",
    "tour50-first-accept-random-walk": "dcf415b52bef463fb010ed5fe5519f770cb13b9c949c793be33cb2874ee576b1",
    "tour50-sa-calibrated": "02f54de7fcad5790093c7158c547dcd47ba52f8c5b33cf8cc31920c0f80b05ba",
    "tour50-sa-fixed": "1445838f9a21c4c4fbd2d64cccad29da577af1ac63546f40fad2e34a6692697e",
    "tour50-sa-fixed-record-current": "458355349d3e63e7d0aead7f8b1694725192ee5a72b689520a24777b1d97cc22",
    "tour50-sa-linear": "c1454cddf95dc648c3592759e94fe49bad3e3e8b8407718b2bb34d626c4eca27",
    "tour50-sa-record-current": "7a854473478671a495f7ee0989cf57b4759634418226ad67789490d14276452f",
    "tour50-sa-rescaled": "fa2ac6af02baf20e87818f02f6120ed193d5c4d9c083e803da4b96fdecf17f9a",
    "tour50-sa-rescaled-record-current": "26b395a5fd44ff812243d0e352f1b2f8ce1f74188f88bb23a63d4356503a5908",
    "tour50-sa-rescaled-target-centered": "7e37a4a3b9f599e82380611fde3b8270c7a18dd47262653f38a0423d1b99c154",
    "grid16-first-accept": "8ca8c793c3b71dda42b92d9fd4956b6447c4404f23ea446a9725718284b4343d",
    "grid16-first-accept-random-walk": "c1f386ea79cd06a587c6d3929ee9227f25c88b0b4df4ac343ecbe9224fa4ecc3",
    "grid16-sa-calibrated": "722a7210cc48723f4b40ee730765e197554e171e1cd93ecf8db06aa3a7db06c4",
    "grid16-sa-rescaled": "f4e2a3b2917c16a67f0404d36d54b3909023d90b885da2ab0e81b5b811b77489",
    "eight-first-accept-start": "116accc96088edf416d59ae2b42713ebf5cfd75fea366a838ab0dc0d4d538f5b",
    "pack10-sa-start": "162de8e6c6ab2a0c734acd397c0ce83f70aa437145754abdc583290bee9ec361",
    "tour50-sa-fixed-start": "abe67c55af9ad609bda556b1858c5c8aecf90562a35ea85a9d8d3895b07faef5",
}


ACO_DIGESTS = {
    "eight-aco-mid-iteration": "a1242fb121269b20eef7b77bf0504383519cd542a1ef3a743074fc64e6e07d79",
    "eight-aco-product": "06befe2f41633fc09568ead0a5ebe1368a259de5e84ccb215da98d35a119cd1d",
    "eight-aco-sum": "c254dd478922bd7bc021f7a1df8f513ca25b183d70473759cd6ca661036e438a",
    "eight-aco-target": "14820f2bc090167211ebc335a4ef368a9a16db991b28bd23c909b976e142140b",
    "eight-aco-tau-max": "113e18781e87ac21ce51a9c6b81b6f613d9c4d6685094d27df7f0021f259ac4e",
    "eight-aco-uniform": "9dc1f02acd6f689f4b82de21c67a3370b2cda634bfc3e25fd8b75bcb4fa1ca80",
    "tour140-aco": "8e88f33d9a41e4437b12be3304a29821f811891a3ac423bcf8c799375d5ab5a1",
    "tour140-aco-product": "bc8cc26ee6d8fc4925f3df0cec48c16775db91b72c062b8eed187fdf10363c12",
    "tour2-aco": "722f95d32526a89c0c3660c74b0399d203e0300fdfd2f1c361c4baa577baa2ba",
    "tour3-aco": "22837810a3ecde68ecf54eda2282308dde8aeec3d7bac7f5e208790659315912",
    "tour50-aco": "9d08c994b03af6976edba8b864a4386d5027f98c5986b14b4381cd1cd89271ea",
    "tour50-aco-product": "5a8b6fedef9ca146e1146450de46e5673f5a258a07ce9fd259f5902bd7db5432",
    "tour9-aco": "18ba334a32f95e113f34c891e82d81384db6cb2e53062a605d51a81d1798dd5b",
    "tour9-aco-product": "590b27bc4b38d64091273548c89bef99ed5e8ecb7cdf92c1ee2f5e196b7d1754",
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


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CASES))
def test_trajectory_record_matches_its_pinned_digest(name, instances):
    instance, run = TRAJECTORY_CASES[name]
    assert _digest(run(instances[instance], instance)) == TRAJECTORY_DIGESTS[name]


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
