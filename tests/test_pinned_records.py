"""Tabu and steepest-descent records pinned by digest.

Each case runs one searcher on a fixed instance and hashes the canonical
JSON of `RunRecord.to_dict()`.  The digests were taken from the
per-neighbour implementation (a solution copy and a `Move` per
neighbour, one `cost` call each); the array neighbourhoods must
reproduce them bit for bit.  The memory-weighted cases are the only
guard on the penalty path, which no shipped config or benchmark turns on.
"""

import hashlib
import json

import pytest

from conftest import FIXTURES
from stochopt import (
    BinPackingInstance,
    Budget,
    TabuConfig,
    TspInstance,
    cube_fixture,
    cube_state,
    hill_climb_steepest,
    parse_binpacking_file,
    parse_tsp_file,
    seeded_rng,
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
}


def _instances():
    return {
        "eight": parse_tsp_file(FIXTURES / "eight.tsp"),
        "pack10": parse_binpacking_file(FIXTURES / "pack10.txt"),
        "tour12": TspInstance.from_coords(seeded_rng(12).random((12, 2)), name="tour12"),
        "pack12": BinPackingInstance(seeded_rng(21).uniform(0.05, 0.7, size=12), name="pack12"),
        "cube": cube_fixture(),
    }


def _tabu(budget, seed, target=None, start=None, **cfg):
    def run(problem):
        return tabu_search(
            problem, Budget(budget, target), seed, cfg=TabuConfig(**cfg), start=start
        )

    return run


def _steepest(budget, seed, restart=False):
    def run(problem):
        return hill_climb_steepest(problem, Budget(budget), seed, restart_on_optimum=restart)

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


def test_memory_weights_change_the_walk(instances):
    """The memory cases pin a walk the penalty actually steers."""
    for name in ("eight", "pack10", "tour12", "pack12"):
        cfg = MEMORY[name]
        plain = _tabu(1500, 3, tenure=cfg["tenure"])(instances[name])
        steered = _tabu(1500, 3, elite_size=3, **cfg)(instances[name])
        assert plain.extras["moves"] != steered.extras["moves"], name
