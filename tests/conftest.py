import json
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from stochopt import (
    AcoConfig,
    Budget,
    CoolingSchedule,
    EnsembleStats,
    ExperimentConfig,
    RunRecord,
    SwarmConfig,
    TabuConfig,
    TankParams,
    TspInstance,
    cube_fixture,
    parse_tsp_file,
)

# Hypothesis imports libcst to write the patch it prints for a failing
# property, and that import raises a DeprecationWarning of its own
# (mypy_extensions.TypedDict).  Under the `error::DeprecationWarning`
# filter it would crash pytest instead of printing the falsifying example,
# so it is imported once here, with that warning silenced for it alone.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
EXPERIMENTS = FIXTURES / "experiments"

# each config dataclass, with the fields it needs besides the one under test
CONFIGS = {
    Budget: {"max_evaluations": 10},
    CoolingSchedule: {},
    TabuConfig: {},
    AcoConfig: {},
    SwarmConfig: {},
    TankParams: {},
    ExperimentConfig: {"instance": {"kind": "cube"}, "algorithm": "random"},
    EnsembleStats: {
        "records": (RunRecord("random_search", 0, "budget_exhausted", 1, 1.0, None, ((1, 1.0),)),),
        "budget": 10,
    },
}


@pytest.fixture(scope="session")
def eight():
    return parse_tsp_file(FIXTURES / "eight.tsp")


@pytest.fixture(scope="session")
def eight_oracle():
    return json.loads((FIXTURES / "eight.oracle.json").read_text())


@pytest.fixture()
def cube():
    return cube_fixture()


@pytest.fixture(scope="session")
def triangle():
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return TspInstance(d, name="triangle")
