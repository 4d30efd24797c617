import json
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

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


# per-dimension boxes of a continuous landscape, with bounds of 0.0 and -0.0 on either side
BOXES = [(-0.0, 2.5), (0.0, 2.5), (-2.5, 0.0), (-2.5, -0.0), (-1.0, 1.0), (-5.0, 5.0)]

ID_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
             np.bool_, np.float32, np.float64)


@st.composite
def id_arrays(draw, n: int):
    """Candidate ids for an encoding of n slots (a tour, a bin assignment).

    A permutation of range(n) in one of `ID_DTYPES` and one of a few
    shapes, some of the right size and some not, with up to two entries
    replaced by another id (a duplicate), an id past the end, a negative
    one, or 2**63.  Each value is taken modulo 2**64 and cast from uint64,
    so a dtype too narrow for it wraps it as C would.
    """
    dtype = draw(st.sampled_from(ID_DTYPES))
    shape = draw(st.sampled_from([(n,), (n,), (n,), (n - 1,), (n + 1,), (n, 1), (1, n), ()]))
    size = int(np.prod(shape))
    values = list(draw(st.permutations(range(n))))[:size]
    values += [0] * (size - len(values))
    wrong = st.one_of(st.integers(0, n - 1), st.sampled_from([n, n + 3, 255, -1, -n, 2**63]))
    for _ in range(draw(st.integers(0, 2)) if size else 0):
        values[draw(st.integers(0, size - 1))] = draw(wrong)
    return np.array([v % 2**64 for v in values], dtype=np.uint64).astype(dtype).reshape(shape)


def outcome(call, arg):
    """What `call(arg)` did: (dtype, bytes) of the array it returned, or (error class, message)."""
    try:
        got = call(arg)
    except Exception as err:  # any class: the class is part of what is compared
        return type(err), str(err)
    return got.dtype, got.tobytes()
