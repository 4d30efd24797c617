"""`Problem.cost_rows` against `cost`, row by row, on every problem kind.

`cost_rows(X)[k]` must equal `cost(X[k])` bit for bit and be a Python
float, whatever the memory layout of the block: C-ordered, Fortran-
ordered, a column slice of a wider array, or every other row of a
taller one.  numpy sums along the rows of a Fortran-ordered block
straight down its columns instead of pairwise, which rounds differently
once a row has 8 terms or more, so the wide cases matter.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    BinPackingInstance,
    ContinuousLandscape,
    TabletopInstance,
    TspInstance,
    cube_fixture,
    seeded_rng,
)

LAYOUTS = ("C", "F", "columns", "every_other_row")


def _laid_out(block: np.ndarray, layout: str) -> np.ndarray:
    """The same values as `block`, stored as `layout` names."""
    m, n = block.shape
    if layout == "C":
        return np.ascontiguousarray(block)
    if layout == "F":
        return np.asfortranarray(block)
    if layout == "columns":  # X[:, ::1] of a wider array: rows are strided
        wide = np.zeros((m, n + 3), dtype=block.dtype)
        wide[:, 1 : n + 1] = block
        return wide[:, 1 : n + 1][:, ::1]
    tall = np.zeros((2 * m, n), dtype=block.dtype)  # X[::2] of a taller array
    tall[::2] = block
    return tall[::2]


def _check(problem, rows):
    got = problem.cost_rows(rows)
    assert len(got) == len(rows)
    for k, value in enumerate(got):
        assert type(value) is float
        assert value == problem.cost(rows[k]), k


COMMON = dict(
    m=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), **COMMON)
@example(n=60, m=60, seed=0, layout="F")
@example(n=9, m=3, seed=1, layout="columns")
def test_tour_rows_cost_as_cost_does(n, m, seed, layout):
    rng = seeded_rng(seed)
    problem = TspInstance.from_coords(rng.random((n, 2)) * 100)
    block = np.array([rng.permutation(n) for _ in range(m)])
    rows = _laid_out(block, layout)
    _check(problem, rows)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), integer=st.booleans(), **COMMON)
@example(n=60, integer=False, m=60, seed=0, layout="F")
@example(n=10, integer=True, m=5, seed=2, layout="every_other_row")
def test_packing_rows_cost_as_cost_does(n, integer, m, seed, layout):
    rng = seeded_rng(seed)
    if integer:  # whole sizes against a whole capacity, as in pack10.txt
        capacity = int(rng.integers(2, 1000))
        problem = BinPackingInstance(rng.integers(1, capacity + 1, size=n), capacity=capacity)
        assert problem.whole and problem.cap == capacity
    else:
        problem = BinPackingInstance(rng.uniform(0.05, 1.0, size=n))
    # few bins, so overfull and exactly full bins both turn up
    block = rng.integers(0, max(1, n // 3), size=(m, n))
    rows = _laid_out(block, layout)
    _check(problem, rows)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 30))
def test_tabletop_rows_cost_as_cost_does(seed, m):
    rng = seeded_rng(seed)
    states = int(rng.integers(1, 12))
    for problem in (cube_fixture(), TabletopInstance(rng.normal(size=states) * 10, [])):
        count = len(problem.costs)
        picks = rng.integers(count, size=m)
        _check(problem, picks.tolist())
        _check(problem, picks)


@settings(max_examples=200, deadline=None)
@given(
    objective=st.sampled_from(["abs_linear", "multimodal_test"]),
    dim=st.integers(1, 64),
    spread=st.sampled_from([0.5, 1.0, 3.0]),  # 3.0 puts most points outside the box
    **COMMON,
)
@example(objective="multimodal_test", dim=64, spread=1.0, m=60, seed=0, layout="F")
@example(objective="multimodal_test", dim=8, spread=3.0, m=20, seed=3, layout="columns")
def test_continuous_rows_cost_as_cost_does(objective, dim, spread, m, seed, layout):
    rng = seeded_rng(seed)
    problem = ContinuousLandscape(objective, dim=dim)
    block = rng.uniform(problem.lower * spread, problem.upper * spread, size=(m, dim))
    rows = _laid_out(block, layout)
    _check(problem, rows)
