"""
Measuring effort: success curves, restarts, and runtime walls
=============================================================

A stochastic method is judged by the distribution of its successes, not
by one lucky run.  From an ensemble, the cumulative success probability
P(n) and the restart arithmetic I(n, z) = n * ceil(ln(1-z) / ln(1-P(n)))
say how many evaluations buy a target with confidence z.  Exhaustive
methods are judged the old way: by counting operations until the sun
burns out.
"""

from stochopt import (
    Budget,
    ComplexityClass,
    EnsembleStats,
    TabuConfig,
    computational_effort,
    cube_fixture,
    cumulative_success,
    effort_steps,
    format_duration,
    nfl_comparison,
    random_search,
    runtime_projection,
    tabu_search,
)

cube = cube_fixture()
budget = 30

# Forty short tabu runs on the cube, success = reaching the 5-corner.
records = tuple(
    tabu_search(cube, Budget(budget), seed=s, cfg=TabuConfig(tenure=2))
    for s in range(40)
)
ens = EnsembleStats(records=records, budget=budget, threshold=5.0)
print("P(5)  =", cumulative_success(ens, 5))
print("P(10) =", cumulative_success(ens, 10))

# The effort curve answers: if runs are cut off after n evaluations and
# restarted until one succeeds, which n is cheapest overall?  P(n) only
# moves when a run succeeds, so I(n, z) is read at those steps.
steps = effort_steps(ens, z=0.99)
n_star, i_min = computational_effort(ens, z=0.99)
print(f"effort at the success steps: {steps[:4]}")
print(f"cheapest restart length n* = {n_star}, total effort I = {i_min}")

# Laying ensembles side by side against a random-search baseline makes
# no verdict; it just puts the curves on one table.
baseline = EnsembleStats(
    records=tuple(random_search(cube, Budget(budget), seed=s) for s in range(40)),
    budget=budget,
    threshold=5.0,
)
report = nfl_comparison({"tabu": ens}, baseline)
for entry in report.entries:
    print(
        f"{entry['name']:16s} median best {entry['best_median']}"
        f"  effort {entry['effort']}"
    )

# Exhaustive search has no success curve, only an operation count.  At
# a billion operations per second the wall arrives fast.
rate = 1e9
for n in (17, 18, 19, 20):
    tours = ComplexityClass("tsp_factorial")
    seconds = runtime_projection(tours, n, rate)
    print(f"all tours, {n} cities: {format_duration(seconds)}")

# The same projection is available from the shell, next to the rest of
# the front end:
#
#   optimize project --class tsp --n 20
#   optimize run --config fixtures/experiments/eight_sa.json
#   optimize plot --input eight_sa.json --kind effort_curve
#
# (see README.md for the full command set)
