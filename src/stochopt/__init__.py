"""stochopt: stochastic search and optimization toolkit.

Minimization-only problems (tours, packings, box-bounded landscapes,
small state graphs) paired with the classic stochastic searchers: random
search, hill-climbing in first-accept and steepest flavors, simulated
annealing with optional rescaled acceptance, attribute-based tabu
search, a binary Hopfield network for tours, particle swarms, and an
ant system.  Every run is driven by an evaluation budget and a seed and
returns a deterministic RunRecord; the `effort` module turns record
ensembles into success probabilities and restart-effort estimates.
"""

from .aco import AcoConfig, aco_run
from .annealing import CoolingSchedule, metropolis_accept, next_temperature, simulated_annealing
from .cli import ExperimentConfig, format_duration, load_instance, main, run_experiment
from .core import (
    Budget,
    BudgetExhaustedError,
    EncodingMismatchError,
    Neighborhood,
    NoNeighborError,
    OptimizationError,
    ParseError,
    Problem,
    Run,
    RunRecord,
    UnsupportedOperationError,
    ValidationError,
    seeded_rng,
)
from .effort import (
    ComplexityClass,
    EffortUndefinedError,
    EnsembleStats,
    computational_effort,
    cumulative_success,
    effort_steps,
    nfl_comparison,
    runtime_projection,
)
from .hopfield import (
    HopfieldNet,
    TankParams,
    async_step,
    build_weights,
    constraint_energy,
    cost_energy,
    decode_tour,
    hopfield_solve,
    is_fixed_point,
    network_energy,
)
from .local_search import hill_climb_first_accept, hill_climb_steepest, random_search
from .problems import (
    BinPackingInstance,
    ContinuousLandscape,
    TabletopInstance,
    TspInstance,
    brute_force_packing,
    brute_force_tour,
    cube_fixture,
    cube_state,
    parse_binpacking_file,
    parse_tsp_file,
    two_route_instance,
)
from .swarm import SwarmConfig, pso_run
from .tabu import TabuConfig, tabu_search

__version__ = "0.1.0"

__all__ = [
    "AcoConfig",
    "BinPackingInstance",
    "Budget",
    "BudgetExhaustedError",
    "ComplexityClass",
    "ContinuousLandscape",
    "CoolingSchedule",
    "EffortUndefinedError",
    "EncodingMismatchError",
    "EnsembleStats",
    "ExperimentConfig",
    "HopfieldNet",
    "Neighborhood",
    "NoNeighborError",
    "OptimizationError",
    "ParseError",
    "Problem",
    "Run",
    "RunRecord",
    "SwarmConfig",
    "TabletopInstance",
    "TabuConfig",
    "TankParams",
    "TspInstance",
    "UnsupportedOperationError",
    "ValidationError",
    "aco_run",
    "async_step",
    "brute_force_packing",
    "brute_force_tour",
    "build_weights",
    "computational_effort",
    "constraint_energy",
    "cost_energy",
    "cube_fixture",
    "cube_state",
    "cumulative_success",
    "decode_tour",
    "effort_steps",
    "format_duration",
    "hill_climb_first_accept",
    "hill_climb_steepest",
    "hopfield_solve",
    "is_fixed_point",
    "load_instance",
    "main",
    "metropolis_accept",
    "network_energy",
    "next_temperature",
    "nfl_comparison",
    "parse_binpacking_file",
    "parse_tsp_file",
    "pso_run",
    "random_search",
    "run_experiment",
    "runtime_projection",
    "seeded_rng",
    "simulated_annealing",
    "tabu_search",
    "two_route_instance",
    "__version__",
]
