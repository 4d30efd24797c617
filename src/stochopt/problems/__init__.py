from .binpacking import BinPackingInstance, brute_force_packing, first_fit_decreasing
from .continuous import OBJECTIVES, ContinuousLandscape
from .io import parse_binpacking_file, parse_tsp_file
from .tabletop import CUBE_COSTS, TabletopInstance, cube_fixture, cube_state
from .tsp import TspInstance, brute_force_tour, two_route_instance

__all__ = [
    "BinPackingInstance",
    "ContinuousLandscape",
    "CUBE_COSTS",
    "OBJECTIVES",
    "TabletopInstance",
    "TspInstance",
    "brute_force_packing",
    "brute_force_tour",
    "cube_fixture",
    "cube_state",
    "first_fit_decreasing",
    "parse_binpacking_file",
    "parse_tsp_file",
    "two_route_instance",
]
