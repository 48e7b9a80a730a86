"""Stochastic Eulerian Tour Problem toolkit.

Both problem forms (Eulerian-graph original and order/orientation
simplified), expected-cost evaluation, instance reductions including the
TSP gadget, and exact/heuristic solvers.
"""

from .core import (
    AprioriOrder,
    EulerianTour,
    OriginalInstance,
    Scenario,
    SimplifiedInstance,
    TspInstance,
    canonicalize,
    induced_order,
    validate_original,
    validate_simplified,
    validate_tsp,
)
from .evaluate import (
    ExpectedCost,
    aposteriori_cost,
    expected_cost_closed_form,
    expected_cost_enumeration,
    expected_cost_monte_carlo,
    expected_cost_original,
)
from .graph import Multigraph, all_pairs_shortest_paths, hierholzer, is_eulerian
from .solvers import SolveResult, brute_force, local_search, nearest_neighbor
from .transforms import embed_depot, lift_to_tsp_tour, simplify, tsp_to_setp

__all__ = [
    "AprioriOrder",
    "EulerianTour",
    "ExpectedCost",
    "Multigraph",
    "OriginalInstance",
    "Scenario",
    "SimplifiedInstance",
    "SolveResult",
    "TspInstance",
    "all_pairs_shortest_paths",
    "aposteriori_cost",
    "brute_force",
    "canonicalize",
    "embed_depot",
    "expected_cost_closed_form",
    "expected_cost_enumeration",
    "expected_cost_monte_carlo",
    "expected_cost_original",
    "hierholzer",
    "induced_order",
    "is_eulerian",
    "lift_to_tsp_tour",
    "local_search",
    "nearest_neighbor",
    "simplify",
    "tsp_to_setp",
    "validate_original",
    "validate_simplified",
    "validate_tsp",
]

__version__ = "0.1.0"
