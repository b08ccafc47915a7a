"""hyperspec: p-spectral radii and p-optimal weightings of uniform hypergraphs."""

from .families import (
    beta_star_value,
    brute_force_radius,
    complete_lagrangian,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    loose_path_value,
)
from .hypergraph import (
    Hypergraph,
    ParseError,
    parse_edge_list,
    serialize_edge_list,
    validate,
)
from .ranking import RankingReport, rank_vertices
from .solver import (
    LagrangianApproximation,
    MultistartResult,
    SolveResult,
    SolverConfig,
    SolverError,
    cayley_step,
    cg_direction,
    lagrangian_approx,
    lagrangian_schedule,
    random_unit_sphere,
    solve_multistart,
    solve_single,
)
from .tensor_ops import objective, value_and_grad

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "LagrangianApproximation",
    "MultistartResult",
    "ParseError",
    "RankingReport",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "beta_star_value",
    "brute_force_radius",
    "cayley_step",
    "cg_direction",
    "complete_lagrangian",
    "gen_beta_star",
    "gen_complete",
    "gen_loose_path",
    "lagrangian_approx",
    "lagrangian_schedule",
    "loose_path_value",
    "objective",
    "parse_edge_list",
    "rank_vertices",
    "random_unit_sphere",
    "serialize_edge_list",
    "solve_multistart",
    "solve_single",
    "validate",
    "value_and_grad",
]
