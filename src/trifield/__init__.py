"""Stabilised three-field P1 solver for the Poisson problem on the unit square,
with weakly imposed Dirichlet boundary conditions, a biorthogonal dual basis
and static condensation to a sparse SPD primal system."""

from .analysis import (
    ErrorTable,
    convergence_rates,
    h1h_error_u,
    l2_error_sigma,
    l2_error_u,
)
from .assembly import BlockSystem, assemble
from .condense import (
    CondensedSystem,
    condense,
    recover_phi,
    recover_sigma,
    solve_full_saddle,
)
from .femcore import (
    QuadratureRule,
    edge_quadrature,
    triangle_quadrature,
)
from .linsolve import SolveReport, cg_solve, dense_lu_solve
from .mesh import Mesh, build_structured_unit_square
from .problems import ExampleId, ProblemData, example1, example2, linear_patch
from .cli import StudyConfig, StudyResult, run_oracle_check, run_study

__version__ = "0.1.0"

__all__ = [
    "BlockSystem",
    "CondensedSystem",
    "ErrorTable",
    "ExampleId",
    "Mesh",
    "ProblemData",
    "QuadratureRule",
    "SolveReport",
    "StudyConfig",
    "StudyResult",
    "assemble",
    "build_structured_unit_square",
    "cg_solve",
    "condense",
    "convergence_rates",
    "dense_lu_solve",
    "edge_quadrature",
    "example1",
    "example2",
    "h1h_error_u",
    "l2_error_sigma",
    "l2_error_u",
    "linear_patch",
    "recover_phi",
    "recover_sigma",
    "run_oracle_check",
    "run_study",
    "solve_full_saddle",
    "triangle_quadrature",
]
