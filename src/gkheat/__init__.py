"""Solver library and verification tooling for the 1-D Guyer-Krumhansl heat equation."""

from .diagnostics import (DecayConstants, DissipationReport, EnergyTrace,
                          EnvelopeReport, SandwichReport, boundary_term,
                          decay_constants, discrete_energy, dissipation_check,
                          envelope_check, equilibrium_energy,
                          fit_energy_decay_rate, lyapunov,
                          lyapunov_sandwich_check, mode_decay_oracle,
                          normalized_Z, total_heat)
from .discretization import (Grid, State, build_grid, cosine_initial,
                             pointwise_residual, residual_scales,
                             zero_mean_initial)
from .errors import (DegenerateTrace, DimensionMismatch, GKHeatError,
                     GridMismatch, InvalidLimit, NonDivisibleMesh,
                     NonPositiveCoefficient, ParseError, SingularMatrix,
                     SingularPivot, UnknownKey)
from .linalg import (BandedMatrix, DenseMatrix, TridiagonalMatrix,
                     banded_lu_solve, dense_solve, matvec, thomas_solve)
from .model import (MaterialParams, OnsagerCoefficients, SimulationConfig,
                    StepperKind, gk_to_onsager, onsager_to_gk, validate)
from .scheme import (AssembledOperators, Trajectory, aq_matrix, assemble,
                     assemble_coupled_system, at_matrix, run, step_coupled,
                     step_coupled_reference, step_vectorial_as_printed)

__all__ = [
    "AssembledOperators", "BandedMatrix", "DecayConstants", "DegenerateTrace",
    "DenseMatrix", "DimensionMismatch", "DissipationReport", "EnergyTrace",
    "EnvelopeReport", "GKHeatError", "Grid", "GridMismatch", "InvalidLimit",
    "MaterialParams", "NonDivisibleMesh", "NonPositiveCoefficient",
    "OnsagerCoefficients", "ParseError", "SandwichReport", "SimulationConfig",
    "SingularMatrix", "SingularPivot", "State", "StepperKind", "Trajectory",
    "TridiagonalMatrix", "UnknownKey", "aq_matrix", "assemble",
    "assemble_coupled_system", "at_matrix", "banded_lu_solve",
    "boundary_term", "build_grid", "cosine_initial", "decay_constants",
    "dense_solve", "discrete_energy", "dissipation_check", "envelope_check",
    "equilibrium_energy", "fit_energy_decay_rate", "gk_to_onsager",
    "lyapunov", "lyapunov_sandwich_check", "matvec", "mode_decay_oracle",
    "normalized_Z", "onsager_to_gk", "pointwise_residual", "residual_scales",
    "run", "step_coupled", "step_coupled_reference",
    "step_vectorial_as_printed", "thomas_solve", "total_heat", "validate",
    "zero_mean_initial",
]
