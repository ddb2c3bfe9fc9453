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
                     GridMismatch, InsufficientFitData, InvalidLimit,
                     MeshTooLarge, NonDivisibleMesh, NonFiniteInput,
                     NonFiniteState,
                     NonPositiveCoefficient, NumericalFailure, ParseError,
                     SingularMatrix, UnknownKey)
from .linalg import dense_solve
from .model import (MaterialParams, OnsagerCoefficients, SimulationConfig,
                    StepperKind, gk_to_onsager, onsager_to_gk, validate)
from .scheme import (AssembledOperators, Trajectory, assemble,
                     assemble_coupled_system, run, step_coupled,
                     step_coupled_reference, step_vectorial_as_printed)

__all__ = [
    "AssembledOperators", "DecayConstants", "DegenerateTrace",
    "DimensionMismatch", "DissipationReport", "EnergyTrace", "EnvelopeReport",
    "GKHeatError", "Grid", "GridMismatch", "InsufficientFitData",
    "InvalidLimit", "MaterialParams", "MeshTooLarge", "NonDivisibleMesh",
    "NonFiniteInput", "NonFiniteState", "NonPositiveCoefficient", "NumericalFailure",
    "OnsagerCoefficients", "ParseError", "SandwichReport", "SimulationConfig",
    "SingularMatrix", "State", "StepperKind", "Trajectory",
    "UnknownKey", "assemble", "assemble_coupled_system", "boundary_term",
    "build_grid", "cosine_initial", "decay_constants", "dense_solve",
    "discrete_energy", "dissipation_check", "envelope_check",
    "equilibrium_energy", "fit_energy_decay_rate", "gk_to_onsager",
    "lyapunov", "lyapunov_sandwich_check", "mode_decay_oracle",
    "normalized_Z", "onsager_to_gk", "pointwise_residual", "residual_scales",
    "run", "step_coupled", "step_coupled_reference",
    "step_vectorial_as_printed", "total_heat", "validate",
    "zero_mean_initial",
]
