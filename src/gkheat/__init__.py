"""Solver library and verification tooling for the 1-D Guyer-Krumhansl heat equation."""

from .diagnostics import (DecayConstants, EnergyTrace, decay_constants,
                          discrete_energy, equilibrium_energy,
                          fit_energy_decay_rate, mode_decay_oracle)
from .discretization import (Grid, State, build_grid, cosine_initial,
                             zero_mean_initial)
from .errors import (DimensionMismatch, GKHeatError, GridMismatch,
                     InsufficientFitData, InvalidLimit, MeshTooLarge,
                     NonDivisibleMesh, NonFiniteInput, NonFiniteState,
                     NonPositiveCoefficient, NumericalFailure, ParseError,
                     SingularMatrix, UnknownKey)
from .linalg import dense_solve
from .model import (MaterialParams, OnsagerCoefficients, SimulationConfig,
                    StepperKind, gk_to_onsager, onsager_to_gk, validate)
from .scheme import (AssembledOperators, Trajectory, assemble,
                     assemble_coupled_system, run, step_coupled_reference)

__all__ = [
    "AssembledOperators", "DecayConstants", "DimensionMismatch", "EnergyTrace",
    "GKHeatError", "Grid", "GridMismatch", "InsufficientFitData",
    "InvalidLimit", "MaterialParams", "MeshTooLarge", "NonDivisibleMesh",
    "NonFiniteInput", "NonFiniteState", "NonPositiveCoefficient", "NumericalFailure",
    "OnsagerCoefficients", "ParseError", "SimulationConfig",
    "SingularMatrix", "State", "StepperKind", "Trajectory",
    "UnknownKey", "assemble", "assemble_coupled_system",
    "build_grid", "cosine_initial", "decay_constants", "dense_solve",
    "discrete_energy", "equilibrium_energy", "fit_energy_decay_rate",
    "gk_to_onsager", "mode_decay_oracle", "onsager_to_gk",
    "run", "step_coupled_reference", "validate", "zero_mean_initial",
]
