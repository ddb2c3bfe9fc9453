"""Solver library and verification tooling for the 1-D Guyer-Krumhansl heat equation."""

from .diagnostics import DecayConstants, EnergyTrace, decay_constants, mode_decay_oracle
from .discretization import Grid, State, build_grid, cosine_initial
from .errors import (GKHeatError, GridMismatch, MeshTooLarge, NonDivisibleMesh,
                     NonFiniteInput, NonFiniteState, NonPositiveCoefficient,
                     NumericalFailure, ParseError)
from .model import (MaterialParams, OnsagerCoefficients, SimulationConfig,
                    StepperKind, gk_to_onsager, onsager_to_gk)
from .scheme import Trajectory, assemble, run

__all__ = [
    "DecayConstants", "EnergyTrace", "GKHeatError", "Grid", "GridMismatch",
    "MaterialParams", "MeshTooLarge", "NonDivisibleMesh", "NonFiniteInput",
    "NonFiniteState", "NonPositiveCoefficient", "NumericalFailure",
    "OnsagerCoefficients", "ParseError", "SimulationConfig", "State", "StepperKind",
    "Trajectory", "assemble", "build_grid", "cosine_initial", "decay_constants",
    "gk_to_onsager", "mode_decay_oracle", "onsager_to_gk", "run",
]
