"""Mesh construction and discrete initial data.

Index conventions used throughout the package:

* temperature nodes  j = 0 .. J      at x_j = j*dx   (J+1 values),
* flux nodes         j = 0 .. J+1    at x_j = j*dx   (J+2 values),
* time levels        n = 0 .. N+1    at t_n = n*dt   (N+2 levels),

with (J+1)*dx = l, (N+1)*dt = t_final, and the insulated-end condition
q_0 = q_{J+1} = 0 held exactly at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, MeshTooLarge, NonDivisibleMesh, NonFiniteInput
from .model import MaterialParams, SimulationConfig

#: relative tolerance for the "step divides the interval" check
DIVISIBILITY_RTOL = 1e-9
#: largest time-level count N+2 and node count J+2 a grid may have (over
#: 100x the largest mesh the tests and benchmark use); checked before
#: anything is allocated, since run() keeps several arrays of each length
MAX_MESH_POINTS = 4_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform space/time mesh."""

    J: int           # last interior temperature index; J+1 intervals span [0, l]
    N: int           # last interior time index; N+1 steps span [0, t_final]
    dx: float        # spatial step [m]
    dt: float        # time step [s]
    x: np.ndarray    # node coordinates j*dx, j = 0 .. J+1
    t: np.ndarray    # time coordinates n*dt, n = 0 .. N+1

    @property
    def length(self) -> float:
        """Domain length l = (J+1)*dx."""
        return float(self.x[-1])


def _integer_ratio(total: float, step: float, what: str) -> int:
    ratio = total / step
    # n intervals have n + 1 points; an overflowed ratio never reaches round()
    n = round(ratio) if ratio < MAX_MESH_POINTS else MAX_MESH_POINTS
    if n + 1 > MAX_MESH_POINTS:
        raise MeshTooLarge(f"{what} = {ratio:.6g} gives more than "
                           f"{MAX_MESH_POINTS} mesh points")
    if n < 1 or abs(ratio - n) > DIVISIBILITY_RTOL * ratio:
        raise NonDivisibleMesh(
            f"{what}: {total!r} is not an integer multiple of {step!r}")
    return n


def build_grid(params: MaterialParams, config: SimulationConfig) -> Grid:
    """Construct the mesh, requiring dx | l and dt | t_final.

    Raises NonDivisibleMesh when either ratio deviates from an integer by
    more than 1e-9 relative, MeshTooLarge when N+2 or J+2 would exceed
    MAX_MESH_POINTS, and NonFiniteInput when l is outside [1e-50, 1e50] m.
    """
    n_dx = _integer_ratio(params.l, config.dx, "l/dx")
    n_dt = _integer_ratio(config.t_final, config.dt, "t_final/dt")
    if n_dx < 2:
        raise NonDivisibleMesh("mesh needs at least two temperature nodes (l/dx >= 2)")
    if not 1e-50 <= params.l <= 1e50:  # far past any conductor; l^-4, dx^3 stay finite
        raise NonFiniteInput(f"l = {params.l!r} m (dx = {config.dx!r} m) is outside "
                             "[1e-50, 1e50] m, where powers of l and dx over- or underflow")
    J, N = n_dx - 1, n_dt - 1
    x = np.arange(J + 2, dtype=float) * config.dx
    t = np.arange(N + 2, dtype=float) * config.dt
    return Grid(J=J, N=N, dx=config.dx, dt=config.dt, x=x, t=t)


@dataclass(frozen=True)
class State:
    """Temperature and heat-flux values at one time level.

    T holds J+1 nodal temperatures; q holds J+2 nodal fluxes whose first and
    last entries are exactly zero (insulated ends).  Instances are value
    objects: arrays are copied in and must not be mutated afterwards.
    """

    T: np.ndarray  # [degC], j = 0 .. J
    q: np.ndarray  # [W/m^2], j = 0 .. J+1, q[0] = q[-1] = 0

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        q = np.array(self.q, dtype=float)
        if T.ndim != 1 or q.ndim != 1 or q.size != T.size + 1:
            raise GridMismatch(
                f"need q.size == T.size + 1, got T{T.shape}, q{q.shape}")
        if not (np.all(np.isfinite(T)) and np.all(np.isfinite(q))):
            raise NonFiniteInput("state contains non-finite entries")
        if q[0] != 0.0 or q[-1] != 0.0:
            raise ValueError("boundary flux entries must be exactly zero")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "q", q)

    @property
    def q_interior(self) -> np.ndarray:
        """Flux unknowns q_1 .. q_J."""
        return self.q[1:-1]


def _require_on_grid(state: State, grid: Grid, name: str) -> None:
    if state.T.size != grid.J + 1:
        raise GridMismatch(f"{name}: expected {grid.J + 1} temperature nodes, "
                           f"got {state.T.size}")


def cosine_initial(grid: Grid, T_b: float, T_f: float) -> State:
    """Initial profile T_j = T_b + (T_f/2) cos(pi x_j / l) with q = 0.

    Raises NonFiniteInput if the profile overflows.
    """
    xT = grid.x[:grid.J + 1]
    with np.errstate(over="ignore"):
        T = T_b + 0.5 * T_f * np.cos(np.pi * xT / grid.length)
    if not np.all(np.isfinite(T)):
        raise NonFiniteInput(f"the initial profile overflows for T_b = {T_b!r}, "
                             f"T_f = {T_f!r}")
    return State(T=T, q=np.zeros(grid.J + 2))

