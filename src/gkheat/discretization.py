"""Mesh construction, discrete initial data, and pointwise scheme residuals.

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

from .errors import GridMismatch, MeshTooLarge, NonDivisibleMesh
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

    @property
    def t_final(self) -> float:
        return float(self.t[-1])


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
    more than 1e-9 relative, and MeshTooLarge when N+2 or J+2 would exceed
    MAX_MESH_POINTS.
    """
    n_dx = _integer_ratio(params.l, config.dx, "l/dx")
    n_dt = _integer_ratio(config.t_final, config.dt, "t_final/dt")
    if n_dx < 2:
        raise NonDivisibleMesh("mesh needs at least two temperature nodes (l/dx >= 2)")
    J = n_dx - 1
    N = n_dt - 1
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
            raise ValueError("state contains non-finite entries")
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
    """Initial profile T_j = T_b + (T_f/2) cos(pi x_j / l) with q = 0."""
    xT = grid.x[:grid.J + 1]
    T = T_b + 0.5 * T_f * np.cos(np.pi * xT / grid.length)
    return State(T=T, q=np.zeros(grid.J + 2))


def zero_mean_initial(grid: Grid, T_f: float) -> State:
    """Cosine profile with zero base temperature.

    The continuous profile integrates to zero over [0, l]; the discrete sum
    dx*sum(T_j) equals dx*T_f/2 (the cosine sample sum over j = 0 .. J is
    exactly 1), small but nonzero.
    """
    return cosine_initial(grid, 0.0, T_f)


def pointwise_residual(params: MaterialParams, grid: Grid, prev: State,
                       next: State) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the implicit step equations at level `next`.

    Returns (r1, r2) where

        r1[j] = rho*c*(T_j^n - T_j^{n-1})/dt + (q_{j+1}^n - q_j^n)/dx,
                j = 0 .. J,
        r2[j] = tau_q*(q_j^n - q_j^{n-1})/dt + q_j^n
                - mu2*(q_{j+1}^n - 2 q_j^n + q_{j-1}^n)/dx^2
                + k*(T_j^n - T_{j-1}^n)/dx,        j = 1 .. J.

    Both vanish exactly on solutions of the coupled implicit step.
    """
    _require_on_grid(prev, grid, "prev")
    _require_on_grid(next, grid, "next")
    dt, dx = grid.dt, grid.dx
    r1 = params.rho_c * (next.T - prev.T) / dt + np.diff(next.q) / dx
    qn = next.q
    lap = (qn[2:] - 2.0 * qn[1:-1] + qn[:-2]) / dx**2
    r2 = (params.tau_q * (qn[1:-1] - prev.q[1:-1]) / dt + qn[1:-1]
          - params.mu2 * lap + params.k * np.diff(next.T) / dx)
    return r1, r2


def residual_scales(params: MaterialParams, dt: float, prev: State,
                    next: State) -> tuple[float, float]:
    """Per-equation magnitude scales for judging residual smallness.

    The two equations differ by orders of magnitude in units, so tolerance
    checks use rho*c*max|T|/dt for r1 and tau_q*max|q|/dt + max|q| for r2.
    """
    t_scale = max(np.max(np.abs(prev.T)), np.max(np.abs(next.T)), 1e-300)
    q_scale = max(np.max(np.abs(prev.q)), np.max(np.abs(next.q)), 1e-300)
    return (params.rho_c * t_scale / dt,
            params.tau_q * q_scale / dt + q_scale)
