"""Operator assembly and the implicit time steppers.

The implicit step couples the temperature update and the flux law

    T_j^n = T_j^{n-1} - (dt/(rho c dx)) (q_{j+1}^n - q_j^n),        j = 0..J,
    (I - c_B L) q^n = c_r q^{n-1} - c_Q A_T T^n,                    j = 1..J,

with L the second-difference stencil, A_T the first-difference map on
temperatures, and boundary fluxes pinned to zero.  Substituting the first
relation into the second eliminates T^n exactly (A_T A_q = L), leaving one
tridiagonal system

    [I - (c_B + c_T dt) L] q^n = c_r q^{n-1} - c_Q A_T T^{n-1}

per step; the temperature update is then explicit.  The reduced matrix
is symmetric positive definite and the same at every step, so assemble
factors it once (LAPACK dpttrf) and step_coupled solves with that factor
(dpttrs).  This is algebraically identical to the full coupled solve (the
interleaved assembly is retained, solved densely, as the brute-force
reference).

step_vectorial_as_printed instead applies the closed-form update

    T^n = C T^{n-1} - c_q A_q B^{-1} q^{n-1},
    q^n = c_r B^{-1} q^{n-1} - c_Q B^{-1} A_T T^{n-1},
    C   = I + c_T A_q B^{-1} A_T,

verbatim, with B = I - c_B L factored once like the reduced matrix, so
each B^{-1} is one dpttrs solve.  That variant advances both fields from
level n-1 and carries a dt/dx^2 (not dt^2/dx^2) correction factor, so it
is not equivalent to the coupled solve at finite dt; it is kept as a
comparison mode and the gap is measured, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from . import diagnostics
from .discretization import Grid, State, _require_on_grid, build_grid
from .errors import InvalidLimit, SingularPivot
from .linalg import dense_solve
from .model import MaterialParams, SimulationConfig, StepperKind


#: float64 values per trace chunk buffer (128 KiB, cache-sized)
TRACE_CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True)
class AssembledOperators:
    """Mesh-and-material dependent operators, immutable after assembly.

    Scalar factors (s := tau_q + dt):

        c_B = mu2*dt/(s*dx^2)          flux-Laplacian weight in B
        c_T = k*dt/(rho*c*s*dx^2)      printed temperature-correction factor
        c_q = tau_q*dt/(rho*c*s*dx)    printed flux-history factor
        c_Q = k*dt/(s*dx)              temperature-gradient weight
        c_r = tau_q/s                  flux relaxation weight
        c_flux = dt/(rho*c*dx)         flux-divergence weight of the T update

    All factors use (tau_q + dt), so tau_q = 0 needs no special casing.
    """

    J: int
    dx: float
    dt: float
    c_B: float
    c_T: float
    c_q: float
    c_Q: float
    c_r: float
    c_flux: float
    # dpttrf factors (d, e) of the SPD matrices I - w*L, L the J x J
    # second-difference stencil: B (w = c_B) and the reduced matrix
    # (w = c_B + c_T*dt)
    b_factor: tuple[np.ndarray, np.ndarray]
    reduced_factor: tuple[np.ndarray, np.ndarray]


def _factor(J: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """dpttrf factor of I - w*L (diagonal 1 + 2w, off-diagonals -w)."""
    # the wrapper wants a nonempty off-diagonal even at J = 1 (LAPACK ignores it)
    d, e, info = dpttrf(np.full(J, 1.0 + 2.0 * w), np.full(max(J - 1, 1), -w))
    if info != 0:
        raise SingularPivot(f"dpttrf: I - {w:g} L not positive definite (info={info})")
    return d, e


def _solve(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    x, info = dpttrs(*factor, rhs)
    if info != 0:
        raise SingularPivot(f"dpttrs: illegal argument {-info}")
    return x


def assemble(params: MaterialParams, grid: Grid) -> AssembledOperators:
    """Build the scalar weights and the factors of B and of the reduced
    matrix for one (params, grid) pair."""
    J, dx, dt = grid.J, grid.dx, grid.dt
    s = params.tau_q + dt
    rc = params.rho_c
    c_B = params.mu2 * dt / (s * dx * dx)
    c_T = params.k * dt / (rc * s * dx * dx)
    c_q = params.tau_q * dt / (rc * s * dx)
    c_Q = params.k * dt / (s * dx)
    c_r = params.tau_q / s
    c_flux = dt / (rc * dx)
    return AssembledOperators(J=J, dx=dx, dt=dt, c_B=c_B, c_T=c_T, c_q=c_q,
                              c_Q=c_Q, c_r=c_r, c_flux=c_flux,
                              b_factor=_factor(J, c_B),
                              reduced_factor=_factor(J, c_B + c_T * dt))


_ZERO = np.zeros(1)


def _padded(q_interior: np.ndarray) -> np.ndarray:
    # nodal fluxes j = 0..J+1 with the zero boundary values
    return np.concatenate((_ZERO, q_interior, _ZERO))


def _apply_aq(q_interior: np.ndarray) -> np.ndarray:
    # differences q_{j+1} - q_j for j = 0..J with zero boundary fluxes
    q = _padded(q_interior)
    return q[1:] - q[:-1]


def _advance_split(ops: AssembledOperators, e: np.ndarray,
                   qi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One coupled step on the fluctuation e of a mean/fluctuation split.

    The uniform component m is an exact fixed point, so it is carried
    outside the solve; every computed quantity then scales with the
    fluctuation, which keeps conservation and dissipation checks meaningful
    near equilibrium where e is ~10 orders below m.
    """
    qi_next = _solve(ops.reduced_factor, ops.c_r * qi - ops.c_Q * (e[1:] - e[:-1]))
    return e - ops.c_flux * _apply_aq(qi_next), qi_next


def _advance_printed(ops: AssembledOperators, T: np.ndarray,
                     qi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    binv_at_T = _solve(ops.b_factor, np.diff(T))
    binv_q = _solve(ops.b_factor, qi)
    T_next = T + ops.c_T * _apply_aq(binv_at_T) - ops.c_q * _apply_aq(binv_q)
    qi_next = ops.c_r * binv_q - ops.c_Q * binv_at_T
    # the explicit correction can overflow; stop at the first bad level
    if not (np.all(np.isfinite(T_next)) and np.all(np.isfinite(qi_next))):
        raise ValueError("state contains non-finite entries")
    return T_next, qi_next


def step_coupled(ops: AssembledOperators, params: MaterialParams, grid: Grid,
                 prev: State) -> State:
    """Advance one step by the exact coupled solve; the default stepper.

    With tau_q = mu2 = 0 this is implicit Euler for rho*c*T_t = -q_x,
    q = -k*T_x, the fourier_limit stepper.
    """
    _require_on_grid(prev, grid, "prev")
    m = float(np.mean(prev.T))
    e_next, qi_next = _advance_split(ops, prev.T - m, prev.q_interior)
    return State(T=m + e_next, q=_padded(qi_next))


def step_vectorial_as_printed(ops: AssembledOperators, params: MaterialParams,
                              grid: Grid, prev: State) -> State:
    """Advance one step by the closed-form vectorial update, verbatim.

    Both updates read level n-1 only and every B^{-1} application is one
    solve with the factor of B.  Not equivalent to step_coupled at finite dt; use
    for gap measurement.  In the Fourier limit the explicit temperature
    correction is unstable at practical meshes, so long runs can overflow.
    """
    _require_on_grid(prev, grid, "prev")
    T_next, qi_next = _advance_printed(ops, prev.T, prev.q_interior)
    return State(T=T_next, q=_padded(qi_next))


def assemble_coupled_system(params: MaterialParams, grid: Grid,
                            prev: State) -> tuple[np.ndarray, np.ndarray]:
    """Verbatim interleaved assembly of the implicit step equations.

    Unknowns are ordered (T_0, q_1, T_1, q_2, ..., T_J); rows are the
    untransformed step equations (bandwidth 2), returned as a dense
    (2J+1) x (2J+1) matrix and right-hand side: the brute-force route
    that step_coupled is checked against.
    """
    _require_on_grid(prev, grid, "prev")
    J, dx, dt = grid.J, grid.dx, grid.dt
    rc = params.rho_c
    n = 2 * J + 1
    a = np.zeros((n, n))
    b = np.zeros(n)

    def i_T(j: int) -> int:
        return 2 * j

    def i_q(j: int) -> int:
        return 2 * j - 1

    for j in range(J + 1):
        r = i_T(j)
        a[r, i_T(j)] = rc / dt
        if j + 1 <= J:
            a[r, i_q(j + 1)] += 1.0 / dx
        if j >= 1:
            a[r, i_q(j)] -= 1.0 / dx
        b[r] = rc / dt * prev.T[j]
    for j in range(1, J + 1):
        r = i_q(j)
        a[r, i_q(j)] = params.tau_q / dt + 1.0 + 2.0 * params.mu2 / dx**2
        if j + 1 <= J:
            a[r, i_q(j + 1)] = -params.mu2 / dx**2
        if j >= 2:
            a[r, i_q(j - 1)] = -params.mu2 / dx**2
        a[r, i_T(j)] += params.k / dx
        a[r, i_T(j - 1)] -= params.k / dx
        b[r] = params.tau_q / dt * prev.q[j]
    return a, b


def step_coupled_reference(params: MaterialParams, grid: Grid,
                           prev: State) -> State:
    """Brute-force coupled step: dense solve of the interleaved system.

    O(J^3); intended for small J cross-checks of step_coupled.
    """
    system, b = assemble_coupled_system(params, grid, prev)
    x = dense_solve(system, b)
    q = np.zeros(grid.J + 2)
    q[1:-1] = x[1::2]
    return State(T=x[0::2], q=q)


@dataclass(frozen=True)
class Trajectory:
    """A completed run: strided state snapshots plus per-step diagnostics."""

    states: list[State]
    stored_steps: list[int]   # time indices of the stored states
    grid: Grid
    params: MaterialParams
    stepper_kind: StepperKind
    trace: diagnostics.EnergyTrace

    @property
    def final_state(self) -> State:
        return self.states[-1]


def run(params: MaterialParams, config: SimulationConfig, init: State,
        stride: int = 1) -> Trajectory:
    """Advance init over the full time mesh with the configured stepper.

    States are stored every `stride` steps (level 0 and the final level
    always included); energy diagnostics are recorded at every step
    regardless of stride, a chunk of levels at a time.  The coupled
    steppers advance the fluctuation e of T = m + e around the conserved
    mean m; the as-printed stepper advances T itself (m = 0).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    grid = build_grid(params, config)
    _require_on_grid(init, grid, "init")
    kind = config.stepper_kind
    if kind == StepperKind.FOURIER_LIMIT and not params.is_fourier:
        raise InvalidLimit("fourier_limit stepper needs tau_q = mu2 = 0")
    ops = assemble(params, grid)
    if kind == StepperKind.VECTORIAL_AS_PRINTED:
        m, advance = 0.0, _advance_printed
    else:
        m, advance = float(np.mean(init.T)), _advance_split
    J, last = grid.J, grid.N + 1
    chunk = max(1, TRACE_CHUNK_ELEMENTS // (J + 1))
    # row 0 holds the level before the chunk
    e_buf, q_buf = np.empty((chunk + 1, J + 1)), np.empty((chunk + 1, J))
    e_buf[0], q_buf[0] = init.T - m, init.q_interior
    states, stored, rows = [init], [0], []
    e, qi, row = e_buf[0], q_buf[0], 0
    for n in range(1, last + 1):
        e, qi = advance(ops, e, qi)
        row += 1
        e_buf[row], q_buf[row] = e, qi
        if n % stride == 0 or n == last:
            states.append(State(T=m + e, q=_padded(qi)))
            stored.append(n)
        if row == chunk or n == last:
            # the first chunk also gives level 0 its row
            rows.append(diagnostics.split_trace_rows(
                params, grid, m, e_buf[:row + 1], q_buf[:row + 1], first=1 if rows else 0))
            e_buf[0], q_buf[0], row = e_buf[row], q_buf[row], 0
    trace = diagnostics.build_trace(params, grid.t, np.concatenate(rows))
    return Trajectory(states=states, stored_steps=stored, grid=grid,
                      params=params, stepper_kind=kind, trace=trace)
