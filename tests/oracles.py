"""Physical-space oracles for the modal engine, independent of it on purpose.

They evaluate the trace quantities (the energy E, the heat, C_T and the
Lyapunov functional) and step residuals directly on physical states, as
the scheme's equations write them; longdouble_coupled_run steps
the coupled scheme in extended precision without gkheat.scheme.
discrete_decay_rate is the exact decay rate of the assembled step matrix,
against which a rate fitted to a trace is checked.  one_step and
oracle_draws are not oracles: one takes the single steps the tests
compare, through scheme.run, and the other draws the states of
checks.oracle_equivalence from a generator.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from gkheat import scheme
from gkheat.discretization import Grid, State, _require_on_grid
from gkheat.linalg import difference_symbols
from gkheat.model import MaterialParams, SimulationConfig, StepperKind


def one_step(p: MaterialParams, grid: Grid, prev: State,
             kind: StepperKind = StepperKind.COUPLED_IMPLICIT) -> State:
    """prev advanced one step of grid.dt by a scheme.run of the stepper kind."""
    cfg = SimulationConfig(dx=grid.dx, dt=grid.dt, t_final=grid.dt, T_b=0.0, T_f=0.0)
    traj = scheme.run(p, cfg, prev, kind=kind)
    return State(T=traj.T[1], q=traj.q[1])


def oracle_draws(rng: np.random.Generator) -> list[np.ndarray]:
    """checks.oracle_equivalence's states drawn from rng, in the form and
    order of checks.ORACLE_DRAWS: for each J = 2..8, normal(0, 1e4, J) for
    q_1..q_J, then normal(15, 10, J + 1) for T_0..T_J."""
    return [np.concatenate((rng.normal(0.0, 1e4, J), rng.normal(15.0, 10.0, J + 1)))
            for J in range(2, 9)]


def discrete_energy(state: State, params: MaterialParams, dx: float) -> float:
    """E = (rho c/2) dx sum T_j^2 + (tau_q/(2k)) dx sum_{j=0..J} q_j^2."""
    T, q = state.T, state.q[:-1]
    return float((params.rho_c * dx / 2.0) * (T @ T)
                 + (params.tau_q / params.k) * (dx / 2.0) * (q @ q))


def total_heat(state: State, dx: float) -> float:
    """Total heat content H = dx * sum_{j=0..J} T_j, conserved by the scheme."""
    return float(dx * np.sum(state.T))


def boundary_term(state: State, params: MaterialParams, dx: float) -> float:
    """C_T = (mu2 * q_x(0) - k * T_0) * total heat.

    q_x(0) is the one-sided difference (q_1 - q_0)/dx, consistent with the
    scheme's own stencil order.
    """
    qx0 = (state.q[1] - state.q[0]) / dx
    return float((params.mu2 * qx0 - params.k * state.T[0])
                 * total_heat(state, dx))


def _tail_integral(T: np.ndarray, dx: float) -> np.ndarray:
    # I_j = dx * sum_{i=j..J} T_i along the last axis, the right-endpoint
    # realization of the inner integral from x_j to l
    return dx * np.cumsum(T[..., ::-1], axis=-1)[..., ::-1]


def lyapunov(state: State, params: MaterialParams,
             dx: float) -> tuple[float, float]:
    """Auxiliary functional F and Lyapunov functional L of one state.

    F = (rho c/2)||I||^2 + (rho c/2) mu2 ||T||^2 + tau_q <q, I> with
    I_j = dx*sum_{i=j..J} T_i; all norms are dx-weighted sums over
    j = 0..J.  L = (2 l^2 + 2 mu2 + tau_q k/(rho c)) E + F.
    """
    rc = params.rho_c
    T = state.T
    I = _tail_integral(T, dx)
    q_head = state.q[:-1]
    F = float((rc / 2.0) * dx * (I @ I)
              + (rc / 2.0) * params.mu2 * dx * (T @ T)
              + params.tau_q * dx * np.sum(q_head * I))
    weight = 2.0 * params.l**2 + 2.0 * params.mu2 + params.tau_q * params.k / rc
    E = discrete_energy(state, params, dx)
    return F, weight * E + F


def dissipation_check(prev: State, next: State, params: MaterialParams,
                      dx: float, dt: float) -> tuple[float, float]:
    """The two sides (lhs, rhs) of the dissipation inequality lhs <= rhs
    between two consecutive states.

    lhs = (E^n - E^{n-1})/dt is evaluated in difference-product form
    sum (a-b)(a+b) rather than by subtracting two large energies, so it is
    not drowned by cancellation once the run sits near equilibrium;
    rhs = -(1/k) dx sum |q^n|^2 - (mu2/k) dx sum |(q_{j+1}^n - q_j^n)/dx|^2.
    """
    rc = params.rho_c
    dT = next.T - prev.T
    sT = next.T + prev.T
    dq = next.q[:-1] - prev.q[:-1]
    sq = next.q[:-1] + prev.q[:-1]
    lhs = float(((rc * dx / 2.0) * (dT @ sT)
                 + (params.tau_q / params.k) * (dx / 2.0) * (dq @ sq)) / dt)
    qn = next.q
    grad = np.diff(qn) / dx
    rhs = float(-(1.0 / params.k) * dx * (qn[:-1] @ qn[:-1])
                - (params.mu2 / params.k) * dx * (grad @ grad))
    return lhs, rhs


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


#: the scalar weights of one step, named as in scheme.assemble's docstring,
#: and the symbols s_m = 2 sin(pi m/(2(J+1))), m = 1..J, as s
StepFactors = namedtuple("StepFactors", "c_B c_T c_q c_Q c_r c_flux s")


def step_factors(p: MaterialParams, grid: Grid, num=float) -> StepFactors:
    """The step's weights from their formulas, each computed in the number
    type num; r := tau_q + dt."""
    dx, dt = num(grid.dx), num(grid.dt)
    tau_q, mu2, k, rc = num(p.tau_q), num(p.mu2), num(p.k), num(p.rho) * num(p.c)
    r = tau_q + dt
    return StepFactors(c_B=mu2 * dt / (r * dx * dx), c_T=k * dt / (rc * r * dx * dx),
                       c_q=tau_q * dt / (rc * r * dx), c_Q=k * dt / (r * dx),
                       c_r=tau_q / r, c_flux=dt / (rc * dx),
                       s=difference_symbols(grid.J))


def longdouble_coupled_run(p: MaterialParams, grid: Grid, init: State,
                           steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupled steps in np.longdouble: a Thomas loop for the reduced
    tridiagonal solve, then the explicit temperature update."""
    ld = np.longdouble
    J = grid.J
    f = step_factors(p, grid, ld)
    w = f.c_B + f.c_T * ld(grid.dt)
    # elimination of tridiag(-w, 1 + 2w, -w): multipliers and pivots
    pivots, multipliers = [1 + 2 * w], [ld(0)]
    for _ in range(1, J):
        multipliers.append(-w / pivots[-1])
        pivots.append(1 + 2 * w + multipliers[-1] * w)
    T, q = init.T.astype(ld), init.q_interior.astype(ld)
    Ts, qs = [T], [q]
    for _ in range(steps):
        r = list(f.c_r * q - f.c_Q * np.diff(T))
        for j in range(1, J):
            r[j] -= multipliers[j] * r[j - 1]
        x = [ld(0)] * J
        x[-1] = r[-1] / pivots[-1]
        for j in range(J - 2, -1, -1):
            x[j] = (r[j] + w * x[j + 1]) / pivots[j]
        q = np.array(x, dtype=ld)
        T = T - f.c_flux * np.diff(np.concatenate(([ld(0)], q, [ld(0)])))
        Ts.append(T)
        qs.append(q)
    return np.array(Ts), np.array(qs)


def discrete_decay_rate(p: MaterialParams, grid: Grid) -> float:
    """r_d = -2 ln rho(G_1) / dt: the rate at which the energy of the
    coupled scheme's slowest mode decays, with G_1 the mode-1 step matrix
    of scheme.assemble and rho the spectral radius."""
    step = scheme.assemble(p, grid)[0][..., 0]
    return float(-2.0 * np.log(np.max(np.abs(np.linalg.eigvals(step)))) / grid.dt)
