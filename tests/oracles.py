"""Physical-space oracles for the modal engine, independent of it on purpose.

They evaluate the trace quantities (the energy E, the heat, C_T and the
Lyapunov functional) and step residuals directly on physical states, as
the scheme's equations write them; longdouble_coupled_run steps
the coupled scheme in extended precision without gkheat.scheme, and
step_coupled_reference steps it by dense O(J^3) solves of the interleaved
system (dense_solve, numpy's LAPACK solve).  discrete_decay_rate is the
exact decay rate of the assembled step matrix from numpy's eigenvalues,
against which a rate fitted to a trace is checked, and semi_discrete_rate
that of mode 1 of the semi-discrete system, from numpy's eigenvalues of
its generator formed without scheme.assemble, against which
diagnostics.generator_decay_rate is checked.  fit_energy_decay_rate fits
a rate to a trace, as sweep did before it read the exact one, from
zero_mean_decay's run, whose last E scheme.forecast is held to.
one_step, table_sums and oracle_draws are not oracles: one takes the
single steps the tests compare, through scheme.run, one sums
scheme.modal_trace_table's two tables over a level's features, as run's
blocks do, and the last draws, from a
generator, the random states on J = 2..8 whose 10-step runs acceptance
criterion C4 holds to checks.step_backward_error's bound, beside
checks.oracle_equivalence.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from gkheat import GridMismatch, scheme
from gkheat.diagnostics import EnergyTrace
from gkheat.discretization import (Grid, State, _require_on_grid, build_grid,
                                   cosine_initial)
from gkheat.linalg import difference_symbols
from gkheat.model import MaterialParams, SimulationConfig, StepperKind


def one_step(p: MaterialParams, grid: Grid, prev: State,
             kind: StepperKind = StepperKind.COUPLED_IMPLICIT) -> State:
    """prev advanced one step of grid.dt by a scheme.run of the stepper kind."""
    cfg = SimulationConfig(dx=grid.dx, dt=grid.dt, t_final=grid.dt, T_b=0.0, T_f=0.0)
    traj = scheme.run(p, cfg, prev, kind=kind)
    return State(T=traj.T[1], q=traj.q[1])


def zero_mean_decay(p: MaterialParams, config: SimulationConfig) -> EnergyTrace:
    """The trace of a coupled run on config's mesh from the cosine profile
    at T_b = 0, keeping no level but the ends: the run whose last E and
    rate scheme.forecast reads without it.  Its discrete heat dx*T_f/2 is
    small but nonzero."""
    grid = build_grid(p, config)
    return scheme.run(p, config, cosine_initial(grid, 0.0, config.T_f),
                      keep=[grid.N + 1]).trace


def table_sums(tables: tuple[np.ndarray, np.ndarray],
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums build_trace takes of the levels G^l x, l = 0..L-1, from
    scheme.modal_trace_table's two tables and the features of the base
    level x = (a, b): the quadratic table's on a^2, ab, b^2, (L, 4), and
    the linear table's on a, b, (L, 2)."""
    quadratic, linear = tables
    a, b = x
    L = quadratic.shape[0]
    return (quadratic.reshape(L, 4, -1) @ np.concatenate((a * a, a * b, b * b)),
            linear.reshape(L, 2, -1) @ np.concatenate((a, b)))


def equilibrium_energy(params: MaterialParams, heat: float) -> float:
    """Energy of the uniform state carrying total heat `heat`.

    The scheme conserves dx*sum(T_j) and relaxes to the uniform temperature
    heat/l with zero flux, so E -> (rho c/2) heat^2 / l.
    """
    return 0.5 * params.rho_c * heat * heat / params.l


def fit_energy_decay_rate(trace: EnergyTrace, params: MaterialParams) -> float:
    """Least-squares exponential decay rate of the excess energy.

    Fits log(E_n - E_eq) over t in [hi/10, hi], hi = min(5, 0.9 t[-1]),
    with E_eq the conserved-heat equilibrium energy; subtracting it removes
    the equilibrium floor so the fit is meaningful for nonzero-mean data too.
    Raises ValueError if the window holds fewer than 2 usable points.
    """
    hi = min(5.0, 0.9 * float(trace.t[-1]))
    excess = trace.E - equilibrium_energy(params, float(trace.heat[0]))
    mask = (trace.t >= hi / 10.0) & (trace.t <= hi) & (excess > 0.0)
    if np.count_nonzero(mask) < 2:
        raise ValueError("decay-rate window contains fewer than 2 usable points")
    return float(-np.polyfit(trace.t[mask], np.log(excess[mask]), 1)[0])


def oracle_draws(rng: np.random.Generator) -> list[np.ndarray]:
    """One state a row drawn from rng, for each J = 2..8: normal(0, 1e4, J)
    for q_1..q_J, then normal(15, 10, J + 1) for T_0..T_J."""
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


def dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a square 2-D array a (LAPACK, partial pivoting)."""
    return np.linalg.solve(a, b)


def step_coupled_reference(params: MaterialParams, grid: Grid, T: np.ndarray,
                           q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force coupled steps: dense solves of the interleaved system.

    T (S, J+1) and q (S, J+2) are S levels on grid, a run's stacked levels;
    the result (T', q') holds, row by row, the level one step after each.
    Unknowns are ordered (T_0, q_1, T_1, q_2, ..., T_J); rows are the
    untransformed step equations (bandwidth 2), assembled verbatim once as
    a dense (2J+1) x (2J+1) matrix and equilibrated by rows and then
    columns.  Each level is one dense_solve against it: a solve with S
    right-hand sides at once rounds differently from single ones.  O(J^3);
    for small J cross-checks of run's coupled stepper.
    """
    J, dx, dt = grid.J, grid.dx, grid.dt
    if T.ndim != 2 or T.shape[1] != J + 1 or q.shape != (len(T), J + 2):
        raise GridMismatch(f"expected levels T (S, {J + 1}) and q (S, {J + 2}), "
                           f"got T{T.shape}, q{q.shape}")
    rc = params.rho_c
    n = 2 * J + 1
    a = np.zeros((n, n))
    T_rows, q_rows = np.arange(0, n, 2), np.arange(1, n, 2)  # T_j at 2j, q_j at 2j - 1
    a[T_rows, T_rows] = rc / dt
    a[q_rows - 1, q_rows] = 1.0 / dx  # T_{j-1}'s row holds +q_j/dx, T_j's -q_j/dx
    a[q_rows + 1, q_rows] = -1.0 / dx
    a[q_rows, q_rows] = params.tau_q / dt + 1.0 + 2.0 * params.mu2 / dx**2
    a[q_rows[1:], q_rows[:-1]] = a[q_rows[:-1], q_rows[1:]] = -params.mu2 / dx**2
    a[q_rows, q_rows + 1] = params.k / dx
    a[q_rows, q_rows - 1] = -params.k / dx
    # equilibrated: each row, then each column, scaled to max|entry| 1
    rows = 1.0 / np.max(np.abs(a), axis=1)
    a *= rows[:, None]
    columns = 1.0 / np.max(np.abs(a), axis=0)
    a *= columns
    b = np.empty((len(T), n))
    b[:, T_rows] = rc / dt * T
    b[:, q_rows] = params.tau_q / dt * q[:, 1:-1]
    b *= rows
    x = columns * np.array([dense_solve(a, level) for level in b]).reshape(b.shape)
    return x[:, T_rows], np.pad(x[:, q_rows], ((0, 0), (1, 1)))


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
    tridiagonal solve, then the explicit temperature update.

    That update, T' = T - c_flux diff(q), cancels where a step damps a
    mode's temperature by orders (c_T dt s_m^2 >> 1 + c_B s_m^2): T' keeps
    about longdouble's eps times |T| in absolute terms.  So the reference
    holds where every mode keeps a fair share of its temperature per step,
    as on the meshes of the tests that read it (no mode there has
    D_aa <= -0.5, where scheme.assemble takes G_aa's closed form); it is no
    reference where a step keeps 1e-6 of it, as at rho c ~ 1e-39 and
    dt = 6, where its own rounded step reads a backward error of 3.8e-3."""
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


def semi_discrete_rate(p: MaterialParams, grid: Grid) -> float:
    """2|Re lambda|, lambda the slow eigenvalue of mode 1 of the
    semi-discrete system on grid's mesh: the energy decay rate that
    backward Euler steps of any length approach.  With s = s_1, the
    amplitudes (a, b) obey a' = -s b/(rho c dx) and
    tau_q b' = k s a/dx - (1 + mu2 s^2/dx^2) b, whose generator is formed
    from params and linalg.difference_symbols alone; at tau_q = 0 the flux
    is slaved to a and the generator is the scalar
    -k s^2/(rho c dx^2 (1 + mu2 s^2/dx^2)).  The rate comes from numpy's
    eigenvalues, the slow one that of largest real part."""
    s, dx = difference_symbols(grid.J)[0], grid.dx
    damping = 1.0 + p.mu2 * s * s / (dx * dx)
    if p.tau_q == 0.0:
        A = np.array([[-p.k * s * s / (p.rho_c * dx * dx * damping)]])
    else:
        A = np.array([[0.0, -s / (p.rho_c * dx)],
                      [p.k * s / (p.tau_q * dx), -damping / p.tau_q]])
    return float(2.0 * abs(np.max(np.linalg.eigvals(A).real)))
