"""The verify checks, one implementation each, shared by the CLI and the tests.

Each check returns a CheckResult whose detail is the text `gkheat verify`
prints after PASS/FAIL; what a check can read from its trace, such as
whether the heat is 0, it takes no flag for.  Other layers are called
through their modules (scheme.run, scheme.assemble, ...), so that
whatever wraps a module attribute also sees the calls made from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import diagnostics, discretization, linalg, scheme
from .discretization import State
from .model import MaterialParams, SimulationConfig, StepperKind

#: relative slack for the per-step dissipation inequality
DISSIPATION_RTOL = 1e-12
#: multiplicative slack absorbing O(dx) quadrature error in the
#: continuum-functional check (lyapunov_sandwich)
QUADRATURE_SLACK = 0.01
#: oracle_equivalence's bound on the step backward error of consecutive
#: kept levels: clean runs read at most a few eps, and a relative slip of
#: 1e-9 in the step or the group hop reads 2.9e-11 and more
STEP_BACKWARD_ERROR_BOUND = 1e-13
#: oracle_equivalence's second run takes this many steps, or the main
#: run's N + 1 if fewer
ORACLE_STEPS = 10
#: slack of max_m ||G_m||_W^2 <= 1 (campaign draws and scans read 1 at most)
CERTIFICATE_SLACK = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; detail is the text printed after PASS/FAIL.

    value is the check's worst case and bound the most it may be: ok is
    value <= bound, so bound - value is the margin.
    """

    name: str
    detail: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.bound)


def _fixed(value: float, decimals: int) -> str:
    """value with `decimals` decimals, in e-notation from magnitude 1e6 up."""
    return f"{value:.{decimals}{'e' if abs(value) >= 1e6 else 'f'}}"


def state_gap(a: tuple[np.ndarray, np.ndarray],
              b: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest of the T and q gaps of a to b, each relative to max|.| of b's
    level; a and b are (T, q) pairs of one level or of stacked levels, a
    row each, and the largest gap over the levels is returned."""
    return float(max(np.max(np.max(np.abs(x - y), axis=-1)
                            / np.maximum(np.max(np.abs(y), axis=-1), 1e-300))
                     for x, y in zip(a, b)))


def heat_drift(trace: diagnostics.EnergyTrace) -> float:
    """Largest absolute deviation of the total heat from its initial value."""
    return float(np.max(np.abs(trace.heat - trace.heat[0])))


def energy_monotone(trace: diagnostics.EnergyTrace) -> CheckResult:
    jumps = np.diff(trace.E)
    worst = float(np.max(jumps)) if jumps.size else 0.0
    return CheckResult("energy_monotone", f"max energy increase {worst:.3e}",
                       worst, 1e-12 * max(float(trace.E[0]), 1.0))


def dissipation_inequality(trace: diagnostics.EnergyTrace) -> CheckResult:
    lhs, rhs = trace.diss_lhs[1:], trace.diss_rhs[1:]
    if not lhs.size:
        return CheckResult("dissipation_inequality", "no steps", 0.0, 0.0)
    slack = DISSIPATION_RTOL * np.maximum(1.0, np.abs(lhs))
    margin = float(np.min(rhs + slack - lhs))
    # the value is the worst step's excess of lhs over rhs + slack
    return CheckResult("dissipation_inequality", f"min margin {margin:.3e}",
                       -margin, 0.0)


def heat_conservation(trace: diagnostics.EnergyTrace) -> CheckResult:
    h0, drift = trace.heat[0], heat_drift(trace)
    rel = drift / abs(h0) if h0 != 0.0 else drift
    return CheckResult("heat_conservation", f"max drift {rel:.3e} (relative)",
                       float(rel), 1e-12 if h0 != 0.0 else 0.0)


def lyapunov_sandwich(trace: diagnostics.EnergyTrace,
                      params: MaterialParams) -> CheckResult:
    """low*E <= L <= high*E along the trace, within QUADRATURE_SLACK."""
    low, high = diagnostics.sandwich_bounds(params)
    E = np.maximum(trace.E, 1e-300)
    lower = float(np.min(trace.lyapunov / (low * E)))
    upper = float(np.max(trace.lyapunov / (high * E)))
    # the value is how far past 1 the nearer ratio reaches; a zero trace,
    # whose ratios read 0, has nothing to bound
    value = max(1.0 - lower, upper - 1.0) if trace.E[0] > 0.0 else -1.0
    return CheckResult("lyapunov_sandwich",
                       f"lower ratio >= {_fixed(lower, 4)}, "
                       f"upper ratio <= {_fixed(upper, 4)}",
                       value, QUADRATURE_SLACK)


def decay_envelope(trace: diagnostics.EnergyTrace,
                   params: MaterialParams) -> CheckResult:
    """E_n <= M*E_0*exp(-omega t_n) + M1*sup|C_T|, labelled the zero-mean
    bound where C_T, which vanishes with the heat, is 0."""
    dc = diagnostics.decay_constants(params)
    sup_ct = diagnostics.supremum_boundary_term(trace)
    envelope = dc.M * trace.E[0] * np.exp(-dc.omega * trace.t) + dc.M1 * sup_ct
    ratio = float(np.max(trace.E / np.maximum(envelope, 1e-300)))
    kind = "zero-mean bound" if sup_ct == 0.0 else "offset bound"
    return CheckResult("decay_envelope",
                       f"{kind}, max E/bound {_fixed(ratio, 4)}, sup|C_T| {sup_ct:.6g}",
                       ratio, 1.0 + 1e-12)


def step_backward_error(params: MaterialParams, grid: discretization.Grid,
                        before: tuple[np.ndarray, np.ndarray],
                        after: tuple[np.ndarray, np.ndarray]) -> float:
    """Normwise backward error of `after` as the implicit step of `before`:
    (T, q) pairs of one level or of stacked levels, a row each, on grid.

    The rows are the untransformed step equations, each times dt,

        rho c (T_j' - T_j) + (dt/dx) (q_{j+1}' - q_j'),                 j = 0..J,
        tau_q (q_j' - q_j) + dt q_j' - (mu2 dt/dx^2) (q_{j+1}' - 2 q_j' + q_{j-1}')
            + (k dt/dx) (T_j' - T_{j-1}'),                               j = 1..J,

    with factors formed here from params and grid, not read from
    scheme.assemble.  For the T equation and the flux law apart, the error
    is max_j |r_j| over max_j of the sum of |terms| of row j (0 where every
    term is 0), and the worst over the levels and both equations is
    returned (0 for no levels).  O(J) per level, no solve.
    """
    (T0, q0), (T1, q1) = before, after
    # every factor over 8: a sum of at most 6 finite terms stays finite, and
    # a power of 2 moves no ratio's bits
    dt, dx, rc, tau_q = grid.dt / 8.0, grid.dx, params.rho_c / 8.0, params.tau_q / 8.0
    flux, laplace, gradient = dt / dx, params.mu2 * dt / dx**2, params.k * dt / dx
    rows = ((rc * T1, -rc * T0, flux * q1[..., 1:], -flux * q1[..., :-1]),
            ((tau_q + dt + 2.0 * laplace) * q1[..., 1:-1], -tau_q * q0[..., 1:-1],
             -laplace * q1[..., 2:], -laplace * q1[..., :-2],
             gradient * T1[..., 1:], -gradient * T1[..., :-1]))
    worst = 0.0
    for terms in rows:
        residual = np.max(np.abs(sum(terms)), axis=-1)
        scale = np.max(sum(np.abs(term) for term in terms), axis=-1)
        worst = max(worst, float(np.max(np.divide(residual, scale, out=np.zeros_like(scale),
                                                  where=scale > 0.0), initial=0.0)))
    return worst


def oracle_state(grid: discretization.Grid) -> State:
    """A state on grid whose cosine amplitudes (modes 1..J) and sine
    amplitudes (1..J) are all equal, so that a step moves every mode: T is
    15 plus the idct of ones with mode 0 at 0, scaled to max|T - 15| = 10,
    and q the dst of ones, scaled to max|q| = 1e4."""
    modes = np.ones(grid.J + 1)
    modes[0] = 0.0
    e, q = linalg.idct(modes), linalg.dst(np.ones(grid.J))
    return State(T=15.0 + 10.0 / np.max(np.abs(e)) * e,
                 q=np.pad(1e4 / np.max(np.abs(q)) * q, 1))


def oracle_equivalence(params: MaterialParams, config: SimulationConfig,
                       traj: scheme.Trajectory) -> CheckResult:
    """step_backward_error of every pair of consecutive kept levels, a pair
    at a time, of two coupled runs on config's mesh: traj (verify keeps the
    levels of scheme.seam_steps in its main run) and a levels-only run of
    min(ORACLE_STEPS, N + 1) steps of config.dt from oracle_state, keeping
    every level, which reaches every mode."""
    steps = min(ORACLE_STEPS, traj.grid.N + 1)
    probe = scheme.run(params, dataclasses.replace(config, t_final=steps * config.dt),
                       oracle_state(traj.grid), levels_only=True)
    worst = 0.0
    for r in (traj, probe):
        for i in np.flatnonzero(np.diff(r.stored_steps) == 1):
            worst = max(worst, step_backward_error(params, r.grid, (r.T[i], r.q[i]),
                                                   (r.T[i + 1], r.q[i + 1])))
    return CheckResult("oracle_equivalence", f"worst step backward error {worst:.3e}",
                       worst, STEP_BACKWARD_ERROR_BOUND)


def stability_certificate(gain: float) -> CheckResult:
    """A step's largest energy gain (scheme.forecast) within
    CERTIFICATE_SLACK of 1: E then rises from no initial state."""
    return CheckResult("stability_certificate", f"max energy gain {gain:.6g}",
                       gain, 1.0 + CERTIFICATE_SLACK)


def discrete_mode_rate(params: MaterialParams, config: SimulationConfig) -> float:
    """r_d: the energy decay rate of mode 1 of the semi-discrete system on
    config's mesh, diagnostics.generator_decay_rate of scheme.assemble's
    mode-1 matrices at config.dt, with no step taken."""
    G, D = scheme.assemble(params, discretization.build_grid(params, config))
    return diagnostics.generator_decay_rate(G[..., 0], D[..., 0], config.dt)


def mode_rate_fit(params: MaterialParams, config: SimulationConfig) -> CheckResult:
    """discrete_mode_rate's r_d against twice the slow continuum rate of
    mode 1, within 2%.  The name is that of the least-squares fit to a
    run that this check replaced."""
    r_d = discrete_mode_rate(params, config)
    slow, _ = diagnostics.mode_decay_oracle(params, 1)
    target = 2.0 * abs(slow.real)
    rel = abs(r_d / target - 1.0)
    return CheckResult("mode_rate_fit",
                       f"discrete {r_d:.6g} 1/s vs spectral {target:.6g} 1/s "
                       f"({_fixed(100 * rel, 3)}% off)", rel, 0.02)


def printed_gaps(params: MaterialParams,
                 config: SimulationConfig) -> list[tuple[float, float]]:
    """(dt, gap) of one as-printed step to one coupled step, each a
    one-step levels-only run from the cosine initial state, at
    dt = config.dt, config.dt/2 and config.dt/4."""
    gaps = []
    for dt in config.dt / 2.0**np.arange(3):
        cfg = dataclasses.replace(config, dt=dt, t_final=dt)
        init = discretization.cosine_initial(discretization.build_grid(params, cfg),
                                             config.T_b, config.T_f)
        printed, coupled = (scheme.run(params, cfg, init, levels_only=True, kind=kind)
                            for kind in (StepperKind.VECTORIAL_AS_PRINTED,
                                         StepperKind.COUPLED_IMPLICIT))
        gaps.append((float(dt), state_gap((printed.T[1], printed.q[1]),
                                          (coupled.T[1], coupled.q[1]))))
    return gaps
