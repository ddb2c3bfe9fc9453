"""The verify checks, one implementation each, shared by the CLI and the tests.

Each check returns a CheckResult whose detail is the text `gkheat verify`
prints after PASS/FAIL.  Other layers are called through their modules
(scheme.run, diagnostics.fit_energy_decay_rate, ...), so that whatever
wraps a module attribute also sees the calls made from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import diagnostics, discretization, scheme
from .discretization import State
from .model import MaterialParams, SimulationConfig, StepperKind


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; detail is the text printed after PASS/FAIL."""

    name: str
    ok: bool
    detail: str


def state_gap(a: State, b: State) -> float:
    """Largest of the T and q gaps of a to b, each relative to max|.| of b."""
    gap_T = np.max(np.abs(a.T - b.T)) / max(np.max(np.abs(b.T)), 1e-300)
    gap_q = np.max(np.abs(a.q - b.q)) / max(np.max(np.abs(b.q)), 1e-300)
    return float(max(gap_T, gap_q))


def heat_drift(trace: diagnostics.EnergyTrace) -> float:
    """Largest absolute deviation of the total heat from its initial value."""
    return float(np.max(np.abs(trace.heat - trace.heat[0])))


def energy_monotone(trace: diagnostics.EnergyTrace) -> CheckResult:
    jumps = np.diff(trace.E)
    worst = float(np.max(jumps)) if jumps.size else 0.0
    ok = bool(np.all(jumps <= 1e-12 * max(trace.E[0], 1.0)))
    return CheckResult("energy_monotone", ok, f"max energy increase {worst:.3e}")


def dissipation_inequality(trace: diagnostics.EnergyTrace) -> CheckResult:
    lhs, rhs = trace.diss_lhs[1:], trace.diss_rhs[1:]
    if not lhs.size:
        return CheckResult("dissipation_inequality", True, "no steps")
    slack = diagnostics.DISSIPATION_RTOL * np.maximum(1.0, np.abs(lhs))
    margin = rhs + slack - lhs
    return CheckResult("dissipation_inequality", bool(np.all(margin >= 0.0)),
                       f"min margin {float(np.min(margin)):.3e}")


def heat_conservation(trace: diagnostics.EnergyTrace) -> CheckResult:
    h0, drift = trace.heat[0], heat_drift(trace)
    ok = drift <= 1e-12 * abs(h0) if h0 != 0.0 else drift == 0.0
    rel = drift / abs(h0) if h0 != 0.0 else drift
    return CheckResult("heat_conservation", ok, f"max drift {rel:.3e} (relative)")


def lyapunov_sandwich(trace: diagnostics.EnergyTrace,
                      params: MaterialParams) -> CheckResult:
    rep = diagnostics.lyapunov_sandwich_check(trace, params)
    return CheckResult("lyapunov_sandwich", rep.ok,
                       f"lower ratio >= {rep.min_lower_ratio:.4f}, "
                       f"upper ratio <= {rep.max_upper_ratio:.4f}")


def decay_envelope(trace: diagnostics.EnergyTrace, params: MaterialParams,
                   zero_mean: bool) -> CheckResult:
    dc = diagnostics.decay_constants(params)
    rep = diagnostics.envelope_check(trace, dc, zero_mean=zero_mean)
    kind = "zero-mean bound" if zero_mean else "offset bound"
    return CheckResult("decay_envelope", rep.ok,
                       f"{kind}, max E/bound {rep.max_ratio:.4f}, "
                       f"sup|C_T| {rep.sup_CT:.6g}")


def oracle_equivalence(params: MaterialParams, config: SimulationConfig,
                       rng: np.random.Generator) -> CheckResult:
    """step_coupled against the dense solve of the interleaved system, on
    ten random states at each J = 2..8 and one step of config.dt."""
    worst = 0.0
    for J in range(2, 9):
        cfg = dataclasses.replace(config, dx=params.l / (J + 1), t_final=config.dt)
        grid = discretization.build_grid(params, cfg)
        ops = scheme.assemble(params, grid)
        for _ in range(10):
            q = np.zeros(J + 2)
            q[1:-1] = rng.normal(0.0, 1e4, J)
            prev = State(T=rng.normal(15.0, 10.0, J + 1), q=q)
            worst = max(worst, state_gap(scheme.step_coupled(ops, params, grid, prev),
                                         scheme.step_coupled_reference(params, grid, prev)))
    return CheckResult("oracle_equivalence", worst <= 1e-10,
                       f"worst relative gap to dense reference {worst:.3e}")


def mode_rate_fit(params: MaterialParams, config: SimulationConfig) -> CheckResult:
    """Fitted energy decay rate of a zero-mean run at dt/8 over 6 s against
    twice the slow continuum rate of mode 1, within 2%."""
    dt_fit = config.dt / 8.0
    n_steps = max(2, round(6.0 / dt_fit))
    cfg = dataclasses.replace(config, dt=dt_fit, t_final=n_steps * dt_fit,
                              stepper_kind=StepperKind.COUPLED_IMPLICIT)
    grid = discretization.build_grid(params, cfg)
    traj = scheme.run(params, cfg, discretization.zero_mean_initial(grid, config.T_f),
                      stride=max(1, n_steps))
    if traj.trace.E[0] == 0.0:
        return CheckResult("mode_rate_fit", True, "zero initial data, nothing to fit")
    hi = min(5.0, 0.9 * cfg.t_final)
    fitted = diagnostics.fit_energy_decay_rate(traj.trace, params,
                                               t_window=(hi / 10.0, hi))
    slow, _ = diagnostics.mode_decay_oracle(params, 1)
    target = 2.0 * abs(slow.real)
    rel = abs(fitted / target - 1.0)
    return CheckResult("mode_rate_fit", rel <= 0.02,
                       f"fitted {fitted:.6g} 1/s vs spectral {target:.6g} 1/s "
                       f"({100 * rel:.3f}% off)")


def printed_gaps(params: MaterialParams,
                 config: SimulationConfig) -> list[tuple[float, float]]:
    """(dt, gap) of one as-printed step to one coupled step from the cosine
    initial state, at dt = config.dt, config.dt/2 and config.dt/4."""
    gaps = []
    for dt in config.dt / 2.0**np.arange(3):
        cfg = dataclasses.replace(config, dt=dt, t_final=dt)
        grid = discretization.build_grid(params, cfg)
        ops = scheme.assemble(params, grid)
        init = discretization.cosine_initial(grid, config.T_b, config.T_f)
        gaps.append((float(dt), state_gap(
            scheme.step_vectorial_as_printed(ops, params, grid, init),
            scheme.step_coupled(ops, params, grid, init))))
    return gaps
