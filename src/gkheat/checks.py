"""The verify checks, one implementation each, shared by the CLI and the tests.

Each check returns a CheckResult whose detail is the text `gkheat verify`
prints after PASS/FAIL; what a check can read from its trace, such as
whether the heat is 0, it takes no flag for.  Other layers are called
through their modules (scheme.run, diagnostics.fit_energy_decay_rate,
...), so that whatever wraps a module attribute also sees the calls made
from here.
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
    return CheckResult("energy_monotone", f"max energy increase {worst:.3e}",
                       worst, 1e-12 * max(float(trace.E[0]), 1.0))


def dissipation_inequality(trace: diagnostics.EnergyTrace) -> CheckResult:
    lhs, rhs = trace.diss_lhs[1:], trace.diss_rhs[1:]
    if not lhs.size:
        return CheckResult("dissipation_inequality", "no steps", 0.0, 0.0)
    slack = diagnostics.DISSIPATION_RTOL * np.maximum(1.0, np.abs(lhs))
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
                       value, diagnostics.QUADRATURE_SLACK)


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


def _kept_states(traj: scheme.Trajectory) -> list[State]:
    return [State(T=T, q=q) for T, q in zip(traj.T, traj.q)]


def oracle_equivalence(params: MaterialParams, config: SimulationConfig,
                       rng: np.random.Generator) -> CheckResult:
    """run's coupled stepper against the dense solve of the interleaved system:
    at each J = 2..8, one run of 10 steps of config.dt from one random state
    (tracing E alone), every kept level k+1 against the dense step of level k."""
    worst = 0.0
    for J in range(2, 9):
        cfg = dataclasses.replace(config, dx=params.l / (J + 1), t_final=10 * config.dt,
                                  stepper_kind=StepperKind.COUPLED_IMPLICIT)
        q = np.pad(rng.normal(0.0, 1e4, J), 1)
        traj = scheme.run(params, cfg, State(T=rng.normal(15.0, 10.0, J + 1), q=q),
                          energy_only=True)
        levels = _kept_states(traj)
        for prev, level in zip(levels, levels[1:]):
            worst = max(worst, state_gap(
                level, scheme.step_coupled_reference(params, traj.grid, prev)))
    return CheckResult("oracle_equivalence",
                       f"worst relative gap to dense reference {worst:.3e}",
                       worst, 1e-10)


def zero_mean_decay(params: MaterialParams,
                    config: SimulationConfig) -> diagnostics.EnergyTrace:
    """The energy trace of a coupled run on config's mesh from the cosine
    profile at T_b = 0, tracing E alone and keeping no level but the ends.
    Its discrete heat dx*sum(T_j) is dx*T_f/2 (the cosine samples at
    j = 0..J sum to exactly 1), small but nonzero."""
    cfg = dataclasses.replace(config, T_b=0.0,
                              stepper_kind=StepperKind.COUPLED_IMPLICIT)
    grid = discretization.build_grid(params, cfg)
    return scheme.run(params, cfg, discretization.cosine_initial(grid, 0.0, cfg.T_f),
                      stride=grid.N + 1, energy_only=True).trace


def rate_fit_config(config: SimulationConfig) -> SimulationConfig:
    """mode_rate_fit's mesh: config's at dt/8, over the steps nearest 6 s (2 or more)."""
    dt_fit = config.dt / 8.0  # below 1e-300, 6/dt_fit may overflow: a mesh build_grid refuses
    t_final = max(2, round(6.0 / dt_fit)) * dt_fit if dt_fit > 1e-300 else 6.0
    return dataclasses.replace(config, dt=dt_fit, t_final=t_final)


def mode_rate_fit(params: MaterialParams, config: SimulationConfig) -> CheckResult:
    """Fitted energy decay rate of a zero-mean run on rate_fit_config's
    mesh, which traces the energy alone, against twice the slow continuum
    rate of mode 1, within 2%."""
    trace = zero_mean_decay(params, rate_fit_config(config))
    if trace.E[0] == 0.0:
        return CheckResult("mode_rate_fit", "zero initial data, nothing to fit",
                           0.0, 0.02)
    fitted = diagnostics.fit_energy_decay_rate(trace, params)
    slow, _ = diagnostics.mode_decay_oracle(params, 1)
    target = 2.0 * abs(slow.real)
    rel = abs(fitted / target - 1.0)
    return CheckResult("mode_rate_fit",
                       f"fitted {fitted:.6g} 1/s vs spectral {target:.6g} 1/s "
                       f"({_fixed(100 * rel, 3)}% off)", rel, 0.02)


def printed_gaps(params: MaterialParams,
                 config: SimulationConfig) -> list[tuple[float, float]]:
    """(dt, gap) of one as-printed step to one coupled step, each a
    one-step run from the cosine initial state that traces E alone, at
    dt = config.dt, config.dt/2 and config.dt/4."""
    gaps = []
    for dt in config.dt / 2.0**np.arange(3):
        cfg = dataclasses.replace(config, dt=dt, t_final=dt)
        init = discretization.cosine_initial(discretization.build_grid(params, cfg),
                                             config.T_b, config.T_f)
        printed, coupled = (_kept_states(scheme.run(
            params, dataclasses.replace(cfg, stepper_kind=kind), init, energy_only=True))[1]
            for kind in (StepperKind.VECTORIAL_AS_PRINTED, StepperKind.COUPLED_IMPLICIT))
        gaps.append((float(dt), state_gap(printed, coupled)))
    return gaps
