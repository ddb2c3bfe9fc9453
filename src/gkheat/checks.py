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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import diagnostics, discretization, scheme
from .discretization import State
from .model import MaterialParams, SimulationConfig, StepperKind

#: relative slack for the per-step dissipation inequality
DISSIPATION_RTOL = 1e-12
#: multiplicative slack absorbing O(dx) quadrature error in the
#: continuum-functional check (lyapunov_sandwich)
QUADRATURE_SLACK = 0.01
#: oracle_equivalence's states, a row for each J = 2..8: q_1..q_J, then
#: T_0..T_J, the values that numpy's default_rng(1729) draws as
#: normal(0, 1e4, J), then normal(15, 10, J + 1), for J = 2..8 in turn
ORACLE_DRAWS = (
    (-2281.576374629646, -2969.6726891618873, 22.90185099011265, 21.821783624678453,
     3.5994149305402985),
    (8518.760376374508, -12155.550267779328, 1388.2201829008786, 4.138359855176478,
     9.306841086621663, 5.531462177774692, 12.000523021619518),
    (-1187.399763308384, -14002.062551900415, 2187.968704084891, -11148.814736874749,
     13.657066105091154, 26.776172821553484, 22.540394717615754, 34.947886386434426,
     8.548059031984371),
    (825.2552666666819, 16428.68419439926, -21796.332603204497, 5108.816628718664,
     -13690.679965280982, 23.3147262496597, 0.5856613664253008, 14.542284166251601,
     16.73512958545648, 23.019486183568524, 26.21261329787267),
    (-10002.376027171667, -16294.277968793633, -2436.416046338791, -8002.085505136599,
     1798.2177081140971, 13844.563172062108, 20.35573800761599, 16.41067433735506,
     8.277992380916956, 19.166635119552446, 22.84120729000839, -0.9180643822494776,
     25.3304535784779),
    (-1027.2648348918663, -11124.343978326693, -19646.671515060832, 7241.22567520298,
     2364.1681675255318, 1318.2011577573064, -9130.606543847205, 13.027688728093322,
     10.063291135330005, 28.918899944963975, 12.65073149066209, 25.625205952080883,
     14.1700632845333, 13.418015595565425, 10.971284106924998),
    (-3230.999627244334, 15248.437414335925, 8185.3034710877755, 2056.316381212752,
     4825.680228054525, 3190.0694329699822, 1491.1622604263516, 7843.354982960364,
     13.400861620146625, 25.51136059155724, 10.671523409697851, 27.920300052574092,
     23.949072795773244, -3.122091978975991, 2.7146129267362724, 31.35917207028529,
     25.05998260022624),
)


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


def oracle_equivalence(params: MaterialParams, config: SimulationConfig,
                       draws: Sequence[Sequence[float]] = ORACLE_DRAWS) -> CheckResult:
    """run's coupled stepper against the dense solve of the interleaved system:
    at each J = 2..8, one run of 10 steps of config.dt (tracing E alone) from
    the state of draws' row J - 2, q_1..q_J then T_0..T_J, each kept level
    k+1 against scheme.step_coupled_reference's step of level k."""
    worst = 0.0
    for J, row in enumerate(draws, start=2):
        cfg = dataclasses.replace(config, dx=params.l / (J + 1), t_final=10 * config.dt)
        traj = scheme.run(params, cfg, State(T=row[J:], q=np.pad(row[:J], 1)),
                          energy_only=True)
        reference = scheme.step_coupled_reference(params, traj.grid, traj.T[:-1],
                                                  traj.q[:-1])
        worst = max(worst, state_gap((traj.T[1:], traj.q[1:]), reference))
    return CheckResult("oracle_equivalence",
                       f"worst relative gap to dense reference {worst:.3e}",
                       worst, 1e-10)


def zero_mean_decay(params: MaterialParams,
                    config: SimulationConfig) -> diagnostics.EnergyTrace:
    """The energy trace of a coupled run on config's mesh from the cosine
    profile at T_b = 0, tracing E alone and keeping no level but the ends.
    Its discrete heat dx*sum(T_j) is dx*T_f/2 (the cosine samples at
    j = 0..J sum to exactly 1), small but nonzero."""
    cfg = dataclasses.replace(config, T_b=0.0)
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
        printed, coupled = (scheme.run(params, cfg, init, energy_only=True, kind=kind)
                            for kind in (StepperKind.VECTORIAL_AS_PRINTED,
                                         StepperKind.COUPLED_IMPLICIT))
        gaps.append((float(dt), state_gap((printed.T[1], printed.q[1]),
                                          (coupled.T[1], coupled.q[1]))))
    return gaps
