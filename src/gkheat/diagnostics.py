"""Energy functionals, decay estimates, and spectral oracles.

The central quantity is the discrete functional energy

    E^n = (rho*c/2) dx sum_{j=0..J} |T_j^n|^2
        + (tau_q/(2k)) dx sum_{j=0..J} |q_j^n|^2,

which the coupled implicit scheme dissipates at the rate

    (E^n - E^{n-1})/dt <= -(1/k) dx sum |q_j^n|^2
                          - (mu2/k) dx sum |(q_{j+1}^n - q_j^n)/dx|^2.

Everything here is a pure function of states or traces.  The state-level
functions (discrete_energy, lyapunov, ...) evaluate one physical state.
modal_trace_rows evaluates the same quantities for whole chunks of levels
at once, from the modal amplitudes the trajectory runner steps (see linalg
and scheme): each trace column is a weighted sum over the modes, with the
fixed weights of modal_trace_weights.  The runner stacks the rows and
build_trace turns them into an EnergyTrace.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .discretization import Grid, State
from .errors import DegenerateTrace, InsufficientFitData
from .linalg import difference_symbols
from .model import MaterialParams

#: relative slack for the per-step dissipation inequality
DISSIPATION_RTOL = 1e-12
#: multiplicative slack absorbing O(dx) quadrature error in the
#: continuum-functional checks (Lyapunov sandwich)
QUADRATURE_SLACK = 0.01


@dataclass(frozen=True)
class EnergyTrace:
    """Per-step diagnostics of one trajectory (arrays of length N+2).

    diss_lhs/diss_rhs are the two sides of the dissipation inequality; row 0
    has no predecessor and carries zeros there.  Z is the normalized
    envelope quantity 1 + (M1*sup|C_T| / (M0*E0)) * exp(omega*t_n); it is
    NaN when E0 = 0.
    """

    t: np.ndarray         # time [s]
    E: np.ndarray         # discrete functional energy
    diss_lhs: np.ndarray  # (E^n - E^{n-1})/dt
    diss_rhs: np.ndarray  # dissipation bound
    heat: np.ndarray      # total heat dx*sum(T_j)
    C_T: np.ndarray       # boundary-times-mean term
    lyapunov: np.ndarray  # weighted Lyapunov functional
    Z: np.ndarray         # normalized envelope quantity

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class DecayConstants:
    """Constants of the exponential decay estimate.

    beta   = min(2k/(rho c), 4(l^2 + mu2)/tau_q)   (second term +inf at tau_q=0)
    omega  = beta / (3 l^2 + 3 mu2 + 2 tau_q k/(rho c))
    M      = (3 l^2 + 3 mu2 + 2 tau_q k/(rho c)) / (l^2 + mu2)   (> 1)
    gamma0 = 1 / (l^2 + mu2)
    M1     = 2 gamma0 / omega

    M plays the role of M0 in the bound E(t) <= M0 E(0) e^{-omega t}
    + M1 sup|C_T|.  sup_CT is filled in from a computed trace.
    """

    beta: float
    omega: float
    M: float
    gamma0: float
    M1: float
    sup_CT: float | None = None

    def with_sup_ct(self, trace: EnergyTrace) -> "DecayConstants":
        return dataclasses.replace(self, sup_CT=supremum_boundary_term(trace))


def decay_constants(params: MaterialParams) -> DecayConstants:
    """Evaluate the decay constants for the given material."""
    rc = params.rho_c
    l2mu = params.l**2 + params.mu2
    relax_bound = math.inf if params.tau_q == 0.0 else 4.0 * l2mu / params.tau_q
    beta = min(2.0 * params.k / rc, relax_bound)
    denom = 3.0 * params.l**2 + 3.0 * params.mu2 + 2.0 * params.tau_q * params.k / rc
    omega = beta / denom
    M = denom / l2mu
    gamma0 = 1.0 / l2mu
    constants = DecayConstants(beta=beta, omega=omega, M=M, gamma0=gamma0,
                               M1=2.0 * gamma0 / omega)
    assert constants.M > 1.0 and constants.beta > 0.0 and constants.omega > 0.0
    return constants


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


def sandwich_bounds(params: MaterialParams) -> tuple[float, float]:
    """Coefficients (low, high) with low*E <= L <= high*E."""
    low = params.l**2 + params.mu2
    high = 3.0 * params.l**2 + 3.0 * params.mu2 + 2.0 * params.tau_q * params.k / params.rho_c
    return low, high


@dataclass(frozen=True)
class DissipationReport:
    lhs: float
    rhs: float
    slack: float
    ok: bool


def dissipation_check(prev: State, next: State, params: MaterialParams,
                      dx: float, dt: float) -> DissipationReport:
    """Check the per-step dissipation inequality between two states.

    lhs = (E^n - E^{n-1})/dt is evaluated in difference-product form
    sum (a-b)(a+b) rather than by subtracting two large energies, so the
    check is not drowned by cancellation once the run sits near
    equilibrium.
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
    slack = DISSIPATION_RTOL * max(1.0, abs(lhs))
    return DissipationReport(lhs=lhs, rhs=rhs, slack=slack,
                             ok=lhs <= rhs + slack)


def supremum_boundary_term(trace: EnergyTrace) -> float:
    """Running supremum of |C_T| over the computed trajectory.

    The decay estimate treats ||C_T||_inf as a sup over all time; only the
    computed horizon is available, so the value used is reported alongside
    every envelope check.
    """
    return float(np.max(np.abs(trace.C_T)))


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    first_violation: int | None
    sup_CT: float
    zero_mean: bool
    max_ratio: float  # max over n of E_n / bound_n


def envelope_check(trace: EnergyTrace, constants: DecayConstants,
                   zero_mean: bool = False) -> EnvelopeReport:
    """Check E_n <= M*E_0*exp(-omega t_n) (+ M1*sup|C_T| unless zero_mean)."""
    sup_ct = supremum_boundary_term(trace)
    offset = 0.0 if zero_mean else constants.M1 * sup_ct
    bound = constants.M * trace.E[0] * np.exp(-constants.omega * trace.t) + offset
    ratio = trace.E / np.maximum(bound, 1e-300)
    bad = np.nonzero(trace.E > bound * (1.0 + 1e-12))[0]
    first = int(bad[0]) if bad.size else None
    return EnvelopeReport(ok=first is None, first_violation=first,
                          sup_CT=sup_ct, zero_mean=zero_mean,
                          max_ratio=float(np.max(ratio)))


@dataclass(frozen=True)
class SandwichReport:
    ok: bool
    first_violation: int | None
    min_lower_ratio: float  # min over n of L_n / (low*E_n)
    max_upper_ratio: float  # max over n of L_n / (high*E_n)


def lyapunov_sandwich_check(trace: EnergyTrace, params: MaterialParams,
                            slack: float = QUADRATURE_SLACK) -> SandwichReport:
    """Check low*E <= L <= high*E along a trace with multiplicative slack."""
    low, high = sandwich_bounds(params)
    L, E = trace.lyapunov, trace.E
    lo_ok = L >= low * E * (1.0 - slack)
    hi_ok = L <= high * E * (1.0 + slack)
    bad = np.nonzero(~(lo_ok & hi_ok))[0]
    first = int(bad[0]) if bad.size else None
    safe_E = np.maximum(E, 1e-300)
    return SandwichReport(ok=first is None, first_violation=first,
                          min_lower_ratio=float(np.min(L / (low * safe_E))),
                          max_upper_ratio=float(np.max(L / (high * safe_E))))


def mode_decay_oracle(params: MaterialParams,
                      mode_index: int) -> tuple[complex, complex | None]:
    """Continuum decay rates of the separated mode T ~ cos(kappa x), q ~ sin(kappa x).

    For kappa = mode_index*pi/l the mode amplitudes (a, b) obey

        a' = -kappa b / (rho c),
        tau_q b' = -(1 + mu2 kappa^2) b + k kappa a,

    a 2x2 companion system whose eigenvalues are returned ordered by |Re|
    (slow first).  For tau_q = 0 the system degenerates to the single rate
    -k kappa^2 / (rho c (1 + mu2 kappa^2)) and the fast root is None.

    This is the independent oracle used to cross-check fitted energy decay
    rates: energy decays at 2|Re(lambda_slow)|.
    """
    if mode_index < 1:
        raise ValueError("mode_index must be a positive integer")
    kappa = mode_index * math.pi / params.l
    rc = params.rho_c
    if params.tau_q == 0.0:
        rate = -params.k * kappa**2 / (rc * (1.0 + params.mu2 * kappa**2))
        return complex(rate), None
    tr = -(1.0 + params.mu2 * kappa**2) / params.tau_q
    det = params.k * kappa**2 / (rc * params.tau_q)
    sq = cmath.sqrt(complex(tr * tr - 4.0 * det))
    roots = sorted(((tr + sq) / 2.0, (tr - sq) / 2.0),
                   key=lambda z: (abs(z.real), abs(z.imag)))
    return roots[0], roots[1]


def normalized_Z(trace: EnergyTrace, constants: DecayConstants) -> np.ndarray:
    """Z_n = 1 + (M1*sup|C_T| / (M*E_0)) * exp(omega*t_n)."""
    E0 = trace.E[0]
    if E0 <= 0.0:
        raise DegenerateTrace("normalized_Z requires E0 > 0")
    sup_ct = supremum_boundary_term(trace)
    return 1.0 + (constants.M1 * sup_ct / (constants.M * E0)) * np.exp(
        constants.omega * trace.t)


def equilibrium_energy(params: MaterialParams, heat: float) -> float:
    """Energy of the uniform state carrying total heat `heat`.

    The scheme conserves dx*sum(T_j) and relaxes to the uniform temperature
    heat/l with zero flux, so E -> (rho c/2) heat^2 / l.
    """
    return 0.5 * params.rho_c * heat * heat / params.l


def fit_energy_decay_rate(trace: EnergyTrace, params: MaterialParams,
                          t_window: tuple[float, float] = (0.5, 5.0)) -> float:
    """Least-squares exponential decay rate of the excess energy.

    Fits log(E_n - E_eq) over the time window, with E_eq the conserved-heat
    equilibrium energy; subtracting it removes the equilibrium floor so the
    fit is meaningful for nonzero-mean data too.
    """
    e_eq = equilibrium_energy(params, float(trace.heat[0]))
    excess = trace.E - e_eq
    mask = (trace.t >= t_window[0]) & (trace.t <= t_window[1]) & (excess > 0.0)
    if np.count_nonzero(mask) < 2:
        raise InsufficientFitData("decay-rate window contains fewer than 2 usable points")
    slope = np.polyfit(trace.t[mask], np.log(excess[mask]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class ModalTraceWeights:
    """Fixed weights turning the modal amplitudes of a level into its trace.

    A level is x = (a, b), a_m the cosine amplitudes of the fluctuation e of
    T = m + e and b_m the sine amplitudes of q_1..q_J (m = 1..J); the
    columns of square, linear and increment weight the flattened 2J-vector
    x.  By orthonormality sum e^2 = sum a^2 and sum q^2 = sum b^2; A_q q
    has the amplitudes s_m b_m; and the tail sum I_j = dx sum_{i>=j} T_i is
    dx m (J+1-j) plus, per cosine mode m, -(dx/s_m) times sine mode m (0 at
    j = 0).  That makes E, F and diss_rhs quadratic forms of x, the cross
    term <q, I> of F a weighted sum of a_m b_m, and C_T/heat and F's part
    proportional to m linear forms.
    """

    square: np.ndarray      # (2J, 3): E, F, diss_rhs per x_i^2
    cross: np.ndarray       # (J,): F per a_m b_m
    linear: np.ndarray      # (2J, 2): C_T/heat, F/m per x_i
    increment: np.ndarray   # (2J,): diss_lhs per (x'_i - x_i)(x'_i + x_i)
    E_mean: float           # E per m^2
    F_mean: float           # F per m^2
    heat_mean: float        # heat per m
    boundary_mean: float    # C_T/heat per m
    lyapunov_weight: float  # L = weight*E + F


def modal_trace_weights(params: MaterialParams, grid: Grid) -> ModalTraceWeights:
    """The weights of modal_trace_rows for one (params, grid) pair."""
    J, dx, n = grid.J, grid.dx, grid.J + 1
    k, mu2, tau_q, rc = params.k, params.mu2, params.tau_q, params.rho_c
    w_T, w_q = rc * dx / 2.0, (tau_q / k) * (dx / 2.0)
    s = difference_symbols(J)
    half = 0.5 * np.pi * np.arange(1, n) / n          # s = 2 sin(half)
    root = np.sqrt(2.0 / n)
    # the cosine vectors at j = 0, the sine vectors at j = 1, and the sine
    # amplitudes of the ramp n - j (j = 1..J): sum_j (n-j) sin(2 j half)
    # = (n/2) cot(half)
    at_T0, at_q1 = root * np.cos(half), root * np.sin(2.0 * half)
    ramp = root * (n / 2.0) / np.tan(half)
    zero = np.zeros(J)
    energy = np.concatenate((np.full(J, w_T), np.full(J, w_q)))
    square = np.column_stack((
        energy,
        np.concatenate(((rc / 2.0) * dx * (dx * dx / (s * s) + mu2), zero)),
        np.concatenate((zero, -(dx / k) - (mu2 / (k * dx)) * s * s))))
    linear = np.column_stack((
        np.concatenate((-k * at_T0, (mu2 / dx) * at_q1)),
        np.concatenate((-rc * dx**3 * ramp / s, tau_q * dx * dx * ramp))))
    ramp_sq = n * (n + 1) * (2 * n + 1) / 6.0       # sum_{j=0..J} (n-j)^2
    return ModalTraceWeights(
        square=square, cross=-tau_q * dx * dx / s, linear=linear,
        increment=energy / grid.dt, E_mean=w_T * n,
        F_mean=(rc / 2.0) * dx * (dx * dx * ramp_sq + mu2 * n),
        heat_mean=dx * n, boundary_mean=-k,
        lyapunov_weight=2.0 * params.l**2 + 2.0 * mu2 + tau_q * k / rc)


def modal_trace_rows(w: ModalTraceWeights, m: float, x: np.ndarray,
                     increments: np.ndarray, first: int = 1) -> np.ndarray:
    """Trace rows of consecutive levels of a trajectory split as T = m + e.

    x (K+1 x 2 x J) holds the modal amplitudes (a, b) of one level per row,
    increments (K x 2 x J) the change x[k] - x[k-1] as the step computed
    it.  Returns the rows of levels first..K with columns E, diss_lhs,
    diss_rhs, heat, C_T, lyapunov; the dissipation sides pair each level
    with the row before and are zero for row 0 (first=0).  diss_lhs is
    formed from the increments directly, sum (x' - x)(x' + x), so it is
    neither drowned by cancellation near equilibrium nor limited by the
    rounding of x' itself; the mean, never stepped, drops out of it and
    keeps the heat exactly constant.
    """
    X = x.reshape(x.shape[0], -1)
    rows = np.zeros((X.shape[0] - first, 6))
    rows[1 - first:, 1] = (increments.reshape(X.shape[0] - 1, -1)
                           * (X[1:] + X[:-1])) @ w.increment
    X, a, b = X[first:], x[first:, 0], x[first:, 1]
    square, linear = (X * X) @ w.square, X @ w.linear
    rows[:, 0] = E = w.E_mean * m * m + square[:, 0]
    rows[1 - first:, 2] = square[1 - first:, 2]
    rows[:, 3] = heat = w.heat_mean * m
    rows[:, 4] = (w.boundary_mean * m + linear[:, 0]) * heat
    F = w.F_mean * m * m + square[:, 1] + (a * b) @ w.cross + m * linear[:, 1]
    rows[:, 5] = w.lyapunov_weight * E + F
    return rows


def build_trace(params: MaterialParams, t: np.ndarray,
                rows: np.ndarray) -> EnergyTrace:
    """EnergyTrace from stacked modal_trace_rows output at times t, with Z."""
    trace = EnergyTrace(t=t.copy(), E=rows[:, 0], diss_lhs=rows[:, 1],
                        diss_rhs=rows[:, 2], heat=rows[:, 3], C_T=rows[:, 4],
                        lyapunov=rows[:, 5],
                        Z=np.full(t.size, np.nan))
    if trace.E[0] > 0.0:
        trace = dataclasses.replace(trace, Z=normalized_Z(trace, decay_constants(params)))
    return trace
