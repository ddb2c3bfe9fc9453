"""Energy functionals, decay estimates, and spectral oracles.

The central quantity is the discrete functional energy

    E^n = (rho*c/2) dx sum_{j=0..J} |T_j^n|^2
        + (tau_q/(2k)) dx sum_{j=0..J} |q_j^n|^2,

which the coupled implicit scheme dissipates at the rate

    (E^n - E^{n-1})/dt <= -(1/k) dx sum |q_j^n|^2
                          - (mu2/k) dx sum |(q_{j+1}^n - q_j^n)/dx|^2.

Everything here is a pure function of its arguments.  The trajectory
runner (see linalg and scheme) gets the trace of every level from the
modal amplitudes it steps: each trace column is a sum over the modes with
the weights of modal_trace_weights, and is a quadratic or linear form in
the level a chunk starts from.
modal_trace_table tabulates those forms for a block of modes, all five or
the energy's alone, and build_trace completes their sums into an EnergyTrace.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .discretization import Grid
from .errors import InsufficientFitData, NumericalFailure
from .linalg import difference_symbols
from .model import MaterialParams

#: relative slack for the per-step dissipation inequality
DISSIPATION_RTOL = 1e-12
#: multiplicative slack absorbing O(dx) quadrature error in the
#: continuum-functional check (checks.lyapunov_sandwich)
QUADRATURE_SLACK = 0.01


@dataclass(frozen=True)
class EnergyTrace:
    """Per-step diagnostics of one trajectory (arrays of length N+2).

    diss_lhs/diss_rhs are the two sides of the dissipation inequality; row 0
    has no predecessor and carries zeros there.  An energy-only trace
    (scheme.run's energy_only) has t, E and heat, and None in the other
    four columns.  build_trace's E, diss_lhs, diss_rhs, C_T and lyapunov
    are the columns of one (N+2, 5) array.
    """

    t: np.ndarray                # time [s]
    E: np.ndarray                # discrete functional energy
    diss_lhs: np.ndarray | None  # (E^n - E^{n-1})/dt
    diss_rhs: np.ndarray | None  # dissipation bound
    heat: np.ndarray             # total heat dx*sum(T_j)
    C_T: np.ndarray | None       # boundary-times-mean term
    lyapunov: np.ndarray | None  # weighted Lyapunov functional

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
    + M1 sup|C_T|; supremum_boundary_term takes sup|C_T| from a trace.
    """

    beta: float
    omega: float
    M: float
    gamma0: float
    M1: float


def decay_constants(params: MaterialParams) -> DecayConstants:
    """The decay constants of the material; NumericalFailure if omega is 0."""
    l2mu, denom = sandwich_bounds(params)
    relax_bound = math.inf if params.tau_q == 0.0 else 4.0 * l2mu / params.tau_q
    beta = min(2.0 * params.k / params.rho_c, relax_bound)
    omega = beta / denom
    if not omega > 0.0:
        raise NumericalFailure(f"decay rate omega = {beta:.3g}/{denom:.3g} underflows to 0")
    M = denom / l2mu
    gamma0 = 1.0 / l2mu
    constants = DecayConstants(beta=beta, omega=omega, M=M, gamma0=gamma0,
                               M1=2.0 * gamma0 / omega)
    assert constants.M > 1.0 and constants.beta > 0.0
    return constants


def sandwich_bounds(params: MaterialParams) -> tuple[float, float]:
    """Coefficients (low, high) with low*E <= L <= high*E."""
    low = params.l**2 + params.mu2
    high = 3.0 * params.l**2 + 3.0 * params.mu2 + 2.0 * params.tau_q * params.k / params.rho_c
    return low, high


def supremum_boundary_term(trace: EnergyTrace) -> float:
    """Running supremum of |C_T| over the computed trajectory.

    The decay estimate treats ||C_T||_inf as a sup over all time; only the
    computed horizon is available, so the value used is reported alongside
    every envelope check.
    """
    return float(np.max(np.abs(trace.C_T)))


def mode_decay_oracle(params: MaterialParams,
                      mode_index: int) -> tuple[complex, complex | None]:
    """Continuum decay rates (slow, fast) of the separated mode
    T ~ cos(kappa x), q ~ sin(kappa x).

    For kappa = mode_index*pi/l the mode amplitudes (a, b) obey

        a' = -kappa b / (rho c),
        tau_q b' = -(1 + mu2 kappa^2) b + k kappa a,

    whose rates solve tau_q lambda^2 + D lambda + k kappa^2/(rho c) = 0,
    D = 1 + mu2 kappa^2.  With Fourier's rate r = k kappa^2/(rho c D) and
    root = sqrt(1 - 4 r tau_q/D),

        slow = -2 r / (1 + root),
        fast = -D (1 + root) / (2 tau_q),

    one form of the slow rate for every tau_q, mu2 >= 0 that divides by no
    difference and squares no trace, formed in an order that over- or
    underflows only where the rate does.  At tau_q = 0 the slow rate is
    -r and there is no fast root (None); where root is imaginary the pair
    is complex and fast is slow's conjugate.

    This is the independent oracle used to cross-check fitted energy decay
    rates: energy decays at 2|Re(lambda_slow)|.
    """
    if mode_index < 1:
        raise ValueError("mode_index must be a positive integer")
    kappa = mode_index * math.pi / params.l
    D = 1.0 + params.mu2 * kappa**2
    r = params.k * kappa**2 / params.rho_c / D
    root = cmath.sqrt(1.0 - 4.0 * r / D * params.tau_q)
    slow = -2.0 * r / (1.0 + root)
    if params.tau_q == 0.0:
        return slow, None
    if root.imag != 0.0:
        return slow, slow.conjugate()
    return slow, -D * (1.0 + root) / (2.0 * params.tau_q)


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
    """
    hi = min(5.0, 0.9 * float(trace.t[-1]))
    e_eq = equilibrium_energy(params, float(trace.heat[0]))
    excess = trace.E - e_eq
    mask = (trace.t >= hi / 10.0) & (trace.t <= hi) & (excess > 0.0)
    if np.count_nonzero(mask) < 2:
        raise InsufficientFitData("decay-rate window contains fewer than 2 usable points")
    slope = np.polyfit(trace.t[mask], np.log(excess[mask]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class ModalTraceWeights:
    """Fixed weights turning the modal amplitudes of a level into its trace.

    A level is y = (y_0, y_1) = (a_m, b_m) per mode, a_m the cosine
    amplitudes of the fluctuation e of T = m + e and b_m the sine amplitudes
    of q_1..q_J (m = 1..J); every array has the modes on its last axis.  By
    orthonormality sum e^2 = sum a^2 and sum q^2 = sum b^2; A_q q has the
    amplitudes s_m b_m; and the tail sum I_j = dx sum_{i>=j} T_i is
    dx m (J+1-j) plus, per cosine mode m, -(dx/s_m) times sine mode m (0 at
    j = 0).  That makes E, F and diss_rhs quadratic forms of y (with the
    cross term <q, I> of F on a_m b_m), and C_T/heat and F's part
    proportional to m linear forms.
    """

    quadratic: np.ndarray   # (3, 3, J): E, diss_rhs, F per y_0^2, y_1^2, y_0 y_1
    increment: np.ndarray   # (2, J): diss_lhs per (y'_i - y_i)(y'_i + y_i)
    linear: np.ndarray      # (2, 2, J): F/m, C_T/heat per y_i
    E_mean: float           # E per m^2
    F_mean: float           # F per m^2
    heat_mean: float        # heat per m
    boundary_mean: float    # C_T/heat per m
    lyapunov_weight: float  # L = weight*E + F


def modal_trace_weights(params: MaterialParams, grid: Grid) -> ModalTraceWeights:
    """The weights of modal_trace_table for one (params, grid) pair."""
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
    quadratic = np.array([
        [np.full(J, w_T), np.full(J, w_q), zero],
        [zero, -(dx / k) - (mu2 / (k * dx)) * s * s, zero],
        [(rc / 2.0) * dx * (dx * dx / (s * s) + mu2), zero, -tau_q * dx * dx / s]])
    linear = np.array([[-rc * dx**3 * ramp / s, tau_q * dx * dx * ramp],
                       [-k * at_T0, (mu2 / dx) * at_q1]])
    ramp_sq = n * (n + 1) * (2 * n + 1) / 6.0       # sum_{j=0..J} (n-j)^2
    return ModalTraceWeights(
        quadratic=quadratic, increment=quadratic[0, :2] / grid.dt,
        linear=linear, E_mean=w_T * n,
        F_mean=(rc / 2.0) * dx * (dx * dx * ramp_sq + mu2 * n),
        heat_mean=dx * n, boundary_mean=-k,
        lyapunov_weight=2.0 * params.l**2 + 2.0 * mu2 + tau_q * k / rc)


def modal_trace_table(w: ModalTraceWeights, m: float, powers: np.ndarray,
                      modes: slice, D: np.ndarray | None = None) -> np.ndarray:
    """New trace table of a block of modes, (L, 5, 5, n) for L levels, or,
    without D, E's table alone, (L, 1, 3, n).

    powers (2, L, 2, n) holds, for the n modes in `modes`, column j of the
    matrix G_l = G^l mapping a base level x = (a, b) to level l at [j, l];
    D (2, 2, n) are the step's increments, G = I + D, and P_l = D G^(l-1)
    (0 for x itself) maps x to the increment into level l, formed as a
    product (G^l - G^(l-1) loses about eps/|D| relative on slow modes).
    With the features phi(x) = (a^2, ab, b^2, a, b), table[l, c, f, i]
    weighs feature f of mode i in column c of level l: E, diss_rhs and F
    less their mean parts (F's term linear in y carries m), C_T/heat less
    its mean part, and diss_lhs from the increment P_l x as the step
    computes it and y + y_prev = (2 G_l - P_l) x.  Summed over the modes,
    phi(x) @ table gives the sums build_trace takes.  E's table alone is
    the first column's first three features; it reads no increments.
    """
    G = powers.transpose(1, 2, 0, 3)    # (L, row i, column j, n)
    energy_only = D is None
    columns, features = (1, 3) if energy_only else (5, 5)
    table = np.empty((G.shape[0], columns, features, G.shape[3]))
    # y_0^2, y_1^2 and y_0 y_1 on the features a^2, ab, b^2
    monomials = np.empty((G.shape[0], 3, 3, G.shape[3]))
    for u, (i, k) in enumerate(((0, 0), (1, 1), (0, 1))):
        np.multiply(G[:, i, 0], G[:, k, 0], out=monomials[:, u, 0])
        np.multiply(G[:, i, 0], G[:, k, 1], out=monomials[:, u, 1])
        monomials[:, u, 1] += G[:, i, 1] * G[:, k, 0]
        np.multiply(G[:, i, 1], G[:, k, 1], out=monomials[:, u, 2])
    q = w.quadratic[:1 if energy_only else 3, :, modes]
    np.multiply(monomials[:, None, 0], q[None, :, 0, None], out=table[:, :3, :3])
    for u in (1, 2):
        table[:, :3, :3] += monomials[:, None, u] * q[None, :, u, None]
    if energy_only:
        return table
    # P_l = D G^(l-1) for l >= 1, laid out as G: column j is D (G^(l-1))_:j
    P = (D[:, 0] * powers[:, :-1, :1] + D[:, 1] * powers[:, :-1, 1:]).transpose(1, 2, 0, 3)
    # diss_lhs = sum_i w_i (P x)_i ((2 G - P) x)_i, 0 at level 0
    weighted = P * w.increment[None, :, None, modes]
    both = (weighted[:, :, :, None] * (2.0 * G[1:] - P)[:, :, None, :]).sum(axis=1)
    table[1:, 4, 0] = both[:, 0, 0]
    np.add(both[:, 0, 1], both[:, 1, 0], out=table[1:, 4, 1])
    table[1:, 4, 2] = both[:, 1, 1]
    # F/m and C_T/heat: sum_i l_i y_i puts sum_i l_i G_ij on x_j
    lin = w.linear[..., modes] * np.array([m, 1.0])[:, None, None]
    np.sum(G[:, None] * lin[None, :, :, None], axis=2, out=table[:, 2:4, 3:])
    table[:, :2, 3:] = 0.0
    table[:, 4, 3:] = table[0, 4] = 0.0
    table[:, 3, :3] = 0.0
    return table


def build_trace(w: ModalTraceWeights, m: float, t: np.ndarray,
                sums: np.ndarray) -> EnergyTrace:
    """EnergyTrace at times t of the levels of a trajectory split as
    T = m + e, from their sums over the modes in the column order of
    modal_trace_table.  Row 0 has no predecessor and zeros for the
    dissipation sides.  diss_lhs comes from the step increments, so it is
    neither drowned by cancellation near equilibrium nor limited by the
    rounding of the levels themselves; the mean, never stepped, drops out
    of it and keeps the heat exactly constant.  From E's sums alone (one
    column) the trace has t, E and heat, and None in the other four.  The
    sums are completed in place: every column but t and heat is a view of them.
    """
    E = sums[:, 0]
    E += w.E_mean * m * m
    heat = np.full_like(E, w.heat_mean * m)
    if sums.shape[1] == 1:
        return EnergyTrace(t=t, E=E, diss_lhs=None, diss_rhs=None,
                           heat=heat, C_T=None, lyapunov=None)
    sums[:, 2] += w.F_mean * m * m
    sums[:, 2] += w.lyapunov_weight * E
    sums[:, 3] += w.boundary_mean * m
    sums[:, 3] *= heat
    sums[0, [1, 4]] = 0.0
    return EnergyTrace(t=t, E=E, diss_lhs=sums[:, 4], diss_rhs=sums[:, 1],
                       heat=heat, C_T=sums[:, 3], lyapunov=sums[:, 2])
