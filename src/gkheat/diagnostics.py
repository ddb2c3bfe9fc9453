"""Energy functionals, decay estimates, and spectral oracles.

The central quantity is the discrete functional energy

    E^n = (rho*c/2) dx sum_{j=0..J} |T_j^n|^2
        + (tau_q/(2k)) dx sum_{j=0..J} |q_j^n|^2,

which the coupled implicit scheme dissipates at the rate

    (E^n - E^{n-1})/dt <= -(1/k) dx sum |q_j^n|^2
                          - (mu2/k) dx sum |(q_{j+1}^n - q_j^n)/dx|^2.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientFitData, NumericalFailure
from .model import MaterialParams


@dataclass(frozen=True)
class EnergyTrace:
    """Per-step diagnostics of one trajectory (arrays of length N+2).

    diss_lhs/diss_rhs are the two sides of the dissipation inequality; row 0
    has no predecessor and carries zeros there.  An energy-only trace
    (scheme.run's energy_only) has t, E and heat, and None in the other
    four columns.
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
