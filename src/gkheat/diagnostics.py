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

from .errors import NumericalFailure
from .model import MaterialParams


@dataclass(frozen=True)
class EnergyTrace:
    """Per-step diagnostics of one trajectory (arrays of length N+2).

    diss_lhs/diss_rhs are the two sides of the dissipation inequality; row 0
    has no predecessor and carries zeros there.
    """

    t: np.ndarray         # time [s]
    E: np.ndarray         # discrete functional energy
    diss_lhs: np.ndarray  # (E^n - E^{n-1})/dt
    diss_rhs: np.ndarray  # dissipation bound
    heat: np.ndarray      # total heat dx*sum(T_j)
    C_T: np.ndarray       # boundary-times-mean term
    lyapunov: np.ndarray  # weighted Lyapunov functional

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

    This is the independent oracle that the scheme's generator rate
    (generator_decay_rate) and sweep's step rates (step_decay_rate) are
    held to: energy decays at 2|Re(lambda_slow)|."""
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


def eigenvalues_2x2(A: np.ndarray) -> tuple[complex, complex]:
    """(big, small): the eigenvalues of the real 2x2 matrix A, the one of
    larger modulus first.

    They are the roots of z^2 - tr z + det = 0.  big = tr/2 + sign(tr)
    sqrt(tr^2/4 - det) adds two terms of one sign and small = det/big
    divides, so neither root cancels where tr^2/4 - det does not.  Only
    the off-diagonal product b c enters, taken as (sqrt|b| sqrt|c|)^2, and
    A is first scaled by a power of 2 to max(|a|, |d|, sqrt|b c|) < 1, so
    that tr^2 and det over- or underflow only where the eigenvalues do.
    """
    (a, b), (c, d) = ((float(x) for x in row) for row in A)
    p = math.sqrt(abs(b)) * math.sqrt(abs(c))
    top = max(abs(a), abs(d), p)
    if top == 0.0:
        return 0j, 0j
    e = math.frexp(top)[1]
    a, d, p = math.ldexp(a, -e), math.ldexp(d, -e), math.ldexp(p, -e)
    half = 0.5 * (a + d)
    det = a * d - math.copysign(p * p, b) * math.copysign(1.0, c)
    big = half + math.copysign(1.0, half) * cmath.sqrt(half * half - det)
    return tuple(complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
                 for z in (big, det / big if big else 0j))


def generator_decay_rate(G: np.ndarray, D: np.ndarray, dt: float) -> float:
    """2|Re lambda|: the energy decay rate of a mode's slow eigenvalue
    lambda of the semi-discrete generator A, read from its 2x2 coupled
    step G = I + D of length dt (one mode of scheme.assemble's G and D).
    The step is backward Euler, G = (I - dt A)^{-1}, so that lambda =
    mu/((1 + mu) dt), with mu D's small root, G's eigenvalue of largest
    modulus less 1.  Where |mu| < 1/2, 1 + mu cannot cancel, and lambda
    keeps mu's digits however near 1 the step brings the mode; elsewhere a
    step nearly annihilates the mode, and lambda = (1 - 1/g)/dt, g = 1 + mu."""
    mu = eigenvalues_2x2(D)[1]
    if abs(mu) < 0.5:
        slow = mu / ((1.0 + mu) * dt)
    else:
        slow = (1.0 - 1.0 / eigenvalues_2x2(G)[0]) / dt
    return 2.0 * abs(slow.real)


def step_decay_rate(G: np.ndarray, D: np.ndarray, dt: float) -> float:
    """-2 ln|g|/dt: a mode's energy decay rate under its step, split as in
    generator_decay_rate: where |mu| < 1/2, ln|g| =
    log1p(2 Re mu + |mu|^2)/2 keeps mu's digits; elsewhere it is read from g."""
    mu = eigenvalues_2x2(D)[1]
    if abs(mu) < 0.5:
        return -math.log1p(2.0 * mu.real + abs(mu) ** 2) / dt
    return -2.0 * math.log(abs(eigenvalues_2x2(G)[0])) / dt


def energy_norm_sq(G: np.ndarray, w_T: float, w_q: float) -> float:
    """max_m ||G_m||_W^2, the most a step of the 2x2 matrices G (2, 2, J)
    multiplies a mode's energy w_T a^2 + w_q b^2 by: at most 1 where E
    rises from no state.  ||G_m||_W is the largest singular value of H =
    W^(1/2) G_m W^(-1/2), W = diag(w_T, w_q), in closed form as
    (hypot(h_aa + h_bb, h_ba - h_ab) + hypot(h_aa - h_bb, h_ba + h_ab))/2,
    which cancels nowhere (the equal form with sqrt(|H|_F^2 - 2|det H|)
    keeps half its digits where the two singular values meet).  At w_q = 0
    (tau_q = 0) it is |G_aa| where G_ab = 0, as there, and +inf elsewhere."""
    (aa, ab), (ba, bb) = G
    if w_q == 0.0:
        return float(np.max(np.where(ab == 0.0, np.abs(aa), np.inf)) ** 2)
    r = math.sqrt(w_T) / math.sqrt(w_q)
    ab, ba = r * ab, ba / r
    return float(np.max(np.hypot(aa + bb, ba - ab) + np.hypot(aa - bb, ba + ab)) ** 2 / 4.0)
