"""Material parameters, run configuration, and the Onsager coefficient mapping.

The conductor model is

    rho*c*T_t + q_x = 0                         (energy balance)
    tau_q*q_t + q - mu2*q_xx + k*T_x = 0        (Guyer-Krumhansl flux law)

on (0, l) with insulated ends q(0, t) = q(l, t) = 0.  Setting
tau_q = mu2 = 0 recovers Fourier conduction; both zeros are admitted and no
code path divides by tau_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NonPositiveCoefficient


class StepperKind(str, Enum):
    """Time integrators offered by the scheme module."""

    COUPLED_IMPLICIT = "coupled_implicit"
    VECTORIAL_AS_PRINTED = "vectorial_as_printed"


def _check_sign(name: str, value: float, strict: bool) -> None:
    ok = math.isfinite(value) and (value > 0.0 if strict else value >= 0.0)
    if not ok:
        raise NonPositiveCoefficient(name, value)


@dataclass(frozen=True)
class MaterialParams:
    """Physical coefficients of the conductor and the domain length."""

    rho: float    # mass density [kg/m^3]
    c: float      # specific heat [J/(kg K)]
    tau_q: float  # flux relaxation time [s], 0 allowed (Fourier limit)
    mu2: float    # dissipation length squared [m^2], 0 allowed
    k: float      # thermal conductivity [W/(m K)]
    l: float      # domain length [m]

    def __post_init__(self):
        _check_sign("rho", self.rho, strict=True)
        _check_sign("c", self.c, strict=True)
        _check_sign("tau_q", self.tau_q, strict=False)
        _check_sign("mu2", self.mu2, strict=False)
        _check_sign("k", self.k, strict=True)
        _check_sign("l", self.l, strict=True)

    @property
    def rho_c(self) -> float:
        """Volumetric heat capacity rho*c [J/(m^3 K)]."""
        return self.rho * self.c

    @property
    def is_fourier(self) -> bool:
        return self.tau_q == 0.0 and self.mu2 == 0.0


@dataclass(frozen=True)
class OnsagerCoefficients:
    """Entropy-production coefficients behind the flux law.

    The flux law coefficients follow as

        tau_q = rho*m / l2,   k = 1 / (l2 * T_ref**2),   mu2 = l1 / l2,

    valid for constant (temperature-independent) l1, l2, m.  T_ref is an
    absolute temperature [K]; it is never mixed with the Celsius fields of
    SimulationConfig.
    """

    l1: float     # cross-coupling coefficient
    l2: float     # resistivity coefficient
    m: float      # inertial coefficient
    T_ref: float  # reference absolute temperature [K]

    def __post_init__(self):
        _check_sign("l1", self.l1, strict=False)
        _check_sign("l2", self.l2, strict=True)
        _check_sign("m", self.m, strict=False)
        _check_sign("T_ref", self.T_ref, strict=True)


def onsager_to_gk(o: OnsagerCoefficients, rho: float) -> tuple[float, float, float]:
    """Map Onsager coefficients to flux-law coefficients (tau_q, k, mu2)."""
    _check_sign("rho", rho, strict=True)
    tau_q = rho * o.m / o.l2
    k = 1.0 / (o.l2 * o.T_ref**2)
    mu2 = o.l1 / o.l2
    return tau_q, k, mu2


def gk_to_onsager(tau_q: float, k: float, mu2: float, rho: float,
                  T_ref: float) -> OnsagerCoefficients:
    """Algebraic inverse of onsager_to_gk."""
    _check_sign("k", k, strict=True)
    _check_sign("T_ref", T_ref, strict=True)
    _check_sign("rho", rho, strict=True)
    l2 = 1.0 / (k * T_ref**2)
    l1 = mu2 * l2
    m = tau_q * l2 / rho
    return OnsagerCoefficients(l1=l1, l2=l2, m=m, T_ref=T_ref)


@dataclass(frozen=True)
class SimulationConfig:
    """Mesh widths, horizon, and initial-profile amplitudes for one run."""

    dx: float          # spatial step [m]
    dt: float          # time step [s]
    t_final: float     # end time [s]
    T_b: float         # base temperature of the initial profile [degC]
    T_f: float         # fluctuation amplitude of the initial profile [degC]
    stepper_kind: StepperKind = StepperKind.COUPLED_IMPLICIT

    def __post_init__(self):
        _check_sign("dx", self.dx, strict=True)
        _check_sign("dt", self.dt, strict=True)
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise NonPositiveCoefficient("t_final", self.t_final)
