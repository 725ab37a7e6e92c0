"""Physical parameters, unit conventions and thermal occupations.

All mode frequencies, decay rates and couplings are angular frequencies.
The package convention is to measure them in units of 2*pi x 1 MHz, so a
stored value of 5.0 means a mode whose ordinary frequency nu = omega/2pi
is 5 MHz.  In these units the drift and diffusion matrices have entries
of order 1 to 1e2 for microwave-band systems, which keeps the steady-state
solves well conditioned.  Configuration input uses ordinary frequencies in
Hz and is converted once at the boundary (see :mod:`cavmag.config`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Exact SI-2019 values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K

TWO_PI = 2.0 * math.pi

# Angular frequency, in rad/s, of one internal unit (2*pi x 1 MHz).
ANGULAR_UNIT = TWO_PI * 1.0e6


def hz_to_internal(nu_hz: float) -> float:
    """Convert an ordinary frequency nu = omega/2pi in Hz to internal units."""
    return nu_hz / 1.0e6


def internal_to_hz(value: float) -> float:
    """Convert an internal angular frequency back to nu = omega/2pi in Hz."""
    return value * 1.0e6


@dataclass(frozen=True)
class SystemParams:
    """Mode frequencies, decay rates and couplings of the three-mode system.

    ``kappa_*`` are amplitude decay rates: a lone damped mode obeys
    d<a>/dt = -kappa <a> and couples to its input with sqrt(2 kappa).
    All values share one angular-frequency unit (internally 2*pi x MHz).
    Decay rates and magnon frequencies must be positive, the couplings and
    the cavity and drive frequencies nonnegative; ValueError names the field.
    """

    omega_a: float    # cavity frequency
    omega_m1: float   # first magnon frequency
    omega_m2: float   # second magnon frequency
    omega_s: float    # drive (squeezed-vacuum carrier) frequency
    kappa_a: float    # cavity amplitude decay rate
    kappa_m1: float   # first magnon amplitude decay rate
    kappa_m2: float   # second magnon amplitude decay rate
    g1: float         # photon-magnon coupling, mode 1
    g2: float         # photon-magnon coupling, mode 2

    def __post_init__(self):
        for name in ("kappa_a", "kappa_m1", "kappa_m2", "omega_m1", "omega_m2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("g1", "g2", "omega_a", "omega_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class Detunings:
    """Mode detunings from the drive: delta = omega_mode - omega_drive."""

    delta_a: float
    delta_m1: float
    delta_m2: float


@dataclass(frozen=True)
class DriveParams:
    """Squeezing parameter r >= 0 and phase theta of the input squeezed vacuum.

    theta is stored reduced to [0, 2*pi).
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError(f"squeezing parameter r must be nonnegative, got {self.r}")
        reduced = self.theta % TWO_PI
        if reduced == TWO_PI:  # tiny negative inputs round up to the period
            reduced = 0.0
        object.__setattr__(self, "theta", reduced)


@dataclass(frozen=True)
class FixedPoint:
    """One operating point: system parameters, drive and bath temperature."""

    params: SystemParams
    drive: DriveParams
    temperature: float


@dataclass(frozen=True)
class Environment:
    """Bath temperature and the derived mean thermal magnon occupations."""

    temperature: float  # K
    n_m1: float
    n_m2: float

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be nonnegative, got {self.temperature}")
        if self.n_m1 < 0.0 or self.n_m2 < 0.0:
            raise ValueError("thermal occupations must be nonnegative")
        if self.temperature == 0.0 and (self.n_m1 != 0.0 or self.n_m2 != 0.0):
            raise ValueError("occupations must vanish exactly at zero temperature")

    @classmethod
    def from_temperature(cls, temperature: float, params: SystemParams) -> "Environment":
        """Derive the magnon occupations for a bath at the given temperature."""
        return cls(temperature, *_occupations(params, temperature))


def _occupations(params: SystemParams, temperature: float) -> tuple[float, float]:
    """Mean thermal occupations (n_m1, n_m2) of the two magnons in a bath at
    ``temperature``; thermal_occupation's ValueError for a negative one."""
    return (thermal_occupation(params.omega_m1 * ANGULAR_UNIT, temperature),
            thermal_occupation(params.omega_m2 * ANGULAR_UNIT, temperature))


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / k_B T) - 1).

    Parameters
    ----------
    omega : float
        Angular frequency in rad/s.  Must be positive; the occupation is
        undefined at zero frequency.
    temperature : float
        Bath temperature in K.

    Returns exactly 0.0 where k_B*T is zero, at T = 0 or where it
    underflows (T below about 1.8e-301 K).  The exponent is evaluated
    through expm1, so the result is accurate for hbar*omega << k_B*T and
    underflows cleanly to 0.0 (never NaN or overflow) for
    hbar*omega >> k_B*T.  An occupation beyond the largest double, where
    hbar*omega / k_B*T is subnormal or underflows to zero, is inf.
    """
    if omega <= 0.0:
        raise ValueError(f"occupation undefined for omega <= 0, got {omega}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if K_B * temperature == 0.0:  # T = 0, or k_B T underflows
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x == 0.0:  # 1/expm1(x) for a subnormal x is inf already
        return math.inf
    if x > 700.0:  # exp(x) would overflow; the occupation is below 1e-304
        return 0.0
    return 1.0 / math.expm1(x)


def detunings_from(params: SystemParams) -> Detunings:
    """Component-wise detunings of the three modes from the drive frequency."""
    return Detunings(
        delta_a=params.omega_a - params.omega_s,
        delta_m1=params.omega_m1 - params.omega_s,
        delta_m2=params.omega_m2 - params.omega_s,
    )

