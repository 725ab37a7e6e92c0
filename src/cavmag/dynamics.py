"""Drift and diffusion matrices of the linearized quadrature dynamics.

The quadrature basis is ordered (dX, dY, dx1, dy1, dx2, dy2): cavity
first, then the two magnon modes, position-like before momentum-like
quadrature in each pair.  Vacuum variance is 1/2 per quadrature.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .model import DriveParams, Detunings, Environment, SystemParams

# Margin below zero that the largest drift eigenvalue real part must clear
# for the system to count as stable (internal units).
STABILITY_EPS = 1e-9

# Diffusion entries grow like e^(2r); above this the steady-state solves
# start losing accuracy and a warning is emitted.
R_CONDITIONING_LIMIT = 6.0

# Most negative eigenvalue tolerated by the diffusion PSD check.
_PSD_TOL = 1e-12


def _check_info(routine: str, info: int) -> None:
    """Raise numpy.linalg.LinAlgError for a nonzero LAPACK info code."""
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def _frozen_array(obj, attr, value, shape):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{attr} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{attr} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, attr, arr)


@dataclass(frozen=True)
class DriftMatrix:
    """6x6 real drift matrix in the (dX, dY, dx1, dy1, dx2, dy2) basis."""

    a: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "a", self.a, (6, 6))


def _drift_array(a) -> np.ndarray:
    return a.a if isinstance(a, DriftMatrix) else np.asarray(a, dtype=float)


@dataclass(frozen=True)
class DiffusionMatrix:
    """6x6 real symmetric positive-semidefinite noise matrix, same basis."""

    d: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "d", self.d, (6, 6))
        if not (self.d == self.d.T).all():
            raise ValueError("diffusion matrix must be exactly symmetric")
        eigvals, _, info = lapack.dsyev(self.d, compute_v=0)
        _check_info("dsyev", info)
        lowest = eigvals[0]
        if lowest < -_PSD_TOL:
            raise ValueError(
                f"diffusion matrix must be positive semidefinite "
                f"(smallest eigenvalue {lowest:.3e})"
            )


class UnstableSystemError(ArithmeticError):
    """The drift matrix is not asymptotically stable; no steady state exists."""


@dataclass(frozen=True)
class StabilityReport:
    """Largest real part of a drift spectrum; stability follows from it."""

    max_real_part: float

    @property
    def stable(self) -> bool:
        return self.max_real_part < -STABILITY_EPS

    def require(self) -> None:
        """Raise UnstableSystemError unless the drift is stable."""
        if not self.stable:
            raise UnstableSystemError(
                f"no steady state: largest drift eigenvalue real part is "
                f"{self.max_real_part:.6e}"
            )


def build_drift(detunings: Detunings, params: SystemParams) -> DriftMatrix:
    """Assemble the drift matrix of the quadrature Langevin system.

    Each mode contributes a 2x2 diagonal block [[-kappa, delta],
    [-delta, -kappa]].  The beamsplitter photon-magnon coupling enters as
    g times the 2x2 symplectic unit [[0, 1], [-1, 0]] in the cavity
    row / magnon column blocks, with the sign-reversed pattern below the
    diagonal.  There is no direct magnon-magnon block.
    """
    da, dm1, dm2 = detunings.delta_a, detunings.delta_m1, detunings.delta_m2
    ka, km1, km2 = params.kappa_a, params.kappa_m1, params.kappa_m2
    g1, g2 = params.g1, params.g2
    a = np.array([
        [-ka,   da,   0.0,  g1,   0.0,  g2],
        [-da,  -ka,  -g1,   0.0, -g2,   0.0],
        [0.0,   g1,  -km1,  dm1,  0.0,  0.0],
        [-g1,   0.0, -dm1, -km1,  0.0,  0.0],
        [0.0,   g2,   0.0,  0.0, -km2,  dm2],
        [-g2,   0.0,  0.0,  0.0, -dm2, -km2],
    ])
    return DriftMatrix(a)


def build_diffusion(params: SystemParams, drive: DriveParams,
                    env: Environment) -> DiffusionMatrix:
    """Assemble the symmetrized input-noise matrix.

    The squeezed vacuum entering the cavity has moments N = sinh(r)^2 and
    M = e^(i theta) sinh(r) cosh(r), which give the cavity block
    2 kappa_a [[N + 1/2 + Re M, Im M], [Im M, N + 1/2 - Re M]].  Each
    magnon couples to its own thermal bath, contributing
    2 kappa_mi (n_mi + 1/2) times the 2x2 identity.  The blocks sit on the
    diagonal; the baths are mutually uncorrelated.  Above r of about 354
    the cavity entries overflow a double: OverflowError names r, as it names
    the bath temperature for overflowing magnon entries.  A D that rounding
    leaves indefinite (from r of about 9) raises ArithmeticError.
    """
    if drive.r > R_CONDITIONING_LIMIT:
        warnings.warn(
            f"squeezing parameter r = {drive.r:.3g} makes diffusion entries "
            f"of order e^(2r); steady-state solves may lose accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        n_sq = math.sinh(drive.r) ** 2
        m_sq = cmath.exp(1j * drive.theta) * math.sinh(drive.r) * math.cosh(drive.r)
    except OverflowError:  # reported with the entries that overflow below
        n_sq = m_sq = math.inf
    ka = params.kappa_a
    d = np.zeros((6, 6))
    d[0, 0] = 2.0 * ka * (n_sq + 0.5 + m_sq.real)
    d[1, 1] = 2.0 * ka * (n_sq + 0.5 - m_sq.real)
    d[0, 1] = d[1, 0] = 2.0 * ka * m_sq.imag
    d[2, 2] = d[3, 3] = 2.0 * params.kappa_m1 * (env.n_m1 + 0.5)
    d[4, 4] = d[5, 5] = 2.0 * params.kappa_m2 * (env.n_m2 + 0.5)
    if not all(map(math.isfinite, (d[0, 0], d[1, 1], d[0, 1]))):
        raise OverflowError(
            f"squeezing parameter r = {drive.r:g} overflows the diffusion matrix: "
            f"its entries of order e^(2r) exceed the largest double")
    if not (math.isfinite(d[2, 2]) and math.isfinite(d[4, 4])):
        raise OverflowError(
            f"magnon bath at T = {env.temperature:g} K overflows the diffusion matrix: "
            f"its entries 2 kappa_m (n_m + 1/2) exceed the largest double")
    try:
        return DiffusionMatrix(d)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ArithmeticError(f"squeezing parameter r = {drive.r:g} loses the "
                              f"diffusion matrix to rounding: {exc}") from exc


def stability_check(a: DriftMatrix | np.ndarray) -> StabilityReport:
    """Asymptotic stability of the drift: every eigenvalue real part must
    lie below -STABILITY_EPS.

    The spectrum comes from LAPACK dgeev (eigenvalues only).  A non-square
    or non-finite drift, or a failed eigenvalue iteration, raises
    numpy.linalg.LinAlgError; the check never reports "stable" without a
    converged spectrum.
    """
    arr = _drift_array(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not np.isfinite(arr).all():
        raise np.linalg.LinAlgError("drift matrix must be square and finite")
    wr, _, _, _, info = lapack.dgeev(arr, compute_vl=0, compute_vr=0)
    _check_info("dgeev", info)
    return StabilityReport(max_real_part=float(wr.max()))
