"""Drift and diffusion matrices of the linearized quadrature dynamics.

The quadrature basis is ordered (dX, dY, dx1, dy1, dx2, dy2): cavity
first, then the two magnon modes, position-like before momentum-like
quadrature in each pair.  Vacuum variance is 1/2 per quadrature.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .model import DriveParams, Detunings, Environment, SystemParams, _occupations

# A drift is stable when eps max|A| / |alpha| (alpha < 0 its largest eigenvalue
# real part), the relative error a solve can leave in its slowest mode, is below this.
RESOLUTION_RTOL = 1e-3
_EPS = float(np.finfo(float).eps)

# Diffusion entries grow like e^(2r); above this the steady-state solves
# start losing accuracy and a warning is emitted.
R_CONDITIONING_LIMIT = 6.0

# Most negative eigenvalue tolerated by the diffusion PSD check.
_PSD_TOL = 1e-12

# Relative asymmetry tolerated in a raw diffusion array or a covariance matrix.
_SYMMETRY_RTOL = 1e-12


def _check_info(routine: str, info: int) -> None:
    """Raise numpy.linalg.LinAlgError for a nonzero LAPACK info code."""
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def _hold(matrix, arr: np.ndarray):
    """``matrix`` holding ``arr`` read-only as its one field, unchecked:
    a frozen matrix type (for a new instance), or an instance whose
    constructor has checked ``arr``.  The pipeline stores the arrays it
    builds valid through this (build_drift, build_diffusion,
    steadystate._lyapunov_backend)."""
    if isinstance(matrix, type):
        matrix = object.__new__(matrix)
    arr.setflags(write=False)
    object.__setattr__(matrix, next(iter(matrix.__dataclass_fields__)), arr)
    return matrix


@dataclass(frozen=True, eq=False)
class DriftMatrix:
    """6x6 real drift matrix in the (dX, dY, dx1, dy1, dx2, dy2) basis,
    checked by _checked_drift_array as every routine checks a drift.

    Its one spectral decomposition is the real Schur factor ``schur``,
    computed the first time it is asked for and kept: stability_check
    reads (and keeps) the report of its eigenvalues, and the steady-state
    solve reads the factor.
    """

    a: np.ndarray

    def __post_init__(self):
        _hold(self, _checked_drift_array(self.a).copy())

    @functools.cached_property
    def schur(self) -> tuple:
        """The real Schur form A = U T U^T as read-only (T, U, wr), wr the
        real parts of the eigenvalues (_schur_factor)."""
        return _schur_factor(self.a)

    @functools.cached_property
    def _stability(self) -> StabilityReport:
        """The StabilityReport of the largest real part in ``schur``."""
        floor = _EPS * float(np.abs(self.a).max()) / RESOLUTION_RTOL
        return StabilityReport(float(self.schur[2].max()), floor, self.a)


def _checked_drift_array(a) -> np.ndarray:
    """The drift as an array; numpy.linalg.LinAlgError unless it is 6x6
    and finite.  A DriftMatrix was checked when it was made and is not
    checked again."""
    if isinstance(a, DriftMatrix):
        return a.a
    arr = np.asarray(a, dtype=float)
    if arr.shape != (6, 6) or not np.isfinite(arr).all():
        raise np.linalg.LinAlgError("drift matrix must be 6x6 and finite")
    return arr


def _as_drift(a) -> DriftMatrix:
    """``a`` as a DriftMatrix, checked and copied only if it is not one."""
    return a if isinstance(a, DriftMatrix) else DriftMatrix(a)


def _no_sort(wr, wi):
    """dgees takes an eigenvalue-select callback; unsorted, it is never called."""
    return None


def _schur_factor(a: np.ndarray) -> tuple:
    """The real Schur form A = U T U^T (LAPACK dgees, unsorted) as
    read-only (T, U, wr), wr the real parts of A's eigenvalues; a LAPACK
    failure raises numpy.linalg.LinAlgError."""
    t, _, wr, _, u, _, info = lapack.dgees(_no_sort, a)
    _check_info("dgees", info)
    for arr in (t, u, wr):
        arr.setflags(write=False)
    return t, u, wr


@dataclass(frozen=True, eq=False)
class DiffusionMatrix:
    """6x6 real symmetric positive-semidefinite noise matrix, same basis,
    checked by _diffusion_array as every routine checks a diffusion, then
    for exact symmetry and by the PSD check."""

    d: np.ndarray

    def __post_init__(self):
        arr = _diffusion_array(self.d).copy()
        if not (arr == arr.T).all():
            raise ValueError("diffusion matrix must be exactly symmetric")
        eigvals, _, info = lapack.dsyev(arr, compute_v=0)
        _check_info("dsyev", info)
        _require_psd(eigvals[0])
        _hold(self, arr)


def _diffusion_array(d) -> np.ndarray:
    """The diffusion as an array; ValueError unless it is 6x6, finite, and
    symmetric to _SYMMETRY_RTOL relative to max|D|.  A DiffusionMatrix was
    checked when it was made and is not checked again."""
    if isinstance(d, DiffusionMatrix):
        return d.d
    arr = np.asarray(d, dtype=float)
    if arr.shape != (6, 6):
        raise ValueError(f"diffusion matrix must have shape (6, 6), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("diffusion matrix must be finite")
    if not (arr == arr.T).all():
        asymmetry = float(np.abs(arr - arr.T).max())
        if asymmetry > _SYMMETRY_RTOL * float(np.abs(arr).max()):
            raise ValueError(f"diffusion matrix asymmetric: max |d - d.T| = {asymmetry:.3e}")
    return arr


def _require_psd(lowest: float) -> None:
    """ValueError unless a smallest eigenvalue passes the PSD check."""
    if lowest < -_PSD_TOL:
        raise ValueError(
            f"diffusion matrix must be positive semidefinite "
            f"(smallest eigenvalue {lowest:.3e})"
        )


class UnstableSystemError(ArithmeticError):
    """The drift fails the stability rule and is not damped by construction."""


@dataclass(frozen=True)
class StabilityReport:
    """Largest real part alpha of a drift spectrum and the slowest decay rate
    resolved at its scale, floor = eps max|A| / RESOLUTION_RTOL; ``a`` is
    the drift, read only by a refusal."""

    max_real_part: float
    floor: float
    a: np.ndarray = field(repr=False, compare=False)

    @property
    def stable(self) -> bool:
        return self.max_real_part < -self.floor

    def require(self) -> None:
        """Raise unless stable: a plain ArithmeticError if A + A^T is exactly
        diagonal and negative, as for every build_drift output, so that a
        steady state exists (Re lambda <= max of the diagonal of A), else
        UnstableSystemError."""
        if self.stable:
            return
        where = (f"largest drift eigenvalue real part {self.max_real_part:.6e} "
                 f"is not below -{self.floor:.6e} = -eps max|A| / {RESOLUTION_RTOL:g}")
        a = self.a
        if np.array_equal(np.triu(a, 1), -np.tril(a, -1).T) and (a.diagonal() < 0.0).all():
            raise ArithmeticError(
                f"unresolved steady state: a steady state exists (A + A^T is diagonal "
                f"and negative), but its slowest decay rate is below what double "
                f"precision resolves: {where}")
        raise UnstableSystemError(f"no steady state: {where}")


def build_drift(detunings: Detunings, params: SystemParams) -> DriftMatrix:
    """Assemble the drift matrix of the quadrature Langevin system.

    Each mode contributes a 2x2 diagonal block [[-kappa, delta],
    [-delta, -kappa]].  The beamsplitter photon-magnon coupling enters as
    g times the 2x2 symplectic unit [[0, 1], [-1, 0]] in the cavity
    row / magnon column blocks, with the sign-reversed pattern below the
    diagonal.  There is no direct magnon-magnon block.

    SystemParams holds finite values only, so the drift is finite where
    the detunings are: a non-finite detuning raises
    numpy.linalg.LinAlgError, and the built array is stored as it is
    (_hold), without the copy and checks of the DriftMatrix constructor.
    """
    da, dm1, dm2 = detunings.delta_a, detunings.delta_m1, detunings.delta_m2
    if not (math.isfinite(da) and math.isfinite(dm1) and math.isfinite(dm2)):
        raise np.linalg.LinAlgError("drift matrix must be 6x6 and finite")
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
    return _hold(DriftMatrix, a)


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

    This is the one-row call of the builder a sweep line uses
    (_diffusion_stack), which checks the matrix and raises the r warning;
    the DiffusionMatrix returned holds that array without a second check.
    """
    row = (params, drive, env.n_m1, env.n_m2, env.temperature)
    return _hold(DiffusionMatrix, _diffusion_stack([row])[0])


def _cavity_block(kappa_a: float, r: float, theta: float) -> tuple:
    """The cavity block entries (d00, d11, d01) of D, then the smallest
    eigenvalue of the 2x2 block and the info code of the LAPACK dsyev call
    that gives it; OverflowError naming r if an entry overflows a double."""
    try:
        n_sq = math.sinh(r) ** 2
        m_sq = cmath.exp(1j * theta) * math.sinh(r) * math.cosh(r)
    except OverflowError:  # reported with the entries that overflow
        n_sq = m_sq = math.inf
    d00 = 2.0 * kappa_a * (n_sq + 0.5 + m_sq.real)
    d11 = 2.0 * kappa_a * (n_sq + 0.5 - m_sq.real)
    d01 = 2.0 * kappa_a * m_sq.imag
    if not all(map(math.isfinite, (d00, d11, d01))):
        raise OverflowError(
            f"squeezing parameter r = {r:g} overflows the diffusion matrix: "
            f"its entries of order e^(2r) exceed the largest double")
    eigvals, _, info = lapack.dsyev(np.array([[d00, d01], [d01, d11]]), compute_v=0)
    return d00, d11, d01, eigvals[0], info


def _diffusion_stack(rows) -> np.ndarray:
    """The (m, 6, 6) stack of D from m rows (params, drive, n_m1, n_m2,
    temperature), one per point, the magnon baths given by their
    occupations.  Each row is checked, as it is reached, in
    build_diffusion's order: the r warning, overflow of the cavity
    entries, then of the magnon entries, the dsyev info code, then the PSD
    check.  The warning is raised here for every caller, so each
    text shows once per registry, whichever path reaches it.

    The rows that share (kappa_a, r, theta) compute and eigen-decompose
    their cavity block once.  D is block-diagonal: the cavity block, then
    the magnon entries 2 kappa_mi (n_mi + 1/2) > 0 on the diagonal.  Its
    smallest eigenvalue is the smaller of the block's and those entries,
    so D fails the PSD check exactly when the block does.
    """
    cavity_blocks, entries = {}, []
    for params, drive, n_m1, n_m2, temperature in rows:
        if drive.r > R_CONDITIONING_LIMIT:
            warnings.warn(
                f"squeezing parameter r = {drive.r:.3g} makes diffusion entries "
                f"of order e^(2r); steady-state solves may lose accuracy",
                RuntimeWarning,
            )
        key = (params.kappa_a, drive.r, drive.theta)
        if key not in cavity_blocks:
            cavity_blocks[key] = _cavity_block(*key)
        d00, d11, d01, lowest, info = cavity_blocks[key]
        d22 = 2.0 * params.kappa_m1 * (n_m1 + 0.5)
        d44 = 2.0 * params.kappa_m2 * (n_m2 + 0.5)
        if not (math.isfinite(d22) and math.isfinite(d44)):
            raise OverflowError(
                f"magnon bath at T = {temperature:g} K overflows the diffusion matrix: "
                f"its entries 2 kappa_m (n_m + 1/2) exceed the largest double")
        _check_info("dsyev", info)
        try:
            _require_psd(lowest)
        except ValueError as exc:
            raise ArithmeticError(f"squeezing parameter r = {drive.r:g} loses the "
                                  f"diffusion matrix to rounding: {exc}") from exc
        entries.append((d00, d11, d01, d22, d44))
    d00, d11, d01, d22, d44 = np.array(entries, dtype=float).T
    d = np.zeros((len(d00), 6, 6))
    d[:, 0, 0], d[:, 1, 1], d[:, 0, 1], d[:, 1, 0] = d00, d11, d01, d01
    d[:, 2, 2] = d[:, 3, 3] = d22
    d[:, 4, 4] = d[:, 5, 5] = d44
    return d


def _diffusions(points) -> np.ndarray:
    """The (m, 6, 6) stack of D at m FixedPoints, each as build_diffusion
    makes it for the bath at the point's own temperature."""
    # A generator: each point's occupations are computed as its row is
    # reached, so the rows raise and warn in the order of the points.
    return _diffusion_stack((p.params, p.drive, *_occupations(p.params, p.temperature),
                             p.temperature) for p in points)


def stability_check(a: DriftMatrix | np.ndarray) -> StabilityReport:
    """Stability of the drift by one unit-free rule: every eigenvalue real
    part must lie below -eps max|A| / RESOLUTION_RTOL (StabilityReport).

    The spectrum is the eigenvalues of the drift's real Schur form
    (DriftMatrix.schur, LAPACK dgees), computed once per DriftMatrix; the
    steady-state solve reuses that factor.  A drift that is not 6x6 or has
    a non-finite entry raises numpy.linalg.LinAlgError before dgees runs,
    as does a failed Schur iteration; the check never reports "stable"
    without a converged spectrum.
    """
    return _as_drift(a)._stability
