"""Steady-state and transient covariance of the quadrature dynamics.

The covariance types and their symplectic spectrum.  The stationary V
solves A V + V A^T = -D by either of two cross-validated backends under
one contract (_lyapunov_backend), which checks every solved V (a
fixed-drift line's screen, _one_drift_solves, restates its rule for a
stack): a Bartels-Stewart solve calling LAPACK dtrsyl directly on the
drift's real Schur factor, and a dense 36x36 vectorized solve.  The factor
(dgees) is the one the stability test computed and the DriftMatrix keeps
(dynamics.DriftMatrix.schur), so a drift is factored once for both.
propagate_covariance steps dV/dt = A V + V A^T + D exactly with the matrix
exponential, applying the n steps in O(log n) products by doubling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lapack

from .dynamics import (_SYMMETRY_RTOL, _as_drift, _check_info, _checked_drift_array,
                       _diffusion_array, _hold, stability_check)

# Max-norm residual of A V + V A^T + D, relative to the max-norm of D.
RESIDUAL_RTOL = 1e-10

# Relative imaginary residue tolerated in a symplectic spectrum.
_EIG_IMAG_RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode;
    built once per mode count and returned read-only."""
    form = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    form[x, x + 1], form[x + 1, x] = 1.0, -1.0
    form.setflags(write=False)
    return form


def symplectic_eigenvalues(v) -> np.ndarray:
    """The n distinct moduli of the eigenvalues of i Omega V, ascending.

    ``v`` is one 2n x 2n matrix or a stack (..., 2n, 2n), whose spectra
    come from one numpy eigvals (LAPACK zgeev) call; the result has shape
    (..., n).  A physical covariance gives +/- pairs of real eigenvalues of
    modulus >= 1/2.  A shape that is not (..., 2n, 2n) raises ValueError;
    non-finite input and a zgeev failure raise numpy.linalg.LinAlgError; an
    imaginary residue above 1e-9 (relative) raises ArithmeticError.  Each
    check applies per matrix, and for a stack the message starts with the
    index of the first matrix that fails it.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] % 2 or not arr.size:
        raise ValueError(f"symplectic spectrum needs a 2n x 2n matrix, got {arr.shape}")
    finite = np.isfinite(arr).all(axis=(-2, -1))
    if not finite.all():
        raise np.linalg.LinAlgError(_first_failing(finite) + "eigenvalue input must be finite")
    try:
        eigvals = np.linalg.eigvals(1j * symplectic_form(arr.shape[-1] // 2) @ arr)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"LAPACK zgeev failed: {exc}") from exc
    moduli = np.abs(eigvals)
    imag_residue = np.abs(eigvals.imag).max(axis=-1)
    physical = imag_residue <= _EIG_IMAG_RTOL * np.maximum(moduli.max(axis=-1), 1.0)
    if not physical.all():
        raise ArithmeticError(
            f"{_first_failing(physical)}symplectic spectrum has imaginary residue "
            f"{float(imag_residue[~physical][0]):.3e}; the matrix is not a physical covariance"
        )
    return np.sort(moduli, axis=-1)[..., ::2]


def _first_failing(ok: np.ndarray) -> str:
    """Message prefix naming the first matrix of a stack whose flag in ``ok``
    is False; empty for a single matrix."""
    if not ok.ndim:
        return ""
    index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    return f"matrix {index[0] if ok.ndim == 1 else index}: "


@dataclass(frozen=True, eq=False)
class _Covariance:
    """_DIM x _DIM covariance, vacuum variance 1/2 per quadrature.

    Construction rejects a wrong shape, non-finite entries, asymmetry
    beyond 1e-12 relative tolerance and a nonpositive diagonal, and
    stores the exactly symmetrized array read-only: an exactly symmetric
    input as it is, any other as (v + v^T)/2, each term halved first so
    entries near the largest double stay finite.
    """

    v: np.ndarray

    _DIM = 0
    _NAME = "covariance matrix"

    def __post_init__(self):
        arr = np.array(self.v, dtype=float)
        n, name = self._DIM, self._NAME
        if arr.shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        if not (arr == arr.T).all():
            scale = max(float(np.abs(arr).max()), 1.0)
            asymmetry = float(np.abs(arr - arr.T).max())
            if asymmetry > _SYMMETRY_RTOL * scale:
                raise ValueError(
                    f"{name} asymmetric: max |v - v.T| = {asymmetry:.3e}"
                )
            # Halved before the sum, which cannot overflow.
            arr = 0.5 * arr + 0.5 * arr.T
        self._require_positive_diagonal(arr)
        _hold(self, arr)

    @classmethod
    def _require_positive_diagonal(cls, arr: np.ndarray) -> None:
        """ValueError unless the finite ``arr`` has a positive diagonal."""
        if min(arr.diagonal().tolist()) <= 0.0:
            raise ValueError(f"{cls._NAME} diagonal entries must be positive")


@dataclass(frozen=True, eq=False)
class CovarianceMatrix(_Covariance):
    """6x6 symmetrized quadrature covariance, basis (dX, dY, dx1, dy1, dx2, dy2)."""

    _DIM = 6


@dataclass(frozen=True, eq=False)
class TwoModeCM(_Covariance):
    """4x4 symmetrized covariance of the magnon pair, basis (dx1, dy1, dx2, dy2)."""

    _DIM = 4
    _NAME = "two-mode covariance"


def _lyapunov_backend(solve):
    """The contract of every steady-state backend around its raw solve of
    A V + V A^T = -D, checked in this order before any LAPACK call: an A
    that is not 6x6 or has a non-finite entry raises
    numpy.linalg.LinAlgError, a D that is not 6x6, has a non-finite entry
    or is asymmetric beyond 1e-12 max|D| ValueError, and an A that
    stability_check refuses the error of StabilityReport.require.  The
    symmetrized V must then meet max|A V + V A^T + D| <= 1e-10 max|D| (a
    NaN residual fails) or ArithmeticError is raised, and have a positive
    diagonal or ValueError is; such a V is finite and exactly symmetric, so
    it is stored as it is (_hold).  A DriftMatrix or DiffusionMatrix already
    meets its part of the contract and is not checked again.  The raw
    solve gets A as a DriftMatrix, whose Schur factor the stability test
    has just computed.
    """
    @functools.wraps(solve)
    def backend(a, d) -> CovarianceMatrix:
        drift = _as_drift(a)
        d_arr = _diffusion_array(d)
        stability_check(drift).require()
        v = solve(drift, d_arr)
        v, a = 0.5 * (v + v.T), drift.a
        residual = float(np.abs(a @ v + v @ a.T + d_arr).max())
        bound = RESIDUAL_RTOL * float(np.abs(d_arr).max())
        if not residual <= bound:
            raise ArithmeticError(
                f"{solve.__name__}: residual {residual:.3e} exceeds bound {bound:.3e}; "
                f"the system is near marginal stability or badly conditioned"
            )
        CovarianceMatrix._require_positive_diagonal(v)
        return _hold(CovarianceMatrix, v)

    return backend


def _schur_solve(factor, d: np.ndarray) -> np.ndarray:
    """The unsymmetrized V of A V + V A^T = -D from A's Schur factor
    (T, U, wr) of DriftMatrix.schur:
    T Y + Y T^T = U^T (-D) U (dtrsyl), then V = U Y U^T.

    A LAPACK failure raises numpy.linalg.LinAlgError.  dtrsyl solves
    T Y + Y T^T = scale C, with scale < 1 only where Y would overflow
    (from max|D| of about 3e292); such a solve raises ArithmeticError
    naming the scale rather than return a rescaled Y.
    """
    t, u, _ = factor
    y, scale, info = lapack.dtrsyl(t, t, u.T.dot((-d).dot(u)), tranb="T")
    _check_info("dtrsyl", info)
    if scale != 1.0:
        raise ArithmeticError(
            f"solve_lyapunov: dtrsyl scaled the solution by {scale:.3e} to avoid "
            f"overflow; the diffusion is too large for a double-precision solve"
        )
    return u.dot(y).dot(u.T)


@_lyapunov_backend
def solve_lyapunov(a, d):
    """Steady-state covariance via the Bartels-Stewart algorithm.

    The drift's kept Schur factor (dgees), then _schur_solve: the sequence
    of scipy.linalg.solve_continuous_lyapunov, which _one_drift_solves
    repeats with the same factor for a line's points, to the same bits.
    """
    return _schur_solve(a.schur, d)


def _one_drift_solves(drift, d) -> np.ndarray:
    """Steady-state covariances of the points of a line that share the
    DriftMatrix ``drift``, with diffusions ``d``.

    Each V comes from the drift's one Schur factor by the solve step of
    solve_lyapunov, symmetrized: the bits solve_lyapunov gives that
    point.  The line is screened at once for the rule of _lyapunov_backend
    (the residual bound and a positive diagonal); if any point fails it,
    the line raises ArithmeticError, and run_sweep evaluates it again
    point by point, where solve_lyapunov names the point and its error.
    """
    factor, a = drift.schur, drift.a
    v = np.array([_schur_solve(factor, dk) for dk in d])
    v = 0.5 * (v + v.transpose(0, 2, 1))
    residual = np.abs(a @ v + v @ a.T + d).max(axis=(1, 2))
    if not ((residual <= RESIDUAL_RTOL * np.abs(d).max(axis=(1, 2))).all()
            and (np.diagonal(v, axis1=1, axis2=2) > 0.0).all()):
        raise ArithmeticError("a solved covariance of the line fails solve_lyapunov's check")
    return v


@_lyapunov_backend
def solve_lyapunov_kron(a, d):
    """Steady-state covariance via dense vectorization.

    Writes the equation as (I (x) A + A (x) I) vec(V) = -vec(D) and solves
    the 36x36 linear system directly.  Independent of solve_lyapunov; the
    two must agree to 1e-9 on any stable input, which the test suite
    enforces.  A singular system raises numpy.linalg.LinAlgError.
    """
    a, eye = a.a, np.eye(6)
    # I (x) A + A (x) I by broadcasting: each entry is the same product
    # with an exact 0.0 or 1.0 that np.kron forms, so the sum is bit-identical.
    system = (eye[:, None, :, None] * a[None, :, None, :]
              + a[:, None, :, None] * eye[None, :, None, :]).reshape(36, 36)
    vec = np.linalg.solve(system, -d.flatten(order="F"))
    return vec.reshape((6, 6), order="F")


def propagate_covariance(a, d, v0, t_final: float, dt: float) -> CovarianceMatrix:
    """Propagate dV/dt = A V + V A^T + D from v0 to t_final, exactly.

    The interval is cut into n = ceil(t_final / dt) steps of h = t_final / n;
    each applies V <- Phi V Phi^T + Q with Phi = e^{A h} and Q = int_0^h
    e^{A s} D e^{A^T s} ds, both from one expm of [[-A, D], [0, A^T]] h
    (Van Loan 1978): Phi is its lower-right block transposed, Q is Phi
    times its upper-right block.  The n steps are applied by doubling:
    two steps of (Phi, Q) are one step of (Phi^2, Phi Q Phi^T + Q), so the
    cost is O(log n) 6x6 products and ``dt`` only sets the exact step h.
    dt * ||A||_2 <= 1 bounds the e^{||A|| h} growth of the -A corner;
    within it the result is independent of dt up to rounding.  Time is in
    the reciprocal unit of ``a`` and ``d`` (1/(2 pi MHz) internally).  V is
    symmetrized after every applied block and Q after every doubling;
    no Lyapunov solve is used.  Before any work, a drift that is not 6x6 or
    not finite raises numpy.linalg.LinAlgError, a diffusion that is not
    6x6, not finite or asymmetric beyond 1e-12 max|D| ValueError, and a v0
    that CovarianceMatrix rejects its ValueError; t_final = 0 returns v0
    as a CovarianceMatrix.
    """
    a_arr = _checked_drift_array(a)
    d_arr = _diffusion_array(d)
    cm0 = v0 if isinstance(v0, CovarianceMatrix) else CovarianceMatrix(v0)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    a_norm = float(np.linalg.norm(a_arr, 2))
    if dt * a_norm > 1.0:
        raise ValueError(
            f"dt too large: dt * ||A|| = {dt * a_norm:.3g} > 1; "
            f"use dt <= {1.0 / a_norm:.3g}"
        )
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt overflows: t_final = {t_final}, dt = {dt}")
    n_steps = math.ceil(t_final / dt)
    if n_steps == 0:
        return cm0
    f = expm(np.block([[-a_arr, d_arr], [np.zeros_like(a_arr), a_arr.T]])
             * (t_final / n_steps))
    phi = f[6:, 6:].T
    q = phi @ f[:6, 6:]
    v = cm0.v
    # (phi, q) applies 2^k steps at binary digit k of n_steps; the blocks
    # are powers of one affine map, so they commute and the digits can be
    # taken lowest first.
    while True:
        if n_steps & 1:
            v = phi @ v @ phi.T + q
            v = 0.5 * (v + v.T)
        n_steps >>= 1
        if not n_steps:
            return CovarianceMatrix(v)
        q = phi @ q @ phi.T + q
        q = 0.5 * (q + q.T)
        phi = phi @ phi
