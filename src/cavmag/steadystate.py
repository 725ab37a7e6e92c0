"""Steady-state and transient covariance of the quadrature dynamics.

The stationary covariance matrix V solves A V + V A^T = -D by either of
two cross-validated backends, each with the same residual bound: a
Bartels-Stewart solve calling LAPACK dgees and dtrsyl directly (a LAPACK
failure raises numpy.linalg.LinAlgError), and a dense 36x36 vectorized
solve.  propagate_covariance steps dV/dt = A V + V A^T + D exactly with
the matrix exponential, independent of both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lapack

from .dynamics import (DiffusionMatrix, StabilityReport, _check_info, _drift_array,
                       stability_check)

# Max-norm residual of A V + V A^T + D, relative to the max-norm of D.
RESIDUAL_RTOL = 1e-10

# Relative asymmetry tolerated before a covariance matrix is rejected.
_SYMMETRY_RTOL = 1e-12


class UnstableSystemError(RuntimeError):
    """The drift matrix is not asymptotically stable; no steady state exists."""


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode;
    built once per mode count and returned read-only."""
    form = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    form[x, x + 1], form[x + 1, x] = 1.0, -1.0
    form.setflags(write=False)
    return form


def _spectrum(m: np.ndarray) -> np.ndarray:
    """zgeev eigenvalues of a square matrix; LinAlgError if non-finite or on failure."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("eigenvalue input must be finite")
    eigvals, _, _, info = lapack.zgeev(m, compute_vl=0, compute_vr=0)
    _check_info("zgeev", info)
    return eigvals


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n covariance matrix, ascending.

    The eigenvalues of i*Omega*V come in +/- pairs; the returned array
    holds the n distinct moduli.  Physical states have all of them >= 1/2
    in the vacuum-variance-1/2 convention.
    """
    arr = np.asarray(v, dtype=float)
    n_modes = arr.shape[0] // 2
    eigvals = _spectrum(1j * symplectic_form(n_modes) @ arr)
    return np.sort(np.abs(eigvals))[::2]


@dataclass(frozen=True)
class _Covariance:
    """_DIM x _DIM covariance, vacuum variance 1/2 per quadrature.

    Construction rejects a wrong shape, non-finite entries, asymmetry
    beyond 1e-12 relative tolerance and a nonpositive diagonal, and
    stores the exactly symmetrized array read-only.
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
        scale = max(float(np.abs(arr).max()), 1.0)
        asymmetry = float(np.abs(arr - arr.T).max())
        if asymmetry > _SYMMETRY_RTOL * scale:
            raise ValueError(
                f"{name} asymmetric: max |v - v.T| = {asymmetry:.3e}"
            )
        arr = 0.5 * (arr + arr.T)
        if (arr.diagonal() <= 0.0).any():
            raise ValueError(f"{name} diagonal entries must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(self.v)


@dataclass(frozen=True)
class CovarianceMatrix(_Covariance):
    """6x6 symmetrized quadrature covariance, basis (dX, dY, dx1, dy1, dx2, dy2)."""

    _DIM = 6


def _diffusion_array(d) -> np.ndarray:
    """The diffusion as an array; ValueError unless every entry is finite."""
    arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("diffusion matrix must be finite")
    return arr


def _require_stable(report: StabilityReport) -> None:
    """Raise UnstableSystemError unless the stability check passed."""
    if not report.stable:
        raise UnstableSystemError(
            f"no steady state: largest drift eigenvalue real part is "
            f"{report.max_real_part:.6e}"
        )


def _check_residual(a: np.ndarray, d: np.ndarray, v: np.ndarray, solver: str) -> None:
    residual = float(np.abs(a @ v + v @ a.T + d).max())
    bound = RESIDUAL_RTOL * float(np.abs(d).max())
    if residual > bound:
        raise ArithmeticError(
            f"{solver}: residual {residual:.3e} exceeds bound {bound:.3e}; "
            f"the system is near marginal stability or badly conditioned"
        )


def _no_sort(wr, wi):
    """dgees takes an eigenvalue-select callback; unsorted, it is never called."""
    return None


def solve_lyapunov(a, d) -> CovarianceMatrix:
    """Steady-state covariance via the Bartels-Stewart algorithm.

    A = U T U^T (dgees), then T Y + Y T^T = U^T (-D) U (dtrsyl) and
    V = U Y U^T: the sequence of scipy.linalg.solve_continuous_lyapunov.
    Requires an asymptotically stable drift (raises UnstableSystemError
    otherwise) and a finite diffusion (ValueError); a LAPACK failure
    raises numpy.linalg.LinAlgError.  The result is explicitly symmetrized
    and satisfies max|A V + V A^T + D| <= 1e-10 max|D|; a violation raises
    ArithmeticError with diagnostics instead of returning a bad matrix.
    """
    a_arr = _drift_array(a)
    d_arr = _diffusion_array(d)
    _require_stable(stability_check(a_arr))
    t, _, _, _, u, _, info = lapack.dgees(_no_sort, a_arr)
    _check_info("dgees", info)
    y, scale, info = lapack.dtrsyl(t, t, u.T.dot((-d_arr).dot(u)), tranb="T")
    _check_info("dtrsyl", info)
    y *= scale
    v = u.dot(y).dot(u.T)
    v = 0.5 * (v + v.T)
    _check_residual(a_arr, d_arr, v, "solve_lyapunov")
    return CovarianceMatrix(v)


def solve_lyapunov_kron(a, d) -> CovarianceMatrix:
    """Steady-state covariance via dense vectorization.

    Writes the equation as (I (x) A + A (x) I) vec(V) = -vec(D) and solves
    the 36x36 linear system directly.  Independent of solve_lyapunov; the
    two must agree to 1e-9 on any stable input, which the test suite
    enforces.  Same contract and residual bound as solve_lyapunov.
    """
    a_arr = _drift_array(a)
    d_arr = _diffusion_array(d)
    _require_stable(stability_check(a_arr))
    eye = np.eye(a_arr.shape[0])
    system = np.kron(eye, a_arr) + np.kron(a_arr, eye)
    try:
        vec = np.linalg.solve(system, -d_arr.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "solve_lyapunov_kron: singular linear system (marginal stability)"
        ) from exc
    v = vec.reshape(a_arr.shape, order="F")
    v = 0.5 * (v + v.T)
    _check_residual(a_arr, d_arr, v, "solve_lyapunov_kron")
    return CovarianceMatrix(v)


def propagate_covariance(a, d, v0, t_final: float, dt: float) -> CovarianceMatrix:
    """Propagate dV/dt = A V + V A^T + D from v0 to t_final, exactly.

    Each of the n = ceil(t_final / dt) steps of h = t_final / n applies
    V <- Phi V Phi^T + Q with Phi = e^{A h} and Q = int_0^h e^{A s} D
    e^{A^T s} ds, both from one expm of [[-A, D], [0, A^T]] h (Van Loan
    1978): Phi is its lower-right block transposed, Q is Phi times its
    upper-right block.  dt * ||A||_2 <= 1 bounds the e^{||A|| h} growth of
    the -A corner; within it the result is independent of dt up to
    rounding.  Time is in the reciprocal unit of ``a`` and ``d``
    (1/(2 pi MHz) internally).  V is symmetrized after every step and
    t_final = 0 returns v0; no Lyapunov solve is used.  A non-finite
    diffusion raises ValueError.
    """
    a_arr = _drift_array(a)
    d_arr = _diffusion_array(d)
    v = np.array(v0.v if isinstance(v0, CovarianceMatrix) else v0, dtype=float)
    if v.shape != a_arr.shape:
        raise ValueError(f"v0 must have shape {a_arr.shape}, got {v.shape}")
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
        return CovarianceMatrix(v)
    n = a_arr.shape[0]
    f = expm(np.block([[-a_arr, d_arr], [np.zeros_like(a_arr), a_arr.T]])
             * (t_final / n_steps))
    phi = f[n:, n:].T
    q = phi @ f[:n, n:]
    for _ in range(n_steps):
        v = phi @ v @ phi.T + q
        v = 0.5 * (v + v.T)
    return CovarianceMatrix(v)
