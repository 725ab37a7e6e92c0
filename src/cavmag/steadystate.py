"""Steady-state and transient covariance of the quadrature dynamics.

The covariance types and their symplectic spectrum.  The stationary V
solves A V + V A^T = -D by either of two cross-validated backends under
one contract: a Bartels-Stewart solve calling LAPACK dgees and dtrsyl
directly, and a dense 36x36 vectorized solve.  propagate_covariance steps
dV/dt = A V + V A^T + D exactly with the matrix exponential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lapack

from .dynamics import DiffusionMatrix, _check_info, _drift_array, stability_check

# Max-norm residual of A V + V A^T + D, relative to the max-norm of D.
RESIDUAL_RTOL = 1e-10

# Relative asymmetry tolerated before a covariance matrix is rejected.
_SYMMETRY_RTOL = 1e-12

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


@functools.lru_cache(maxsize=None)
def _i_symplectic_form(n_modes: int) -> np.ndarray:
    return 1j * symplectic_form(n_modes)


def symplectic_eigenvalues(v) -> np.ndarray:
    """The n distinct moduli of the eigenvalues of i Omega V, ascending.

    A physical 2n x 2n covariance gives +/- pairs of real eigenvalues of
    modulus >= 1/2.  A non-2n x 2n shape raises ValueError; non-finite
    input and a zgeev failure raise numpy.linalg.LinAlgError; an imaginary
    residue above 1e-9 (relative) raises ArithmeticError.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 or not arr.size:
        raise ValueError(f"symplectic spectrum needs a 2n x 2n matrix, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise np.linalg.LinAlgError("eigenvalue input must be finite")
    eigvals, _, _, info = lapack.zgeev(_i_symplectic_form(arr.shape[0] // 2) @ arr,
                                       compute_vl=0, compute_vr=0)
    _check_info("zgeev", info)
    moduli = np.abs(eigvals)
    imag_residue = float(np.abs(eigvals.imag).max())
    if imag_residue > _EIG_IMAG_RTOL * max(float(moduli.max()), 1.0):
        raise ArithmeticError(
            f"symplectic spectrum has imaginary residue {imag_residue:.3e}; "
            f"the matrix is not a physical covariance"
        )
    return np.sort(moduli)[::2]


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


@dataclass(frozen=True)
class CovarianceMatrix(_Covariance):
    """6x6 symmetrized quadrature covariance, basis (dX, dY, dx1, dy1, dx2, dy2)."""

    _DIM = 6


@dataclass(frozen=True)
class TwoModeCM(_Covariance):
    """4x4 symmetrized covariance of the magnon pair, basis (dx1, dy1, dx2, dy2)."""

    _DIM = 4
    _NAME = "two-mode covariance"


def _diffusion_array(d) -> np.ndarray:
    """The diffusion as an array; ValueError unless every entry is finite."""
    arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("diffusion matrix must be finite")
    return arr


def _lyapunov_backend(solve):
    """The contract of every steady-state backend around its raw solve of
    A V + V A^T = -D: a non-finite D raises ValueError and an unstable A
    UnstableSystemError; the symmetrized V must meet max|A V + V A^T + D|
    <= 1e-10 max|D| (a NaN residual fails) or ArithmeticError is raised.
    """
    @functools.wraps(solve)
    def backend(a, d) -> CovarianceMatrix:
        a_arr, d_arr = _drift_array(a), _diffusion_array(d)
        stability_check(a_arr).require()
        v = solve(a_arr, d_arr)
        v = 0.5 * (v + v.T)
        residual = float(np.abs(a_arr @ v + v @ a_arr.T + d_arr).max())
        bound = RESIDUAL_RTOL * float(np.abs(d_arr).max())
        if not residual <= bound:
            raise ArithmeticError(
                f"{solve.__name__}: residual {residual:.3e} exceeds bound {bound:.3e}; "
                f"the system is near marginal stability or badly conditioned"
            )
        return CovarianceMatrix(v)

    return backend


def _no_sort(wr, wi):
    """dgees takes an eigenvalue-select callback; unsorted, it is never called."""
    return None


@_lyapunov_backend
def solve_lyapunov(a, d):
    """Steady-state covariance via the Bartels-Stewart algorithm.

    A = U T U^T (dgees), then T Y + Y T^T = U^T (-D) U (dtrsyl) and
    V = U Y U^T: the sequence of scipy.linalg.solve_continuous_lyapunov.
    A LAPACK failure raises numpy.linalg.LinAlgError.
    """
    t, _, _, _, u, _, info = lapack.dgees(_no_sort, a)
    _check_info("dgees", info)
    y, scale, info = lapack.dtrsyl(t, t, u.T.dot((-d).dot(u)), tranb="T")
    _check_info("dtrsyl", info)
    y *= scale
    return u.dot(y).dot(u.T)


@_lyapunov_backend
def solve_lyapunov_kron(a, d):
    """Steady-state covariance via dense vectorization.

    Writes the equation as (I (x) A + A (x) I) vec(V) = -vec(D) and solves
    the 36x36 linear system directly.  Independent of solve_lyapunov; the
    two must agree to 1e-9 on any stable input, which the test suite
    enforces.  A singular system raises numpy.linalg.LinAlgError.
    """
    eye = np.eye(a.shape[0])
    system = np.kron(eye, a) + np.kron(a, eye)
    vec = np.linalg.solve(system, -d.flatten(order="F"))
    return vec.reshape(a.shape, order="F")


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
