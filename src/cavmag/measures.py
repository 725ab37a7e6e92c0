"""Entanglement and squeezing diagnostics computed from a covariance matrix.

Every threshold in this module is tied to the vacuum-variance-1/2
convention of the covariance matrices: the Duan sum certifies
entanglement below 1, the Mancini product below 1/4, and the partial
transpose certifies it when 2 nu_minus < 1.  These bounds are module
constants, never configurable; mixing variance conventions is the
dominant bug class in this kind of calculation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .steadystate import CovarianceMatrix, TwoModeCM, symplectic_eigenvalues

VACUUM_VARIANCE = 0.5

# Separable two-mode states satisfy duan_sum >= DUAN_BOUND and
# mancini_product >= MANCINI_BOUND; both criteria are sufficient for
# entanglement when violated, not necessary.
DUAN_BOUND = 1.0
MANCINI_BOUND = 0.25

# Partial transposition of the second mode, y2 -> -y2, as the elementwise
# sign mask of P V P with P = diag(1, 1, 1, -1).
_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class EntanglementResult:
    """The partial-transpose symplectic eigenvalue nu_minus of a magnon pair."""

    nu_minus: float

    def __post_init__(self):
        if not self.nu_minus > 0.0:
            raise ValueError(f"nu_minus must be positive, got {self.nu_minus}")

    @property
    def log_negativity(self) -> float:
        """E = max(0, -ln(2 nu_minus))."""
        return max(0.0, -math.log(2.0 * self.nu_minus))


@dataclass(frozen=True)
class CollectiveVariances:
    """Variances of the sum/difference collective magnon quadratures.

    M = (m1 + m2)/sqrt(2) and m = (m1 - m2)/sqrt(2); var_Mx etc. are the
    variances of their position- and momentum-like quadratures, vacuum = 1/2.
    """

    var_Mx: float
    var_My: float
    var_mx: float
    var_my: float


def reduce_to_magnons(cm: CovarianceMatrix) -> TwoModeCM:
    """Principal 4x4 submatrix of the magnon quadratures (rows/cols 2..5)."""
    return TwoModeCM(cm.v[2:, 2:])


def log_negativity(two_mode: TwoModeCM) -> EntanglementResult:
    """Logarithmic negativity E = max(0, -ln(2 nu_minus)) of a magnon pair.

    nu_minus is the smallest symplectic eigenvalue of P V P, with
    P = diag(1, 1, 1, -1) the partial transposition of the second mode
    (Vidal & Werner 2002).  symplectic_eigenvalues owns the spectrum and
    its errors: an unphysical covariance matrix raises ArithmeticError and
    a LAPACK zgeev failure numpy.linalg.LinAlgError.
    """
    return EntanglementResult(float(symplectic_eigenvalues(two_mode.v * _PT_SIGNS)[0]))


def collective_variances(cm: CovarianceMatrix) -> CollectiveVariances:
    """Variances of the collective quadratures from the full covariance.

    var_Mx = (<dx1^2> + <dx2^2> + 2<dx1 dx2>)/2 and var_mx the same with
    the cross term negated; the y quadratures are analogous.  The pair
    (var_Mx, var_mx) is an orthogonal rotation of (<dx1^2>, <dx2^2>), so
    var_Mx + var_mx reproduces their sum.
    """
    return CollectiveVariances(*_collective(cm.v))


def _collective(v):
    """(var_Mx, var_My, var_mx, var_my) of one covariance or a stack (..., 6, 6)."""
    half_x = 0.5 * (v[..., 2, 2] + v[..., 4, 4])
    half_y = 0.5 * (v[..., 3, 3] + v[..., 5, 5])
    cross_x = v[..., 2, 4]
    cross_y = v[..., 3, 5]
    return half_x + cross_x, half_y + cross_y, half_x - cross_x, half_y - cross_y


def duan_sum(cm: CovarianceMatrix) -> float:
    """Inseparability sum <dMx^2> + <dmy^2>; below 1 certifies entanglement."""
    cv = collective_variances(cm)
    return cv.var_Mx + cv.var_my


def mancini_product(cm: CovarianceMatrix) -> float:
    """Inseparability product <dMx^2><dmy^2>; below 1/4 certifies entanglement."""
    cv = collective_variances(cm)
    return cv.var_Mx * cv.var_my


def squeezing_db(variance: float) -> float:
    """Squeezing of a quadrature variance in dB relative to vacuum.

    Returns -10 log10(variance / (1/2)); positive values mean noise below
    the vacuum level.
    """
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return -10.0 * math.log10(variance / VACUUM_VARIANCE)


def input_squeezing_db(r: float) -> float:
    """Squeezing of the drive field itself: 10 log10(e^(2r)) = 20 r / ln 10."""
    if r < 0.0:
        raise ValueError(f"squeezing parameter r must be nonnegative, got {r}")
    return 20.0 * r / math.log(10.0)


# Every quantity ``quantities`` builds, in the order ``cavmag point`` prints.
POINT_QUANTITIES = ("log_negativity", "nu_minus", "duan_sum", "mancini_product",
                    "var_x1", "var_Mx", "var_my", "squeezing_db_x1", "squeezing_db_Mx")


def check_outputs(names) -> None:
    """ValueError naming the first of ``names`` not in POINT_QUANTITIES."""
    for name in names:
        if name not in POINT_QUANTITIES:
            raise ValueError(f"unknown output {name!r}; valid: {', '.join(POINT_QUANTITIES)}")


# Squeezing columns and the variance column each is taken from.
_SQUEEZING_OF = {"squeezing_db_x1": "var_x1", "squeezing_db_Mx": "var_Mx"}


def quantities(v, names) -> np.ndarray:
    """The named POINT_QUANTITIES of a steady-state covariance or a stack
    (..., 6, 6) of them, as one float64 block of shape v.shape[:-2] +
    (len(names),): one column per name, in ``names`` order.

    nu_minus comes from one symplectic_eigenvalues call on the stack, and
    it is computed whatever the names, so an unphysical state always raises.
    The collective variances are the elementwise arithmetic of
    collective_variances; log negativity (EntanglementResult) and squeezing
    (squeezing_db) are applied per value.  Each value is therefore the one
    the per-matrix functions give, bit for bit.  An unknown name raises
    ValueError (check_outputs).
    """
    check_outputs(names)
    v = np.asarray(v, dtype=float)
    nu = symplectic_eigenvalues(v[..., 2:, 2:] * _PT_SIGNS)[..., 0].ravel()
    var_Mx, _, _, var_my = map(np.ravel, _collective(v))
    columns = {
        "log_negativity": [EntanglementResult(x).log_negativity for x in nu.tolist()],
        "nu_minus": nu,
        "duan_sum": var_Mx + var_my,
        "mancini_product": var_Mx * var_my,
        "var_x1": np.ravel(v[..., 2, 2]),
        "var_Mx": var_Mx,
        "var_my": var_my,
    }
    block = np.empty((nu.size, len(names)))
    for j, name in enumerate(names):
        block[:, j] = ([squeezing_db(x) for x in columns[_SQUEEZING_OF[name]].tolist()]
                       if name in _SQUEEZING_OF else columns[name])
    return block.reshape(v.shape[:-2] + (len(names),))
