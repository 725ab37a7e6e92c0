"""Steady-state Gaussian dynamics of two magnon modes coupled to a
squeezed-vacuum-driven microwave cavity, with entanglement and squeezing
diagnostics and a sweep CLI."""

from .model import (
    ANGULAR_UNIT,
    Detunings,
    DriveParams,
    Environment,
    FixedPoint,
    SystemParams,
    detunings_from,
    hz_to_internal,
    internal_to_hz,
    thermal_occupation,
)
from .config import default_params
from .dynamics import (
    DiffusionMatrix,
    DriftMatrix,
    StabilityReport,
    UnstableSystemError,
    build_diffusion,
    build_drift,
    stability_check,
)
from .steadystate import (
    CovarianceMatrix,
    TwoModeCM,
    propagate_covariance,
    solve_lyapunov,
    solve_lyapunov_kron,
    symplectic_eigenvalues,
)
from .measures import (
    CollectiveVariances,
    EntanglementResult,
    collective_variances,
    duan_sum,
    input_squeezing_db,
    log_negativity,
    mancini_product,
    reduce_to_magnons,
    squeezing_db,
)
from .sweep import (
    SweepResult,
    SweepSpec,
    format_csv,
    preset,
    run_sweep,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ANGULAR_UNIT",
    "CollectiveVariances",
    "CovarianceMatrix",
    "Detunings",
    "DiffusionMatrix",
    "DriftMatrix",
    "DriveParams",
    "EntanglementResult",
    "Environment",
    "FixedPoint",
    "StabilityReport",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "TwoModeCM",
    "UnstableSystemError",
    "build_diffusion",
    "build_drift",
    "collective_variances",
    "default_params",
    "detunings_from",
    "duan_sum",
    "format_csv",
    "hz_to_internal",
    "input_squeezing_db",
    "internal_to_hz",
    "log_negativity",
    "mancini_product",
    "preset",
    "propagate_covariance",
    "reduce_to_magnons",
    "run_sweep",
    "run_verification",
    "solve_lyapunov",
    "solve_lyapunov_kron",
    "squeezing_db",
    "stability_check",
    "symplectic_eigenvalues",
    "thermal_occupation",
]
