"""Reference checks: quantitative anchors and structural properties.

Each check pins one published number or qualitative claim of the modeled
scheme at its stated tolerance.  ``run_verification`` executes all of
them and the ``cavmag verify`` CLI renders the pass/fail table; the test
suite asserts each check individually.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import build_diffusion, build_drift
from .measures import (
    DUAN_BOUND,
    MANCINI_BOUND,
    collective_variances,
    duan_sum,
    input_squeezing_db,
    log_negativity,
    mancini_product,
    reduce_to_magnons,
    squeezing_db,
)
from .model import DriveParams, Environment, default_params, detunings_from
from .sweep import (FixedPoint, check_certification_chain, format_csv, get_axis,
                    preset, run_sweep)
from .steadystate import propagate_covariance, solve_lyapunov, solve_lyapunov_kron

_RANDOM_SEED = 20250810


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _result(number, name, passed, detail) -> CriterionResult:
    return CriterionResult(number=number, name=name, passed=bool(passed), detail=detail)


def _reference(r=2.0, theta=0.0, temperature=0.02, g2_scale=1.0) -> FixedPoint:
    """The reference operating point, with optional tweaks."""
    params, _ = default_params()
    if g2_scale != 1.0:
        params = replace(params, g2=g2_scale * params.g2)
    return FixedPoint(params, DriveParams(r=r, theta=theta), temperature)


def _steady_state(point: FixedPoint):
    """Drift, diffusion and steady-state covariance at one operating point."""
    params = point.params
    env = Environment.from_temperature(point.temperature, params)
    drift = build_drift(detunings_from(params), params)
    diffusion = build_diffusion(params, point.drive, env)
    return drift, diffusion, solve_lyapunov(drift, diffusion)


def _entanglement(cm) -> float:
    return log_negativity(reduce_to_magnons(cm)).log_negativity


# Every column the checks read.  Sweeps are memoised by grid with all of
# them, so presets on the same grid (fig2b and fig4a) share one sweep.
_VERIFY_OUTPUTS = ("log_negativity", "duan_sum", "mancini_product", "var_x1")


@functools.lru_cache(maxsize=None)
def _grid_sweep(spec):
    return run_sweep(spec)


def _preset_sweep(name: str):
    return _grid_sweep(replace(preset(name), outputs=_VERIFY_OUTPUTS))


def check_magnon_squeezing() -> CriterionResult:
    """Single-magnon quadrature squeezing of 2.27 dB, within 0.05 dB."""
    _, _, cm = _steady_state(_reference())
    value = squeezing_db(float(cm.v[2, 2]))
    return _result(
        1, "magnon squeezing 2.27 dB",
        abs(value - 2.27) <= 0.05,
        f"squeezing_db(var_x1) = {value:.4f} dB, expected 2.27 +/- 0.05",
    )


def check_collective_squeezing() -> CriterionResult:
    """Collective-quadrature squeezing of 7.28 dB, within 0.05 dB."""
    _, _, cm = _steady_state(_reference())
    value = squeezing_db(collective_variances(cm).var_Mx)
    return _result(
        2, "collective squeezing 7.28 dB",
        abs(value - 7.28) <= 0.05,
        f"squeezing_db(var_Mx) = {value:.4f} dB, expected 7.28 +/- 0.05",
    )


def check_input_squeezing() -> CriterionResult:
    """Drive squeezing at r = 2 of about 17.35 dB, within 0.05 dB."""
    value = input_squeezing_db(2.0)
    return _result(
        3, "input squeezing 17.35 dB",
        abs(value - 17.35) <= 0.05,
        f"input_squeezing_db(2) = {value:.4f} dB, expected 17.35 +/- 0.05",
    )


def check_dark_mode_variance() -> CriterionResult:
    """The decoupled collective mode keeps var_my = 1/2: within 1e-6 at
    20 mK and within 1e-10 at exactly zero temperature."""
    _, _, cm_cold = _steady_state(_reference(temperature=0.02))
    _, _, cm_zero = _steady_state(_reference(temperature=0.0))
    dev_cold = abs(collective_variances(cm_cold).var_my - 0.5)
    dev_zero = abs(collective_variances(cm_zero).var_my - 0.5)
    return _result(
        4, "dark-mode variance 1/2",
        dev_cold <= 1e-6 and dev_zero <= 1e-10,
        f"|var_my - 1/2| = {dev_cold:.3e} at 20 mK (tol 1e-6), "
        f"{dev_zero:.3e} at T = 0 (tol 1e-10)",
    )


def check_resonance_optimality() -> CriterionResult:
    """On the fig2b grid the entanglement peaks at the point nearest zero
    detuning."""
    result = _preset_sweep("fig2b")
    grid1 = np.linspace(*result.spec.range1)
    grid2 = np.linspace(*result.spec.range2)
    column = result.column("log_negativity")
    values = np.array([v if v is not None else -np.inf for v in column])
    best = int(values.argmax())
    expected = int(np.abs(grid1).argmin()) * len(grid2) + int(np.abs(grid2).argmin())
    return _result(
        5, "resonance optimality",
        best == expected,
        f"max E = {values[best]:.6f} at flat index {best}, "
        f"zero-detuning index {expected}",
    )


def check_squeezing_monotonicity() -> CriterionResult:
    """Resonant entanglement grows with the drive: E(r=2) > E(r=1) > 0."""
    _, _, cm1 = _steady_state(_reference(r=1.0))
    _, _, cm2 = _steady_state(_reference(r=2.0))
    e1, e2 = _entanglement(cm1), _entanglement(cm2)
    return _result(
        6, "entanglement grows with r",
        e2 > e1 > 0.0,
        f"E(r=2) = {e2:.6f}, E(r=1) = {e1:.6f}",
    )


def check_temperature_robustness() -> CriterionResult:
    """Entanglement survives up to 0.5 K and never increases with T."""
    result = _preset_sweep("fig3")
    values = result.column("log_negativity")
    all_positive = all(v is not None and v > 0.0 for v in values)
    non_increasing = all(
        values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1)
    )
    return _result(
        7, "temperature robustness",
        all_positive and non_increasing,
        f"E range [{min(values):.6f}, {max(values):.6f}] over T in [0, 0.5] K; "
        f"positive everywhere: {all_positive}, non-increasing: {non_increasing}",
    )


def check_criterion_consistency() -> CriterionResult:
    """A violated inseparability bound always comes with E > 0, and both
    bounds are violated at resonance with r = 2."""
    # fig2b and fig4a share one memoised result: check each result once.
    results = {id(r): r for r in map(_preset_sweep, ("fig2a", "fig2b", "fig4a"))}
    failures = []
    for result in results.values():
        failures += check_certification_chain(format_csv(result))
    _, _, cm = _steady_state(_reference())
    duan_res, mancini_res = duan_sum(cm), mancini_product(cm)
    resonant_ok = duan_res < DUAN_BOUND and mancini_res < MANCINI_BOUND
    return _result(
        8, "criterion consistency",
        not failures and resonant_ok,
        f"{len(failures)} chain violations; at resonance duan = {duan_res:.4f} "
        f"(< 1), mancini = {mancini_res:.4f} (< 1/4)",
    )


def _random_stable_pair(rng):
    a = rng.normal(size=(6, 6))
    a = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6)
    b = rng.normal(size=(6, 6))
    return a, b @ b.T


def check_solver_agreement() -> CriterionResult:
    """Both steady-state backends agree to 1e-9 entrywise and meet the
    residual bound 1e-10 * max|D| on 20 seeded random stable systems plus
    the reference point."""
    rng = np.random.default_rng(_RANDOM_SEED)
    drift, diffusion, _ = _steady_state(_reference())
    pairs = [(drift.a, diffusion.d)]
    pairs += [_random_stable_pair(rng) for _ in range(20)]
    worst_gap = 0.0
    worst_residual_ratio = 0.0
    for a, d in pairs:
        v1 = solve_lyapunov(a, d).v
        v2 = solve_lyapunov_kron(a, d).v
        worst_gap = max(worst_gap, float(np.abs(v1 - v2).max()))
        d_scale = float(np.abs(d).max())
        for v in (v1, v2):
            residual = float(np.abs(a @ v + v @ a.T + d).max())
            worst_residual_ratio = max(worst_residual_ratio, residual / d_scale)
    return _result(
        9, "solver cross-validation",
        worst_gap <= 1e-9 and worst_residual_ratio <= 1e-10,
        f"max backend gap {worst_gap:.3e} (tol 1e-9), max residual/|D| "
        f"{worst_residual_ratio:.3e} (tol 1e-10) over 21 systems",
    )


def check_transient_consistency() -> CriterionResult:
    """RK4 propagation from vacuum over t = 50/kappa_m reaches the
    steady state within 1e-6 entrywise."""
    params, _ = default_params()
    drift, diffusion, steady = _steady_state(_reference())
    t_final = 50.0 / params.kappa_m1
    dt = 0.1 / (np.linalg.norm(drift.a, 2) * 1.25)
    propagated = propagate_covariance(drift, diffusion, 0.5 * np.eye(6), t_final, dt)
    gap = float(np.abs(propagated.v - steady.v).max())
    return _result(
        10, "transient reaches steady state",
        gap <= 1e-6,
        f"max |V(t) - V_ss| = {gap:.3e} at t = 50/kappa_m (tol 1e-6)",
    )


def check_physicality_null_cases() -> CriterionResult:
    """Unsqueezed input never entangles: on a 5 x 5 x 3 grid of detunings
    and temperatures at r = 0, every state is physical and E = 0."""
    delta_a, delta_m = get_axis("delta_a"), get_axis("delta_m")
    worst_nu_defect = 0.0
    worst_e = 0.0
    for temperature in (0.0, 0.1, 0.3):
        reference = _reference(r=0.0, temperature=temperature)
        for nu_a in np.linspace(*delta_a.preset_range(reference, 5)).tolist():
            for nu_m in np.linspace(*delta_m.preset_range(reference, 5)).tolist():
                point = delta_m.apply(delta_a.apply(reference, nu_a), nu_m)
                _, _, cm = _steady_state(point)
                nu_min = float(cm.symplectic_eigenvalues().min())
                worst_nu_defect = max(worst_nu_defect, 0.5 - nu_min)
                worst_e = max(worst_e, _entanglement(cm))
    return _result(
        11, "physicality and r = 0 null case",
        worst_nu_defect <= 1e-9 and worst_e <= 1e-12,
        f"max (1/2 - nu_min) = {worst_nu_defect:.3e} (tol 1e-9), "
        f"max E = {worst_e:.3e} (tol 1e-12) over 75 points",
    )


def check_phase_invariance() -> CriterionResult:
    """The drive phase rotates quadratures locally: E is theta-independent
    to 1e-9, while var_x1 on the fig5b grid does vary along theta."""
    e_values = [
        _entanglement(_steady_state(_reference(theta=theta))[2])
        for theta in (0.0, math.pi / 4, math.pi / 2, math.pi)
    ]
    e_spread = max(e_values) - min(e_values)
    result = _preset_sweep("fig5b")
    count2 = result.spec.range2[2]
    column = result.column("var_x1")
    row_spread = 0.0
    for i in range(result.spec.range1[2]):
        row = column[i * count2:(i + 1) * count2]
        row_spread = max(row_spread, max(row) - min(row))
    return _result(
        12, "phase invariance of E",
        e_spread <= 1e-9 and row_spread > 1e-6,
        f"E spread over theta = {e_spread:.3e} (tol 1e-9); "
        f"largest var_x1 variation along theta = {row_spread:.4f}",
    )


def check_unequal_coupling() -> CriterionResult:
    """Unequal couplings degrade the resonant entanglement."""
    _, _, cm_equal = _steady_state(_reference())
    _, _, cm_unequal = _steady_state(_reference(g2_scale=0.5))
    e_equal, e_unequal = _entanglement(cm_equal), _entanglement(cm_unequal)
    return _result(
        13, "unequal-coupling degradation",
        e_unequal < e_equal,
        f"E(g2 = g1/2) = {e_unequal:.6f} < E(g2 = g1) = {e_equal:.6f}",
    )


ALL_CHECKS = (
    check_magnon_squeezing,
    check_collective_squeezing,
    check_input_squeezing,
    check_dark_mode_variance,
    check_resonance_optimality,
    check_squeezing_monotonicity,
    check_temperature_robustness,
    check_criterion_consistency,
    check_solver_agreement,
    check_transient_consistency,
    check_physicality_null_cases,
    check_phase_invariance,
    check_unequal_coupling,
)


def run_verification() -> VerificationReport:
    """Run every reference check and collect the results."""
    return VerificationReport(results=tuple(check() for check in ALL_CHECKS))


def format_report(report: VerificationReport) -> str:
    """Pass/fail table, one line per criterion."""
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.number:2d} {r.name}: {r.detail}"
        for r in report.results
    ]
    n_passed = sum(r.passed for r in report.results)
    lines.append(f"{n_passed}/{len(report.results)} checks passed")
    return "\n".join(lines)
