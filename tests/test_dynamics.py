import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import lapack

from _systems import rotation
from cavmag import dynamics
from cavmag.config import default_params, fixed_from_values
from cavmag.dynamics import (
    RESOLUTION_RTOL,
    DiffusionMatrix,
    DriftMatrix,
    StabilityReport,
    UnstableSystemError,
    _cavity_block,
    _diffusions,
    build_diffusion,
    build_drift,
    stability_check,
)
from cavmag.model import (
    Detunings,
    DriveParams,
    Environment,
    FixedPoint,
    SystemParams,
    detunings_from,
)
from cavmag.steadystate import (CovarianceMatrix, TwoModeCM, solve_lyapunov,
                                solve_lyapunov_kron)


def _random_params(rng):
    return SystemParams(
        omega_a=10000.0 + rng.uniform(-20, 20),
        omega_m1=10000.0 + rng.uniform(-20, 20),
        omega_m2=10000.0 + rng.uniform(-20, 20),
        omega_s=10000.0,
        kappa_a=rng.uniform(0.5, 8.0),
        kappa_m1=rng.uniform(0.2, 4.0),
        kappa_m2=rng.uniform(0.2, 4.0),
        g1=rng.uniform(0.0, 25.0),
        g2=rng.uniform(0.0, 25.0),
    )


def test_drift_decoupled_damped_modes():
    params, _ = default_params()
    params = replace(params, g1=0.0, g2=0.0)
    a = build_drift(Detunings(0.0, 0.0, 0.0), params).a
    ka, km = params.kappa_a, params.kappa_m1
    assert np.array_equal(a, np.diag([-ka, -ka, -km, -km, -km, -km]))


def test_drift_coupling_pattern_at_defaults():
    params, _ = default_params()
    a = build_drift(detunings_from(params), params).a
    g1 = params.g1
    assert a[0][3] == g1
    assert a[1][2] == -g1
    assert a[2][1] == g1
    assert a[3][0] == -g1
    assert a[2][2] == -params.kappa_m1


def test_drift_detuning_entries():
    params, _ = default_params()
    a = build_drift(Detunings(params.kappa_a, 0.0, 0.0), params).a
    assert a[0][1] == params.kappa_a
    assert a[1][0] == -params.kappa_a


def test_drift_no_direct_magnon_coupling():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = _random_params(rng)
        a = build_drift(detunings_from(params), params).a
        assert np.all(a[2:4, 4:6] == 0.0)
        assert np.all(a[4:6, 2:4] == 0.0)


def test_diffusion_vacuum_inputs():
    params, _ = default_params()
    d = build_diffusion(params, DriveParams(r=0.0),
                        Environment(0.0, 0.0, 0.0)).d
    ka, km = params.kappa_a, params.kappa_m1
    assert np.array_equal(d, np.diag([ka, ka, km, km, km, km]))


def test_diffusion_squeezed_along_axes():
    # theta = 0 squeezes one cavity quadrature to kappa_a e^(-2r) and
    # antisqueezes the other to kappa_a e^(+2r)
    params, _ = default_params()
    d = build_diffusion(params, DriveParams(r=2.0, theta=0.0),
                        Environment(0.0, 0.0, 0.0)).d
    ka = params.kappa_a
    assert d[0, 0] == pytest.approx(ka * math.exp(4.0), rel=1e-13)
    assert d[1, 1] == pytest.approx(ka * math.exp(-4.0), rel=1e-13)
    assert d[0, 1] == 0.0


def test_diffusion_rotated_phase():
    params, _ = default_params()
    d = build_diffusion(params, DriveParams(r=1.0, theta=math.pi / 2),
                        Environment(0.0, 0.0, 0.0)).d
    ka = params.kappa_a
    assert d[0, 0] == pytest.approx(ka * math.cosh(2.0), rel=1e-12)
    assert d[1, 1] == pytest.approx(ka * math.cosh(2.0), rel=1e-12)
    assert d[0, 1] == pytest.approx(ka * math.sinh(2.0), rel=1e-12)


def test_diffusion_block_structure():
    params, _ = default_params()
    _, env = default_params()
    d = build_diffusion(params, DriveParams(r=1.7, theta=0.9), env).d
    mask = np.zeros((6, 6), dtype=bool)
    mask[:2, :2] = mask[2:4, 2:4] = mask[4:6, 4:6] = True
    assert np.all(d[~mask] == 0.0)
    assert d[2, 3] == 0.0 and d[4, 5] == 0.0


def test_diffusion_minimum_uncertainty_bath():
    # at T = 0 the cavity block determinant is (2 kappa_a)^2 / 4 for any drive
    params, _ = default_params()
    rng = np.random.default_rng(11)
    for _ in range(10):
        drive = DriveParams(r=rng.uniform(0.0, 3.0), theta=rng.uniform(0.0, 2 * math.pi))
        d = build_diffusion(params, drive, Environment(0.0, 0.0, 0.0)).d
        det = d[0, 0] * d[1, 1] - d[0, 1] ** 2
        assert det / (2.0 * params.kappa_a) ** 2 == pytest.approx(0.25, rel=1e-9)


def test_diffusion_phase_period():
    params, env = default_params()
    d1 = build_diffusion(params, DriveParams(r=1.5, theta=0.9), env).d
    d2 = build_diffusion(params, DriveParams(r=1.5, theta=0.9 + 2 * math.pi), env).d
    assert np.allclose(d1, d2, rtol=0.0, atol=1e-12 * np.abs(d1).max())


def test_global_rotation_covariance():
    # R A R^T = A for any detunings; D(theta - 2 phi) = R(phi) D(theta) R(phi)^T
    params, env = default_params()
    params = replace(params, omega_a=10003.0, omega_m1=9998.5, omega_m2=10001.2)
    a = build_drift(detunings_from(params), params).a
    for phi in (0.3, 1.7):
        rot = rotation(phi, phi, phi)
        assert np.allclose(rot @ a @ rot.T, a, rtol=0.0, atol=1e-12 * np.abs(a).max())
    phi, theta = 0.3, 1.1
    rot = rotation(phi, phi, phi)
    d_theta = build_diffusion(params, DriveParams(2.0, theta), env).d
    d_shift = build_diffusion(params, DriveParams(2.0, theta - 2 * phi), env).d
    assert np.allclose(rot @ d_theta @ rot.T, d_shift,
                       rtol=0.0, atol=1e-12 * np.abs(d_theta).max())


def test_diffusion_conditioning_warning():
    params, env = default_params()
    with pytest.warns(RuntimeWarning):
        build_diffusion(params, DriveParams(r=6.5), env)


def test_diffusion_psd_check_rests_on_its_cavity_block(monkeypatch):
    # D is block-diagonal, so the smallest dsyev eigenvalue of the 6x6 D is
    # the smaller of its 2x2 cavity block's and the magnon entries, to the
    # bit; the noise builder checks D through the block alone.  With the
    # PSD check switched off, the builder also hands over the D that
    # rounding leaves indefinite, whose eigenvalue must match too.
    monkeypatch.setattr(dynamics, "_require_psd", lambda lowest: None)
    params, _ = default_params()
    rng = np.random.default_rng(11)
    for r in np.concatenate([[0.0, 9.5, 10.0, 12.0], rng.uniform(0.0, 20.0, 60)]):
        for theta in (0.0, 0.7, 2.0, rng.uniform(0.0, 2 * math.pi)):
            *_, lowest, info = _cavity_block(params.kappa_a, r, theta)
            assert info == 0
            points = [FixedPoint(params, DriveParams(float(r), theta), temperature)
                      for temperature in (0.0, 0.02, 0.3)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                stack = _diffusions(points)
            for d in stack:
                eigvals, _, info = lapack.dsyev(d, compute_v=0)
                assert info == 0 and eigvals[0] == min(lowest, d[2, 2], d[4, 4]), (r, theta)


def _built(build):
    """The bytes of each D that build() returns, or the class and message
    of its ArithmeticError, then the messages of its warnings, each of
    which must be raised from the one place in dynamics.py that raises it
    for every caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [d.tobytes() for d in build()]
        except ArithmeticError as exc:
            result = (type(exc), str(exc))
    assert all(w.filename == dynamics.__file__ for w in caught)
    return result, [str(w.message) for w in caught]


def test_build_diffusion_is_the_one_row_call_of_the_line_builder():
    # build_diffusion gives each D of a sweep line's builder bit for bit,
    # with the same warning where r exceeds the conditioning limit (6.5),
    # and the same error where rounding leaves D indefinite (9.5), at
    # which the line fails at its first point.
    rng = np.random.default_rng(5)
    for r in (0.0, 1.3, 6.5, 9.5, float(rng.uniform(0.0, 6.0))):
        params = _random_params(rng)
        drive = DriveParams(r, float(rng.uniform(0.0, 2 * math.pi)))
        points = [FixedPoint(params, drive, temperature)
                  for temperature in (0.0, 0.02, float(rng.uniform(0.0, 1.0)))]
        line, line_warnings = _built(lambda: _diffusions(points))
        assert isinstance(line, tuple) == (r == 9.5)
        if r == 9.5:
            expected = [(line, line_warnings)] * len(points)
        else:
            assert len(line_warnings) == (len(points) if r > 6.0 else 0)
            expected = [([d], line_warnings[:1]) for d in line]
        envs = [Environment.from_temperature(p.temperature, params) for p in points]
        assert [_built(lambda: [build_diffusion(params, drive, env).d]) for env in envs] == (
            expected), r


def test_diffusion_validation():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        DiffusionMatrix(bad)
    indefinite = -np.eye(6)
    with pytest.raises(ValueError):
        DiffusionMatrix(indefinite)
    # An asymmetry within 1e-12 max|D| passes the routines' check, but a
    # DiffusionMatrix must be exactly symmetric.
    rounded = np.eye(6)
    rounded[0, 1] = 1e-15
    solve_lyapunov(-np.eye(6), rounded)
    with pytest.raises(ValueError, match="^diffusion matrix must be exactly symmetric$"):
        DiffusionMatrix(rounded)


@pytest.mark.parametrize("cls, routine", [
    (DriftMatrix, stability_check),
    (DiffusionMatrix, lambda d: solve_lyapunov(-np.eye(6), d)),
], ids=["DriftMatrix", "DiffusionMatrix"])
def test_matrix_types_check_input_as_the_routines_do(cls, routine):
    # A typed constructor refuses what its routine refuses, with the same
    # exception class and message.
    nan, inf = np.eye(6), np.eye(6)
    nan[2, 2], inf[2, 2] = math.nan, math.inf
    for bad in (np.zeros((5, 6)), nan, inf):
        errors = []
        for make in (routine, cls):
            with pytest.raises(ValueError) as info:
                make(bad)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], bad


@pytest.mark.parametrize("make", [
    lambda: DriftMatrix(-np.eye(6)),
    lambda: build_drift(detunings_from(default_params()[0]), default_params()[0]),
    lambda: DiffusionMatrix(np.eye(6)),
    lambda: CovarianceMatrix(np.eye(6)),
    lambda: TwoModeCM(np.eye(4)),
], ids=["DriftMatrix", "build_drift", "DiffusionMatrix", "CovarianceMatrix", "TwoModeCM"])
def test_matrix_types_compare_and_hash_by_identity(make):
    # A matrix equals itself only, not another holding an equal array, and
    # hashes by identity, so it can be a dict key.
    first, second = make(), make()
    field = fields(first)[0].name
    assert np.array_equal(getattr(first, field), getattr(second, field))
    assert first == first and (first == second) is False and first != second
    assert {first: 1, second: 2}[first] == 1 and hash(first) == hash(first)


def test_stability_report_holds_only_the_largest_real_part():
    # Besides the largest real part, the report holds only what the rule and a
    # refusal read: the floor and the drift.
    assert [f.name for f in fields(StabilityReport)] == ["max_real_part", "floor", "a"]
    floor = 2.0 ** -40
    below = math.nextafter(-floor, -math.inf)
    for max_real, stable in ((below, True), (-1.0, True), (-floor, False),
                             (-0.5 * floor, False), (0.0, False), (5.0, False),
                             (math.nan, False)):
        assert StabilityReport(max_real, floor, np.eye(6)).stable is stable, max_real


def _edge_drift(alpha, scale=1.0):
    """scale times an upper-triangular drift, so A + A^T is not diagonal,
    with max|A| = 1 and alpha its largest eigenvalue real part, which
    dgees returns exactly."""
    a = np.diag([alpha, -1.0, -1.0, -1.0, -1.0, -1.0])
    a[0, 1] = 1.0
    return scale * a


_FLOOR = np.finfo(float).eps / RESOLUTION_RTOL  # of a drift with max|A| = 1


@pytest.mark.parametrize("scale", [2.0 ** -30, 1.0, 2.0 ** 30])
def test_stability_floor_is_relative_to_the_drift(scale):
    # The verdict at the floor's edge is the same in any unit of frequency.
    above, below = math.nextafter(-_FLOOR, 0.0), math.nextafter(-_FLOOR, -math.inf)
    for alpha, stable in ((above, False), (-_FLOOR, False), (below, True)):
        report = stability_check(_edge_drift(alpha, scale))
        assert (report.max_real_part, report.floor) == (alpha * scale, _FLOOR * scale)
        assert report.stable is stable, alpha


@pytest.mark.parametrize("solver", [solve_lyapunov, solve_lyapunov_kron])
def test_drift_just_above_the_floor_has_no_steady_state(solver):
    a = _edge_drift(math.nextafter(-_FLOOR, 0.0))
    with pytest.raises(UnstableSystemError, match="^no steady state: "):
        stability_check(a).require()
    with pytest.raises(UnstableSystemError, match="^no steady state: "):
        solver(a, np.eye(6))


def test_model_drift_beyond_resolution_is_refused_but_not_unstable():
    # g1 = 1e300 Hz: a damped drift whose spectrum double precision cannot
    # separate from zero at its scale.
    params = fixed_from_values({"g1_hz": 1e300}).params
    drift = build_drift(detunings_from(params), params)
    with pytest.raises(ArithmeticError, match="^unresolved steady state: ") as info:
        stability_check(drift).require()
    assert not isinstance(info.value, UnstableSystemError)
    with pytest.raises(ArithmeticError, match="^unresolved steady state: ") as info:
        solve_lyapunov(drift, np.eye(6))
    assert not isinstance(info.value, UnstableSystemError)


def test_stability_report_require():
    # A damped drift (A + A^T diagonal and negative) has a steady state, so
    # its refusal is not UnstableSystemError; any other drift's is.
    damped = np.diag([-1.0, -1.0, -2.0, -2.0, -3.0, -3.0])
    damped[0, 3], damped[3, 0] = 4.0, -4.0
    not_antisymmetric = damped.copy()
    not_antisymmetric[3, 0] = math.nextafter(-4.0, 0.0)
    not_damped = damped.copy()
    not_damped[5, 5] = 0.0
    assert StabilityReport(-1.0, 1e-13, not_damped).require() is None
    for max_real, text in ((0.5, "5.000000e-01"), (-1e-13, "-1.000000e-13")):
        where = (f"largest drift eigenvalue real part {text} is not below "
                 f"-1.000000e-13 = -eps max|A| / 0.001")
        with pytest.raises(ArithmeticError) as info:
            StabilityReport(max_real, 1e-13, damped).require()
        assert type(info.value) is ArithmeticError
        assert str(info.value) == (
            "unresolved steady state: a steady state exists (A + A^T is diagonal and "
            "negative), but its slowest decay rate is below what double precision "
            f"resolves: {where}")
        for a in (not_antisymmetric, not_damped):
            with pytest.raises(UnstableSystemError) as info:
                StabilityReport(max_real, 1e-13, a).require()
            assert str(info.value) == f"no steady state: {where}"


def test_unstable_system_error_is_an_arithmetic_error():
    # Generic numerical handlers catch "no steady state" without naming it.
    assert issubclass(UnstableSystemError, ArithmeticError)


def test_stability_decoupled():
    params, _ = default_params()
    params = replace(params, g1=0.0, g2=0.0)
    report = stability_check(build_drift(Detunings(0.0, 0.0, 0.0), params))
    assert report.stable
    assert report.max_real_part == pytest.approx(-params.kappa_m1, rel=1e-12)


def test_stability_at_defaults():
    params, _ = default_params()
    report = stability_check(build_drift(detunings_from(params), params))
    assert report.stable


def test_stability_detects_gain():
    a = np.diag([1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    report = stability_check(DriftMatrix(a))
    assert not report.stable
    assert report.max_real_part == pytest.approx(1.0)


def test_drift_matrix_is_read_only():
    params, _ = default_params()
    drift = build_drift(detunings_from(params), params)
    with pytest.raises(ValueError):
        drift.a[0, 0] = 99.0
    # So is the Schur factor it keeps.
    for arr in drift.schur:
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_build_drift_refuses_a_non_finite_detuning():
    # SystemParams is finite by its own rules; a Detunings is not checked
    # when it is made, so build_drift checks its three values.
    params, _ = default_params()
    for k in range(3):
        values = [0.0, 0.0, 0.0]
        values[k] = math.nan
        with pytest.raises(np.linalg.LinAlgError,
                           match="^drift matrix must be 6x6 and finite$"):
            build_drift(Detunings(*values), params)
