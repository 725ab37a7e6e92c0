"""The per-point path calls LAPACK directly (dgeev, dgees + dtrsyl, zgeev,
dsyev).  These tests pin those calls to the numpy/scipy wrappers they
replace, and pin their error contract: non-finite input is rejected before
LAPACK runs, and a nonzero LAPACK info code raises LinAlgError."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import cavmag.sweep
from cavmag.cli import main
from cavmag.config import default_params
from cavmag.dynamics import DiffusionMatrix, build_diffusion, build_drift, stability_check
from cavmag.measures import _PT_SIGNS, TwoModeCM, log_negativity, reduce_to_magnons
from cavmag.model import DriveParams, Environment, detunings_from
from cavmag.steadystate import (propagate_covariance, solve_lyapunov, solve_lyapunov_kron,
                                symplectic_eigenvalues, symplectic_form)


def _reference_system():
    params, _ = default_params()
    env = Environment.from_temperature(0.02, params)
    drift = build_drift(detunings_from(params), params)
    return drift.a, build_diffusion(params, DriveParams(r=2.0), env).d


def _random_stable_systems(count=20, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.normal(size=(6, 6))
        a = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6)
        b = rng.normal(size=(6, 6))
        yield a, b @ b.T


def _systems():
    return [_reference_system(), *_random_stable_systems()]


def _nu_minus_reference(v):
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ (p @ v @ p))).min())


# -- oracles: the direct calls against the wrappers they replace -----------

def test_solve_lyapunov_matches_scipy_exactly():
    for a, d in _systems():
        expected = scipy.linalg.solve_continuous_lyapunov(a, -d)
        expected = 0.5 * (expected + expected.T)
        assert np.array_equal(solve_lyapunov(a, d).v, expected)


def test_stability_check_matches_numpy_eigvals():
    for a, _ in _systems():
        expected = np.linalg.eigvals(a).real.max()
        got = stability_check(a).max_real_part
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_log_negativity_matches_numpy_eigvals():
    two_modes = [reduce_to_magnons(solve_lyapunov(a, d)) for a, d in _systems()]
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.normal(size=(4, 4))
        two_modes.append(TwoModeCM(b @ b.T + 0.1 * np.eye(4)))
    for two_mode in two_modes:
        expected = _nu_minus_reference(two_mode.v)
        got = log_negativity(two_mode).nu_minus
        assert abs(got - expected) <= 1e-14 * expected
        # One routine owns the spectrum: log_negativity adds nothing to it.
        assert got == symplectic_eigenvalues(two_mode.v * _PT_SIGNS)[0]


def test_sweep_path_does_not_use_the_wrappers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("wrapper called on the per-point path")
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    result = cavmag.sweep.run_sweep(cavmag.sweep.preset("fig2b", points=3))
    assert all(row.stable for row in result.rows)


# -- error contract ---------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_drift_raises_linalg_error(bad):
    a, _ = _reference_system()
    a = a.copy()
    a[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="finite"):
        stability_check(a)


def test_non_square_drift_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="square"):
        stability_check(-np.ones((6, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raw_diffusion_raises_value_error(bad):
    a, d = _reference_system()
    d = d.copy()
    d[0, 1] = d[1, 0] = bad
    # Every consumer rejects it up front, even a propagation of zero length.
    for solve in (solve_lyapunov, solve_lyapunov_kron,
                  lambda a, d: propagate_covariance(a, d, 0.5 * np.eye(6), 0.0, 0.001)):
        with pytest.raises(ValueError, match="^diffusion matrix must be finite$"):
            solve(a, d)


def _fail_routine(monkeypatch, name):
    """Replace lapack.<name> by the real routine with info forced to 1."""
    real = getattr(lapack, name)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(lapack, name, failing)


def test_dgeev_failure_raises_in_stability_check(monkeypatch):
    a, _ = _reference_system()
    _fail_routine(monkeypatch, "dgeev")
    with pytest.raises(np.linalg.LinAlgError, match="dgeev"):
        stability_check(a)


@pytest.mark.parametrize("routine", ["dgees", "dtrsyl"])
def test_schur_solve_failure_raises_in_solve_lyapunov(monkeypatch, routine):
    a, d = _reference_system()
    _fail_routine(monkeypatch, routine)
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        solve_lyapunov(a, d)


def test_kron_solve_failure_raises_lin_alg_error(monkeypatch):
    # Both backends report a failed factorization as LinAlgError.
    a, d = _reference_system()
    error = np.linalg.LinAlgError("Singular matrix")

    def singular(*args, **kwargs):
        raise error

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(np.linalg.LinAlgError) as info:
        solve_lyapunov_kron(a, d)
    assert info.value is error


def test_zgeev_failure_raises_in_log_negativity(monkeypatch):
    two_mode = reduce_to_magnons(solve_lyapunov(*_reference_system()))
    _fail_routine(monkeypatch, "zgeev")
    with pytest.raises(np.linalg.LinAlgError, match="zgeev"):
        log_negativity(two_mode)


def test_symplectic_eigenvalues_call_zgeev_directly(monkeypatch):
    cm = solve_lyapunov(*_reference_system())
    expected = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(3) @ cm.v)))[::2]

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    got = symplectic_eigenvalues(cm.v)
    assert np.abs(got - expected).max() <= 1e-14 * expected.max()
    with pytest.raises(np.linalg.LinAlgError, match="finite"):
        symplectic_eigenvalues(np.full((4, 4), np.nan))
    _fail_routine(monkeypatch, "zgeev")
    with pytest.raises(np.linalg.LinAlgError, match="zgeev"):
        symplectic_eigenvalues(cm.v)


def test_dsyev_failure_raises_in_diffusion_matrix(monkeypatch):
    _, d = _reference_system()
    _fail_routine(monkeypatch, "dsyev")
    with pytest.raises(np.linalg.LinAlgError, match="dsyev"):
        DiffusionMatrix(d)
    # build_diffusion re-raises only the PSD failure as ArithmeticError.
    params, _ = default_params()
    with pytest.raises(np.linalg.LinAlgError, match="dsyev"):
        build_diffusion(params, DriveParams(r=2.0), Environment.from_temperature(0.02, params))


@pytest.mark.parametrize("routine", ["dsyev", "dgeev", "dgees", "dtrsyl", "zgeev"])
def test_lapack_failure_is_a_numerical_failure_in_the_cli(monkeypatch, capsys, routine):
    _fail_routine(monkeypatch, routine)
    assert main(["point"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and routine in err
