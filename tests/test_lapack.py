"""The per-point path calls LAPACK directly (dgees + dtrsyl, dsyev), and
the symplectic spectrum of one matrix or of a stack comes from one numpy
eigvals call (LAPACK zgeev).  A drift's one dgees factor gives both its
stability (the eigenvalues of the Schur form) and its steady-state solve,
and is computed once per DriftMatrix.  These tests pin those calls to the
numpy/scipy wrappers they replace and pin the count of factors, and pin
their error contract: non-finite or misshapen input is rejected before
LAPACK runs, and a LAPACK failure raises LinAlgError naming the
routine."""

import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import cavmag.steadystate
import cavmag.sweep
from _systems import random_stable_systems, reference_point, reference_system
from cavmag.cli import main
from cavmag.dynamics import DiffusionMatrix, DriftMatrix, stability_check
from cavmag.measures import _PT_SIGNS, TwoModeCM, log_negativity, reduce_to_magnons
from cavmag.steadystate import (CovarianceMatrix, propagate_covariance, solve_lyapunov,
                                solve_lyapunov_kron, symplectic_eigenvalues, symplectic_form)


def _reference_system():
    _, drift, diffusion = reference_system()
    return drift.a, diffusion.d


def _systems():
    return [_reference_system(), *random_stable_systems(20, 7)]


def _nu_minus_reference(v):
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ (p @ v @ p))).min())


# -- oracles: the direct calls against the wrappers they replace -----------

def test_solve_lyapunov_matches_scipy_exactly():
    for a, d in _systems():
        expected = scipy.linalg.solve_continuous_lyapunov(a, -d)
        expected = 0.5 * (expected + expected.T)
        assert np.array_equal(solve_lyapunov(a, d).v, expected)
        # The factor a stability check keeps on a DriftMatrix gives the
        # same bits.
        drift = DriftMatrix(a)
        assert stability_check(drift).stable
        assert np.array_equal(solve_lyapunov(drift, d).v, expected)


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
    # numpy's eigvals is the one wrapper the sweep calls: once per line, for
    # the spectra of all its stable points, on detuning lines and on lines
    # whose drift is fixed alike.
    def forbidden(*args, **kwargs):
        raise AssertionError("wrapper called on the sweep path")

    calls = []

    def counted_eigvals(a):
        calls.append(a.shape)
        return eigvals(a)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    for name in ("fig2b", "fig5b"):
        calls.clear()
        cavmag.sweep.run_sweep(cavmag.sweep.preset(name, points=3))
        assert calls == [(3, 4, 4)] * 3, name


def _count_calls(monkeypatch, *names):
    """Count the calls of each lapack.<name>, which still does its work."""
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def routine(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return routine

    for name in names:
        monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
    return calls


def test_one_schur_factor_per_detuning_point(monkeypatch):
    # Each point's drift is factored once, for its stability and its solve.
    calls = _count_calls(monkeypatch, "dgees", "dgeev")
    cavmag.sweep.run_sweep(cavmag.sweep.preset("fig2b", 5))
    assert calls == {"dgees": 25, "dgeev": 0}
    calls["dgees"] = 0
    cavmag.sweep.steady_state(reference_point())
    assert calls == {"dgees": 1, "dgeev": 0}


def test_stability_check_factors_a_drift_matrix_once(monkeypatch):
    a, d = _reference_system()
    drift = DriftMatrix(a)
    calls = _count_calls(monkeypatch, "dgees")
    reports = [stability_check(drift), stability_check(drift)]
    assert calls == {"dgees": 1}
    assert reports[0] == reports[1] and reports[0].stable
    # The solve reuses the factor; a raw array is factored on every call.
    solve_lyapunov(drift, d)
    assert calls == {"dgees": 1}
    stability_check(a)
    assert calls == {"dgees": 2}


# -- error contract ---------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_drift_raises_linalg_error(bad):
    a, _ = _reference_system()
    a = a.copy()
    a[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="finite"):
        stability_check(a)


def test_non_square_drift_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="6x6"):
        stability_check(-np.ones((6, 5)))


def _propagate(a, d):
    return propagate_covariance(a, d, 0.5 * np.eye(6), 0.0, 0.001)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raw_diffusion_raises_value_error(bad):
    a, d = _reference_system()
    d = d.copy()
    d[0, 1] = d[1, 0] = bad
    # Every consumer rejects it up front, even a propagation of zero length.
    for solve in (solve_lyapunov, solve_lyapunov_kron, _propagate):
        with pytest.raises(ValueError, match="^diffusion matrix must be finite$"):
            solve(a, d)


@pytest.mark.parametrize("routine, a, d, error, message", [
    *((routine, -np.eye(6), d, ValueError, f"diffusion matrix must have shape (6, 6), got {shape}")
      for routine in (solve_lyapunov, solve_lyapunov_kron, _propagate)
      for d, shape in ((2.0, ()), (np.eye(4), (4, 4)))),
    *((_propagate, a, np.eye(6), np.linalg.LinAlgError, "drift matrix must be 6x6 and finite")
      for a in (np.diag([-1.0, np.nan, -1.0, -1.0, -1.0, -1.0]), -np.ones((6, 5)))),
])
def test_misshapen_or_non_finite_input_fails_up_front(routine, a, d, error, message):
    # One input contract for every routine that takes a drift and a
    # diffusion, checked before the input reaches numpy or LAPACK.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        routine(a, d)


def _forbid_work(monkeypatch):
    """Make every LAPACK call, solve, 2-norm and expm of the solvers raise:
    a routine that still fails with its own error under this refused the
    input before any work."""
    def forbidden(*args, **kwargs):
        raise AssertionError("invalid input reached the numerics")
    monkeypatch.setattr(lapack, "dgees", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    monkeypatch.setattr(cavmag.steadystate, "expm", forbidden)


_DRIFT_CONSUMERS = {
    "stability_check": lambda a, d: stability_check(a),
    "solve_lyapunov": solve_lyapunov,
    "solve_lyapunov_kron": solve_lyapunov_kron,
    "propagate_covariance": lambda a, d: propagate_covariance(a, d, 0.5 * np.eye(6),
                                                              1e-3, 1e-3),
}


@pytest.mark.parametrize("size", [0, 4])
@pytest.mark.parametrize("routine", _DRIFT_CONSUMERS.values(), ids=_DRIFT_CONSUMERS)
def test_drift_that_is_not_6x6_is_refused_before_any_work(monkeypatch, routine, size):
    _forbid_work(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^drift matrix must be 6x6 and finite$"):
        routine(-np.eye(size), np.eye(size))


_DIFFUSION_CONSUMERS = {name: _DRIFT_CONSUMERS[name]
                        for name in ("solve_lyapunov", "solve_lyapunov_kron",
                                     "propagate_covariance")}
_ASYMMETRIC_D = np.eye(6)
_ASYMMETRIC_D[0, 1] = 0.3


@pytest.mark.parametrize("d, message", [
    (np.eye(4), "diffusion matrix must have shape (6, 6), got (4, 4)"),
    (np.diag([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]), "diffusion matrix must be finite"),
    (_ASYMMETRIC_D, "diffusion matrix asymmetric: max |d - d.T| = 3.000e-01"),
], ids=["4x4", "nan", "asymmetric"])
@pytest.mark.parametrize("routine", _DIFFUSION_CONSUMERS.values(), ids=_DIFFUSION_CONSUMERS)
def test_diffusion_beside_a_stable_drift_is_refused_before_any_work(monkeypatch, routine,
                                                                     d, message):
    # D is checked after A's shape and before any work on A (the solvers'
    # stability test runs dgees).  An asymmetric D is bad input, refused as
    # such, not solved and reported as a failed residual check.
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        routine(-np.eye(6), d)


@pytest.mark.parametrize("routine", _DIFFUSION_CONSUMERS.values(), ids=_DIFFUSION_CONSUMERS)
def test_diffusion_asymmetric_by_rounding_still_solves(routine):
    # An asymmetry of 1e-14 max|D| is within the 1e-12 rule covariance
    # matrices use, and moves V by no more than about that much of max|V|.
    a, d = _reference_system()
    nudged = d.copy()
    nudged[0, 1] += 1e-14 * np.abs(d).max()
    assert not (nudged == nudged.T).all()
    v = routine(a, d).v
    assert np.abs(routine(a, nudged).v - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("routine", _DRIFT_CONSUMERS.values(), ids=_DRIFT_CONSUMERS)
def test_empty_drift_never_reaches_lapack(capfd, routine):
    # Given a 0x0 matrix, dgees prints an illegal-argument notice on stderr.
    with pytest.raises(np.linalg.LinAlgError, match="^drift matrix must be 6x6 and finite$"):
        routine(np.zeros((0, 0)), np.zeros((0, 0)))
    assert capfd.readouterr().err == ""


def _asymmetric_v0():
    v0 = 0.5 * np.eye(6)
    v0[0, 1] = 0.3
    return v0


@pytest.mark.parametrize("t_final", [0.0, 1e-3])
@pytest.mark.parametrize("v0", [
    _asymmetric_v0(), np.diag([0.5, 0.5, np.nan, 0.5, 0.5, 0.5]), -np.eye(6),
], ids=["asymmetric", "nan", "nonpositive-diagonal"])
def test_invalid_v0_is_refused_before_any_work(monkeypatch, v0, t_final):
    _, drift, diffusion = reference_system()
    with pytest.raises(ValueError) as expected:
        CovarianceMatrix(v0)
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError) as got:
        propagate_covariance(drift, diffusion, v0, t_final, 1e-3)
    assert type(got.value) is ValueError
    assert str(got.value) == str(expected.value)


def _fail_routine(monkeypatch, name):
    """Replace lapack.<name> by the real routine with info forced to 1; for
    zgeev, which numpy's eigvals calls, raise numpy's error for info > 0."""
    if name == "zgeev":
        def not_converged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", not_converged)
        return
    real = getattr(lapack, name)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(lapack, name, failing)


def test_dgees_failure_raises_in_stability_check(monkeypatch):
    a, _ = _reference_system()
    _fail_routine(monkeypatch, "dgees")
    with pytest.raises(np.linalg.LinAlgError, match="dgees"):
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


def _covariance_stack():
    """Seeded stack of 4x4 covariances B B^T + I/2: each is at least the
    vacuum, so physical."""
    rng = np.random.default_rng(23)
    b = rng.normal(size=(40, 4, 4))
    return b @ b.transpose(0, 2, 1) + 0.5 * np.eye(4)


def test_symplectic_eigenvalues_of_a_stack_make_one_eigvals_call(monkeypatch):
    stack = _covariance_stack()
    cm = solve_lyapunov(*_reference_system())
    per_matrix = [symplectic_eigenvalues(v) for v in stack]
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    got = symplectic_eigenvalues(stack)
    assert calls == [(40, 4, 4)]
    assert got.shape == (40, 2)
    assert np.array_equal(got, per_matrix)  # bit for bit
    # ... and bit for bit what scipy's zgeev wrapper gives each matrix.
    assert np.array_equal(got, [
        np.sort(np.abs(lapack.zgeev(1j * symplectic_form(2) @ v, compute_vl=0,
                                    compute_vr=0)[0]))[::2] for v in stack])
    assert np.array_equal(symplectic_eigenvalues(stack.reshape(5, 8, 4, 4)),
                          got.reshape(5, 8, 2))
    expected = np.sort(np.abs(eigvals(1j * symplectic_form(3) @ cm.v)))[::2]
    assert np.abs(symplectic_eigenvalues(cm.v) - expected).max() <= 1e-14 * expected.max()


def test_stacked_spectrum_errors_name_the_failing_matrix():
    stack = _covariance_stack()
    stack[9] = np.diag([2.0, -1.0, 1.0, 1.0])
    stack[15] = np.diag([2.0, -1.0, 1.0, 1.0])
    with pytest.raises(ArithmeticError, match="^matrix 9: symplectic spectrum has imaginary"):
        symplectic_eigenvalues(stack)
    with pytest.raises(ArithmeticError, match=r"^matrix \(1, 1\): symplectic"):
        symplectic_eigenvalues(stack[:16].reshape(2, 8, 4, 4))
    stack[12, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError,
                       match="^matrix 12: eigenvalue input must be finite$"):
        symplectic_eigenvalues(stack)
    # A single matrix keeps the message without an index.
    with pytest.raises(np.linalg.LinAlgError, match="^eigenvalue input must be finite$"):
        symplectic_eigenvalues(np.full((4, 4), np.nan))


def test_zgeev_failure_names_zgeev(monkeypatch):
    cm = solve_lyapunov(*_reference_system())
    _fail_routine(monkeypatch, "zgeev")
    for v in (cm.v, _covariance_stack()):
        with pytest.raises(np.linalg.LinAlgError,
                           match="^LAPACK zgeev failed: Eigenvalues did not converge$"):
            symplectic_eigenvalues(v)


def test_dsyev_failure_raises_in_diffusion_matrix(monkeypatch):
    _, d = _reference_system()
    point = reference_point()
    _fail_routine(monkeypatch, "dsyev")
    with pytest.raises(np.linalg.LinAlgError, match="dsyev"):
        DiffusionMatrix(d)
    # build_diffusion re-raises only the PSD failure as ArithmeticError.
    with pytest.raises(np.linalg.LinAlgError, match="dsyev"):
        cavmag.sweep.steady_state(point)


@pytest.mark.parametrize("routine", ["dsyev", "dgees", "dtrsyl", "zgeev"])
def test_lapack_failure_is_a_numerical_failure_in_the_cli(monkeypatch, capsys, routine):
    _fail_routine(monkeypatch, routine)
    assert main(["point"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and routine in err
