import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from _systems import (V_X1_REFERENCE, random_stable_systems, reference_point,
                      reference_system, rotation)
from cavmag.config import DEFAULTS
from cavmag.dynamics import (RESOLUTION_RTOL, DriftMatrix, UnstableSystemError,
                             build_diffusion, build_drift, stability_check)
from cavmag.model import (
    DriveParams,
    Environment,
    SystemParams,
    detunings_from,
)
from cavmag.steadystate import (
    CovarianceMatrix,
    TwoModeCM,
    propagate_covariance,
    solve_lyapunov,
    solve_lyapunov_kron,
    symplectic_eigenvalues,
    symplectic_form,
)
from cavmag.sweep import point_quantities, steady_state

SOLVERS = (solve_lyapunov, solve_lyapunov_kron)


@pytest.mark.parametrize("solver", SOLVERS)
def test_vacuum_fixed_point(solver):
    # decoupled modes with vacuum inputs settle at variance 1/2, any detuning
    _, drift, diffusion = reference_system(g1_hz=0.0, g2_hz=0.0, omega_a_hz=10004e6,
                                           omega_m1_hz=9997e6, r=0.0, temperature_k=0.0)
    cm = solver(drift, diffusion)
    assert np.abs(cm.v - 0.5 * np.eye(6)).max() <= 1e-12


@pytest.mark.parametrize("solver", SOLVERS)
def test_thermal_fixed_point(solver):
    params, drift, _ = reference_system(g1_hz=0.0, g2_hz=0.0)
    env = Environment(temperature=0.1, n_m1=0.37, n_m2=0.11)
    cm = solver(drift, build_diffusion(params, DriveParams(r=0.0), env))
    assert np.allclose(cm.v[2:4, 2:4], (env.n_m1 + 0.5) * np.eye(2), rtol=0, atol=1e-14)
    assert np.allclose(cm.v[4:6, 4:6], (env.n_m2 + 0.5) * np.eye(2), rtol=0, atol=1e-14)


def test_reference_point_regression():
    _, drift, diffusion = reference_system()
    for solver in SOLVERS:
        cm = solver(drift, diffusion)
        assert cm.v[2, 2] == pytest.approx(V_X1_REFERENCE, rel=1e-10)


def test_backends_agree_on_random_systems():
    for a, d in random_stable_systems(20, 42):
        v1 = solve_lyapunov(a, d).v
        v2 = solve_lyapunov_kron(a, d).v
        assert np.abs(v1 - v2).max() <= 1e-9


def test_kron_system_is_bit_identical_to_np_kron(monkeypatch):
    # The broadcast assembly of I (x) A + A (x) I must equal np.kron's,
    # signs of zeros included; the system is taken from the call to solve,
    # which is not carried out (a sparse random A may make it singular).
    systems = []

    def capture(system, rhs):
        systems.append(system)
        return np.zeros_like(rhs)

    rng = np.random.default_rng(7)
    drifts = []
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        a[rng.random((6, 6)) < 0.3] = 0.0
        a[rng.random((6, 6)) < 0.3] = -0.0
        drifts.append(a)
    _, drift, diffusion = reference_system()
    drifts.append(drift.a)
    monkeypatch.setattr(np.linalg, "solve", capture)
    for a in drifts:
        solve_lyapunov_kron.__wrapped__(DriftMatrix(a), diffusion.d)
    eye = np.eye(6)
    for a, system in zip(drifts, systems, strict=True):
        expected = np.kron(eye, a) + np.kron(a, eye)
        assert np.array_equal(system, expected)
        assert np.array_equal(np.signbit(system), np.signbit(expected))


@pytest.mark.parametrize("solver", SOLVERS)
def test_residual_bound(solver):
    _, drift, diffusion = reference_system()
    v = solver(drift, diffusion).v
    residual = np.abs(drift.a @ v + v @ drift.a.T + diffusion.d).max()
    assert residual < 1e-10 * np.abs(diffusion.d).max()


def _resonant_entanglement(kappa_m_hz, r):
    """E at resonance with g1 = g2, kappa_m1 = kappa_m2 = kappa_m_hz and
    T = 0, and the stability report of its drift."""
    drift, _, cm = steady_state(reference_point(kappa_m1_hz=kappa_m_hz, kappa_m2_hz=kappa_m_hz,
                                                r=r, temperature_k=0.0))
    return point_quantities(cm)["log_negativity"], stability_check(drift)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_entanglement_tends_to_r_as_the_magnon_damping_vanishes(r):
    # The bright magnon mode takes on the input squeezing and the dark mode
    # stays in vacuum; their 50:50 split gives nu_minus = e^(-r)/2, so E
    # tends to r from below.
    e, _ = _resonant_entanglement(1.0, r)
    assert abs(e - r) <= 1e-5


def test_a_slow_steady_state_is_solved_to_its_resolution_bound():
    # At 1e-4 Hz the slowest decay rate is 1e-10 (internal units), above
    # the floor, and the error of E stays within eps max|A| / |alpha|.
    e, report = _resonant_entanglement(1e-4, 2.0)
    assert report.stable
    bound = report.floor * RESOLUTION_RTOL / -report.max_real_part
    assert abs(e - 2.0) <= bound < RESOLUTION_RTOL


@pytest.mark.parametrize("solver", SOLVERS)
def test_unstable_system_raises(solver):
    a = np.diag([0.5, -1.0, -1.0, -1.0, -1.0, -1.0])
    with pytest.raises(UnstableSystemError):
        solver(a, np.eye(6))


def test_solution_is_symmetric_and_physical():
    _, drift, diffusion = reference_system()
    cm = solve_lyapunov(drift, diffusion)
    assert np.array_equal(cm.v, cm.v.T)
    assert symplectic_eigenvalues(cm.v).min() >= 0.5 - 1e-9


def test_physicality_across_random_operating_points():
    rng = np.random.default_rng(3)
    for _ in range(8):
        params = SystemParams(
            omega_a=10000.0 + rng.uniform(-15, 15),
            omega_m1=10000.0 + rng.uniform(-15, 15),
            omega_m2=10000.0 + rng.uniform(-15, 15),
            omega_s=10000.0,
            kappa_a=5.0, kappa_m1=1.0, kappa_m2=1.0,
            g1=rng.uniform(0, 25), g2=rng.uniform(0, 25))
        env = Environment.from_temperature(rng.uniform(0.0, 0.5), params)
        drive = DriveParams(r=rng.uniform(0, 3), theta=rng.uniform(0, 2 * math.pi))
        drift = build_drift(detunings_from(params), params)
        cm = solve_lyapunov(drift, build_diffusion(params, drive, env))
        assert symplectic_eigenvalues(cm.v).min() >= 0.5 - 1e-9


def test_label_swap_permutes_solution():
    drive = DriveParams(r=1.3, theta=0.8)
    params = SystemParams(
        omega_a=10000.0, omega_m1=10003.0, omega_m2=9998.0, omega_s=10001.0,
        kappa_a=5.0, kappa_m1=1.0, kappa_m2=2.5, g1=20.0, g2=12.0)
    swapped = SystemParams(
        omega_a=10000.0, omega_m1=9998.0, omega_m2=10003.0, omega_s=10001.0,
        kappa_a=5.0, kappa_m1=2.5, kappa_m2=1.0, g1=12.0, g2=20.0)
    env = Environment(temperature=0.1, n_m1=0.2, n_m2=0.35)
    env_swapped = Environment(temperature=0.1, n_m1=0.35, n_m2=0.2)
    v = solve_lyapunov(build_drift(detunings_from(params), params),
                       build_diffusion(params, drive, env)).v
    v_swapped = solve_lyapunov(build_drift(detunings_from(swapped), swapped),
                               build_diffusion(swapped, drive, env_swapped)).v
    perm = np.zeros((6, 6))
    perm[0, 0] = perm[1, 1] = 1.0
    perm[2, 4] = perm[3, 5] = perm[4, 2] = perm[5, 3] = 1.0
    assert np.abs(v_swapped - perm @ v @ perm.T).max() <= 1e-10


def test_phase_rotates_solution_locally():
    # V(theta) = R(-theta/2) V(0) R(-theta/2)^T applied to every mode
    _, drift, d0 = reference_system(theta_rad=0.0)
    v0 = solve_lyapunov(drift, d0).v
    for theta in (math.pi / 4, math.pi / 2, math.pi):
        _, _, d_theta = reference_system(theta_rad=theta)
        v_theta = solve_lyapunov(drift, d_theta).v
        rot = rotation(*3 * [-theta / 2.0])
        assert np.abs(v_theta - rot @ v0 @ rot.T).max() <= 1e-9


def test_propagate_closed_form_decay():
    kappa = 0.8
    a = -kappa * np.eye(6)
    v0 = 0.5 * np.eye(6) + 0.04 * np.ones((6, 6))
    t_final = 1.0 / kappa
    cm = propagate_covariance(a, np.zeros((6, 6)), v0, t_final, 0.001)
    exact = math.exp(-2.0 * kappa * t_final) * v0
    assert np.abs(cm.v - exact).max() / np.abs(exact).max() <= 1e-8


def test_propagate_reaches_steady_state():
    params, drift, diffusion = reference_system()
    steady = solve_lyapunov(drift, diffusion)
    dt = 0.1 / (np.linalg.norm(drift.a, 2) * 1.25)
    cm = propagate_covariance(drift, diffusion, 0.5 * np.eye(6),
                              30.0 / params.kappa_m1, dt)
    assert np.abs(cm.v - steady.v).max() <= 1e-6


def test_propagate_stationary_at_fixed_point():
    params, drift, diffusion = reference_system()
    steady = solve_lyapunov(drift, diffusion)
    cm = propagate_covariance(drift, diffusion, steady,
                              10.0 / params.kappa_m1, 0.0025)
    assert np.abs(cm.v - steady.v).max() <= 1e-8


def test_propagate_dark_mode_stays_at_vacuum():
    # equal couplings, zero magnon detunings, T = 0: the difference mode
    # never couples, so var_my stays exactly at 1/2 along the transient
    _, drift, diffusion = reference_system(temperature_k=0.0)
    cm = CovarianceMatrix(0.5 * np.eye(6))
    for segment in (1.0, 4.0, 15.0, 30.0):
        cm = propagate_covariance(drift, diffusion, cm, segment, 0.0025)
        var_my = 0.5 * (cm.v[3, 3] + cm.v[5, 5]) - cm.v[3, 5]
        assert abs(var_my - 0.5) <= 1e-8


def test_propagate_step_guard():
    _, drift, diffusion = reference_system()
    with pytest.raises(ValueError, match="dt"):
        propagate_covariance(drift, diffusion, 0.5 * np.eye(6), 1.0, 0.1)


def test_propagate_rejects_wrong_shaped_v0():
    _, drift, diffusion = reference_system()
    with pytest.raises(ValueError, match=r"^covariance matrix must be 6x6, got \(4, 4\)$"):
        propagate_covariance(drift, diffusion, 0.5 * np.eye(4), 1.0, 0.001)


def test_propagate_zero_time_returns_initial_state():
    _, drift, diffusion = reference_system()
    v0 = 0.5 * np.eye(6)
    cm = propagate_covariance(drift, diffusion, v0, 0.0, 0.001)
    assert np.array_equal(cm.v, v0)


def _rk4_propagate(a, d, v0, t_final, dt):
    """Fixed-step classical RK4 for dV/dt = A V + V A^T + D: an oracle for
    propagate_covariance that shares none of its method (error O(dt^4))."""
    def rhs(m):
        return a @ m + m @ a.T + d

    n_steps = math.ceil(t_final / dt)
    h = t_final / n_steps
    v = np.array(v0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


@pytest.mark.parametrize("delta_a_kappas", [0.0, 3.0])
@pytest.mark.parametrize("t_final", [0.5, 2.0])
def test_propagate_matches_rk4_oracle(delta_a_kappas, t_final):
    # exact steps at the guard limit against RK4 at dt * ||A|| = 0.02,
    # before the state has relaxed to the steady state
    _, drift, diffusion = reference_system(
        omega_a_hz=DEFAULTS["omega_a_hz"] + delta_a_kappas * DEFAULTS["kappa_a_hz"])
    a, d = drift.a, diffusion.d
    a_norm = np.linalg.norm(a, 2)
    v0 = 0.5 * np.eye(6)
    exact = propagate_covariance(a, d, v0, t_final, 1.0 / a_norm).v
    oracle = _rk4_propagate(a, d, v0, t_final, 0.02 / a_norm)
    assert np.abs(exact - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_propagate_independent_of_step():
    _, drift, diffusion = reference_system()
    a_norm = np.linalg.norm(drift.a, 2)
    v0 = 0.5 * np.eye(6)
    coarse = propagate_covariance(drift, diffusion, v0, 5.0, 1.0 / a_norm).v
    fine = propagate_covariance(drift, diffusion, v0, 5.0, 0.1 / a_norm).v
    assert np.abs(coarse - fine).max() <= 1e-13 * np.abs(fine).max()


def _van_loan_loop(a, d, v0, t_final, n_steps):
    """The n_steps Van Loan steps of propagate_covariance applied one after
    another: an oracle for its doubling (error O(n_steps) roundings)."""
    n = a.shape[0]
    f = expm(np.block([[-a, d], [np.zeros_like(a), a.T]]) * (t_final / n_steps))
    phi = f[n:, n:].T
    q = phi @ f[:n, n:]
    v = np.array(v0, dtype=float)
    for _ in range(n_steps):
        v = phi @ v @ phi.T + q
        v = 0.5 * (v + v.T)
    return v


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8, 1000, 1523])
def test_propagate_doubling_matches_sequential_steps(n_steps):
    _, drift, diffusion = reference_system(
        omega_a_hz=DEFAULTS["omega_a_hz"] + 3.0 * DEFAULTS["kappa_a_hz"])
    a, d = drift.a, diffusion.d
    a_norm = np.linalg.norm(a, 2)
    v0 = 0.5 * np.eye(6)
    t_final = 0.45 * n_steps / a_norm
    dt = t_final / (n_steps - 0.5)
    assert math.ceil(t_final / dt) == n_steps
    doubled = propagate_covariance(a, d, v0, t_final, dt).v
    oracle = _van_loan_loop(a, d, v0, t_final, n_steps)
    assert np.abs(doubled - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_propagate_huge_step_count_reaches_steady_state():
    # About 1e12 steps at the guard limit: a loop over the steps would not
    # finish, the doubling takes about 40 squarings.
    _, drift, diffusion = reference_system()
    steady = solve_lyapunov(drift, diffusion)
    dt = 1.0 / np.linalg.norm(drift.a, 2)
    cm = propagate_covariance(drift, diffusion, 0.5 * np.eye(6), 1e12 * dt, dt)
    assert np.abs(cm.v - steady.v).max() <= 1e-6


@pytest.mark.parametrize("t_final, dt, name", [
    (math.nan, 0.001, "t_final"),
    (math.inf, 0.001, "t_final"),
    (1.0, math.nan, "dt"),
])
def test_propagate_rejects_non_finite_times(t_final, dt, name):
    _, drift, diffusion = reference_system()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        propagate_covariance(drift, diffusion, 0.5 * np.eye(6), t_final, dt)


def test_propagate_rejects_overflowing_step_count():
    # Both times are finite, but their ratio is not.
    _, drift, diffusion = reference_system()
    with pytest.raises(ValueError, match=r"t_final = 1e\+300, dt = 1e-10$"):
        propagate_covariance(drift, diffusion, 0.5 * np.eye(6), 1e300, 1e-10)


def test_covariance_matrix_validation():
    bad = 0.5 * np.eye(6)
    bad[0, 1] = 1e-6  # asymmetric beyond tolerance
    with pytest.raises(ValueError):
        CovarianceMatrix(bad)
    nonpositive = 0.5 * np.eye(6)
    nonpositive[2, 2] = 0.0
    with pytest.raises(ValueError):
        CovarianceMatrix(nonpositive)
    with pytest.raises(ValueError, match="6x6"):
        CovarianceMatrix(0.5 * np.eye(4))
    non_finite = 0.5 * np.eye(6)
    non_finite[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        CovarianceMatrix(non_finite)


def test_covariance_matrix_symmetrizes_storage():
    v = 0.5 * np.eye(6)
    v[0, 1] = 1e-14  # within tolerance, must come out exactly symmetric
    cm = CovarianceMatrix(v)
    assert np.array_equal(cm.v, cm.v.T)


@pytest.mark.parametrize("cls, n", [(CovarianceMatrix, 6), (TwoModeCM, 4)])
def test_covariance_near_the_largest_double_stays_finite(cls, n):
    # Symmetrizing must not overflow: an exactly symmetric input is stored
    # as it is, and an asymmetric one halves each term before the sum.
    big = 1.7e308
    symmetric = big * np.eye(n)
    assert np.array_equal(cls(symmetric).v, symmetric)
    asymmetric = symmetric.copy()
    asymmetric[0, 1], asymmetric[1, 0] = big, math.nextafter(big, 0.0)
    v = cls(asymmetric).v
    assert np.isfinite(v).all() and np.array_equal(v, v.T)
    assert v[0, 0] == big and v[0, 1] == 0.5 * big + 0.5 * math.nextafter(big, 0.0)
    # Away from overflow, the halved sum has the bits of (v + v^T)/2.
    ordinary = 0.5 * np.eye(n) + 1e-13 * np.random.default_rng(3).normal(size=(n, n))
    assert np.array_equal(cls(ordinary).v, 0.5 * (ordinary + ordinary.T))


def test_symplectic_form_is_constant_and_read_only():
    form = symplectic_form(2)
    assert np.array_equal(form, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                 [0, 0, 0, 1], [0, 0, -1, 0]])
    assert symplectic_form(2) is form
    assert not form.flags.writeable


def test_symplectic_eigenvalues_of_vacuum():
    assert np.allclose(symplectic_eigenvalues(0.5 * np.eye(6)), [0.5, 0.5, 0.5])


@pytest.mark.parametrize("v", [[[2.0, 3.0], [3.0, 2.0]], np.diag([2.0, -1.0, 1.0, 1.0])])
def test_symplectic_eigenvalues_reject_unphysical_input(v):
    # Both give an imaginary +/- pair: no covariance matrix has that spectrum.
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        symplectic_eigenvalues(v)


@pytest.mark.parametrize("shape", [(5, 5), (4, 6)])
def test_symplectic_eigenvalues_reject_a_shape_that_is_not_2n_by_2n(shape):
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        symplectic_eigenvalues(np.eye(*shape))


@pytest.mark.parametrize("solver", SOLVERS)
def test_nan_residual_is_a_numerical_failure(solver):
    # max|D| = 1e306 near marginal stability overflows the solve.  dtrsyl
    # rescales the Schur solve, which is refused; the Kronecker residual is
    # NaN and fails the residual bound rather than the covariance validation.
    message = {solve_lyapunov: "^solve_lyapunov: dtrsyl scaled the solution by ",
               solve_lyapunov_kron: "residual"}[solver]
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    a = a - (np.linalg.eigvals(a).real.max() + 1e-3) * np.eye(6)
    b = rng.normal(size=(6, 6))
    d = b @ b.T
    d = d * (1e306 / np.abs(d).max())
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=message):
        solver(a, d)
