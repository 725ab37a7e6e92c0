import math
from dataclasses import replace

import numpy as np
import pytest

from _systems import V_X1_REFERENCE, reference_point, reference_system, rotation
from cavmag.config import default_params
from cavmag.dynamics import build_diffusion, build_drift
from cavmag.measures import (
    EntanglementResult,
    TwoModeCM,
    collective_variances,
    duan_sum,
    input_squeezing_db,
    log_negativity,
    mancini_product,
    quantities,
    reduce_to_magnons,
    squeezing_db,
)
from cavmag.model import (
    DriveParams,
    Environment,
    detunings_from,
)
from cavmag.steadystate import CovarianceMatrix, solve_lyapunov, solve_lyapunov_kron
from cavmag.sweep import steady_state

# Frozen from the vectorized 36x36 backend at the reference point
# (r = 2, theta = 0, 20 mK, zero detunings).
E_REFERENCE = 0.8382942380746955
NU_MINUS_REFERENCE = 0.21622377360877568


def _reference_cm(**config_keys):
    return steady_state(reference_point(**config_keys))[2]


def _tmsv(s):
    # standard two-mode squeezed vacuum covariance
    c, q = math.cosh(2 * s) / 2.0, math.sinh(2 * s) / 2.0
    return TwoModeCM(np.array([
        [c, 0, q, 0],
        [0, c, 0, -q],
        [q, 0, c, 0],
        [0, -q, 0, c],
    ]))


def test_reduce_identity():
    cm = CovarianceMatrix(0.5 * np.eye(6))
    assert np.array_equal(reduce_to_magnons(cm).v, 0.5 * np.eye(4))


def test_reduce_block_diagonal_passthrough():
    v = 0.5 * np.eye(6)
    v[2, 2] = v[3, 3] = 0.8
    v[4, 4] = v[5, 5] = 1.3
    reduced = reduce_to_magnons(CovarianceMatrix(v)).v
    assert np.array_equal(reduced, np.diag([0.8, 0.8, 1.3, 1.3]))


def test_reduce_reference_point():
    reduced = reduce_to_magnons(_reference_cm())
    assert reduced.v[0, 0] == pytest.approx(V_X1_REFERENCE, rel=1e-10)


def test_log_negativity_vacuum_is_separable():
    result = log_negativity(TwoModeCM(0.5 * np.eye(4)))
    assert result.nu_minus == pytest.approx(0.5, rel=1e-12)
    assert result.log_negativity == 0.0


def test_log_negativity_two_mode_squeezed_vacuum():
    result = log_negativity(_tmsv(1.0))
    assert result.nu_minus == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)
    assert result.log_negativity == pytest.approx(2.0, rel=1e-12)


def test_log_negativity_reference_regression():
    result = log_negativity(reduce_to_magnons(solve_lyapunov_kron(*reference_system()[1:])))
    assert result.log_negativity == pytest.approx(E_REFERENCE, abs=1e-9)
    assert result.nu_minus == pytest.approx(NU_MINUS_REFERENCE, abs=1e-9)


def test_log_negativity_label_swap_invariance():
    two_mode = reduce_to_magnons(_reference_cm(theta_rad=0.7))
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    swapped = TwoModeCM(perm @ two_mode.v @ perm.T)
    assert log_negativity(swapped).log_negativity == pytest.approx(
        log_negativity(two_mode).log_negativity, abs=1e-11)


def test_log_negativity_local_rotation_invariance():
    two_mode = reduce_to_magnons(_reference_cm())
    reference = log_negativity(two_mode).log_negativity
    for phi1, phi2 in ((0.4, 1.9), (2.8, 0.3), (1.1, 1.1)):
        rot = rotation(phi1, phi2)
        rotated = TwoModeCM(rot @ two_mode.v @ rot.T)
        assert log_negativity(rotated).log_negativity == pytest.approx(
            reference, abs=1e-10)


def test_log_negativity_theta_invariance():
    reference = log_negativity(reduce_to_magnons(_reference_cm(theta_rad=0.0)))
    for theta in (0.7, 2.1):
        result = log_negativity(reduce_to_magnons(_reference_cm(theta_rad=theta)))
        assert result.log_negativity == pytest.approx(
            reference.log_negativity, abs=1e-9)


def test_log_negativity_rejects_unphysical_input():
    v = 0.5 * np.eye(4)
    v[0, 2] = v[2, 0] = 0.9  # far beyond any physical correlation
    with pytest.raises(ArithmeticError):
        log_negativity(TwoModeCM(v))


def test_r_zero_never_entangles():
    rng = np.random.default_rng(5)
    params0, _ = default_params()
    for _ in range(6):
        params = replace(
            params0,
            omega_a=10000.0 + rng.uniform(-15, 15),
            omega_m1=10000.0 + rng.uniform(-15, 15),
            omega_m2=10000.0 + rng.uniform(-15, 15))
        env = Environment.from_temperature(rng.uniform(0.0, 0.5), params)
        drift = build_drift(detunings_from(params), params)
        cm = solve_lyapunov(drift, build_diffusion(params, DriveParams(r=0.0), env))
        assert log_negativity(reduce_to_magnons(cm)).log_negativity <= 1e-12


def test_entanglement_result_derives_log_negativity():
    assert EntanglementResult(0.25).log_negativity == math.log(2.0)
    for nu_minus in (0.5, 0.7, 3.0):
        assert EntanglementResult(nu_minus).log_negativity == 0.0
    for nu_minus in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="nu_minus must be positive"):
            EntanglementResult(nu_minus)


def test_collective_variances_vacuum():
    cv = collective_variances(CovarianceMatrix(0.5 * np.eye(6)))
    assert (cv.var_Mx, cv.var_My, cv.var_mx, cv.var_my) == (0.5, 0.5, 0.5, 0.5)


def test_collective_variances_uncorrelated():
    v = 0.5 * np.eye(6)
    v[2, 2] = v[4, 4] = 0.9
    cv = collective_variances(CovarianceMatrix(v))
    assert cv.var_Mx == 0.9 and cv.var_mx == 0.9


def test_collective_variances_reference_point():
    cv = collective_variances(_reference_cm())
    assert cv.var_Mx == pytest.approx(0.0935, abs=2e-4)
    assert abs(cv.var_my - 0.5) <= 1e-8


def test_collective_sum_is_basis_rotation():
    # var_Mx + var_mx reproduces <dx1^2> + <dx2^2>; the rotation is
    # orthogonal, so the identity holds to the last rounding (2 ulp)
    for theta in (0.0, 1.3, 2.9):
        cm = _reference_cm(theta_rad=theta)
        cv = collective_variances(cm)
        sum_x = cm.v[2, 2] + cm.v[4, 4]
        sum_y = cm.v[3, 3] + cm.v[5, 5]
        assert abs((cv.var_Mx + cv.var_mx) - sum_x) <= 2 * math.ulp(sum_x)
        assert abs((cv.var_My + cv.var_my) - sum_y) <= 2 * math.ulp(sum_y)


def test_duan_sum_boundary_cases():
    assert duan_sum(CovarianceMatrix(0.5 * np.eye(6))) == 1.0
    n = 0.37
    thermal = 0.5 * np.eye(6)
    for k in range(2, 6):
        thermal[k, k] = n + 0.5
    assert duan_sum(CovarianceMatrix(thermal)) == 2.0 * (n + 0.5)


def test_duan_sum_reference_point():
    value = duan_sum(_reference_cm())
    assert value == pytest.approx(0.5935, abs=2e-4)
    assert value < 1.0


def test_mancini_product_boundary_cases():
    assert mancini_product(CovarianceMatrix(0.5 * np.eye(6))) == 0.25
    n = 0.37
    thermal = 0.5 * np.eye(6)
    for k in range(2, 6):
        thermal[k, k] = n + 0.5
    assert mancini_product(CovarianceMatrix(thermal)) == (n + 0.5) ** 2


def test_mancini_product_reference_point():
    value = mancini_product(_reference_cm())
    assert value == pytest.approx(0.0468, abs=2e-4)
    assert value < 0.25


def test_criteria_certify_only_entangled_states():
    # sufficient, not necessary: below-bound values must imply E > 0
    for theta in (0.0, 1.0):
        cm = _reference_cm(theta_rad=theta)
        e_value = log_negativity(reduce_to_magnons(cm)).log_negativity
        if duan_sum(cm) < 1.0 or mancini_product(cm) < 0.25:
            assert e_value > 0.0


def test_squeezing_db():
    assert squeezing_db(0.5) == 0.0
    assert squeezing_db(0.296) == pytest.approx(2.2768, abs=1e-3)
    assert squeezing_db(0.0935) == pytest.approx(7.28, abs=5e-3)
    assert squeezing_db(1.0) == pytest.approx(-3.0103, abs=1e-3)
    with pytest.raises(ValueError):
        squeezing_db(0.0)
    with pytest.raises(ValueError):
        squeezing_db(-0.1)


def test_input_squeezing_db():
    assert input_squeezing_db(0.0) == 0.0
    assert input_squeezing_db(2.0) == pytest.approx(40.0 / math.log(10.0), rel=1e-15)
    assert input_squeezing_db(1.0) == pytest.approx(8.6859, abs=1e-4)
    with pytest.raises(ValueError):
        input_squeezing_db(-0.5)


def test_two_mode_cm_validation():
    bad = 0.5 * np.eye(4)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        TwoModeCM(bad)
    nonpositive = 0.5 * np.eye(4)
    nonpositive[1, 1] = -0.1
    with pytest.raises(ValueError):
        TwoModeCM(nonpositive)
    with pytest.raises(ValueError, match="4x4"):
        TwoModeCM(0.5 * np.eye(6))
    non_finite = 0.5 * np.eye(4)
    non_finite[2, 3] = non_finite[3, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TwoModeCM(non_finite)


def test_quantities_rejects_an_unknown_name():
    v = steady_state(reference_point())[2].v
    with pytest.raises(ValueError) as info:
        quantities(v, ["var_x1", "foo"])
    assert str(info.value) == (
        "unknown output 'foo'; valid: log_negativity, nu_minus, duan_sum, "
        "mancini_product, var_x1, var_Mx, var_my, squeezing_db_x1, squeezing_db_Mx")
