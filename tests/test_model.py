import math
from dataclasses import fields, replace

import pytest

from cavmag.config import default_params
from cavmag.model import (
    ANGULAR_UNIT,
    HBAR,
    K_B,
    DriveParams,
    Environment,
    FixedPoint,
    SystemParams,
    detunings_from,
    hz_to_internal,
    thermal_occupation,
)
from cavmag.sweep import steady_state

# Direct evaluation of 1/(exp(hbar*omega/kB*T) - 1) at nu = 10 GHz, T = 20 mK.
N_TH_10GHZ_20MK = 3.789449170164159e-11


def test_thermal_occupation_zero_temperature():
    for omega in (1.0, 2 * math.pi * 10e9, 1e15):
        assert thermal_occupation(omega, 0.0) == 0.0


def test_thermal_occupation_where_k_b_t_underflows_is_zero():
    # K_B * 5e-324 rounds to 0.0; the occupation is 0 to double precision.
    assert thermal_occupation(2 * math.pi * 10e9, 5e-324) == 0.0


def test_thermal_occupation_reference_value():
    n = thermal_occupation(2 * math.pi * 10e9, 0.02)
    assert n == pytest.approx(N_TH_10GHZ_20MK, rel=1e-12)


def test_thermal_occupation_rayleigh_jeans():
    # hbar*omega / kB*T < 0.01: occupation within 1% of kB*T / hbar*omega
    temperature = 1.0
    omega = 0.005 * K_B * temperature / HBAR
    n = thermal_occupation(omega, temperature)
    classical = K_B * temperature / (HBAR * omega)
    assert abs(n - classical) / classical < 0.01


def test_thermal_occupation_extreme_ratio_underflows_cleanly():
    n = thermal_occupation(2 * math.pi * 100e12, 1e-4)
    assert n == 0.0 and not math.isnan(n)


def test_thermal_occupation_beyond_double_range_is_inf():
    # hbar*omega underflows to zero, then hbar*omega / k_B*T is subnormal
    assert thermal_occupation(1e-290, 0.02) == math.inf
    assert thermal_occupation(2 * math.pi * 10e9, 1e308) == math.inf


def test_thermal_occupation_monotonic_in_temperature():
    omega = 2 * math.pi * 10e9
    values = [thermal_occupation(omega, t) for t in (0.01, 0.05, 0.2, 1.0, 5.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_thermal_occupation_monotonic_in_frequency():
    temperature = 0.3
    omegas = [2 * math.pi * nu for nu in (1e9, 3e9, 10e9, 40e9)]
    values = [thermal_occupation(w, temperature) for w in omegas]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_thermal_occupation_domain_errors():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 0.1)
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 0.1)
    with pytest.raises(ValueError):
        thermal_occupation(1e10, -0.1)


def test_detunings_resonance():
    params, _ = default_params()
    det = detunings_from(params)
    assert det.delta_a == 0.0 and det.delta_m1 == 0.0 and det.delta_m2 == 0.0


def test_detunings_arithmetic():
    params, _ = default_params()
    shifted = replace(params, omega_s=hz_to_internal(9.995e9))
    det = detunings_from(shifted)
    assert det.delta_a == 5.0  # 5 MHz in internal units


def test_detunings_roundtrip_exact():
    # re-adding omega_s reproduces the inputs bit for bit
    values = [(10000.0, 10003.7, 9998.2, 10001.9), (3.1, 2.7, 9.9, 0.4)]
    for omega_a, omega_m1, omega_m2, omega_s in values:
        params = SystemParams(
            omega_a=omega_a, omega_m1=omega_m1, omega_m2=omega_m2,
            omega_s=omega_s, kappa_a=1.0, kappa_m1=1.0, kappa_m2=1.0,
            g1=0.0, g2=0.0)
        det = detunings_from(params)
        assert det.delta_a + omega_s == omega_a
        assert det.delta_m1 + omega_s == omega_m1
        assert det.delta_m2 + omega_s == omega_m2


def test_default_params_values():
    params, env = default_params()
    assert params.omega_a == 10000.0  # 10 GHz as nu in MHz
    assert params.kappa_a == 5.0
    assert params.kappa_m1 == 1.0 and params.kappa_m2 == 1.0
    assert params.g1 == 20.0 and params.g2 == 20.0
    assert params.omega_m1 == params.omega_a == params.omega_s
    assert env.temperature == 0.02
    assert env.n_m1 == pytest.approx(N_TH_10GHZ_20MK, rel=1e-12)
    assert env.n_m2 == env.n_m1


def test_system_params_validation():
    params, _ = default_params()
    with pytest.raises(ValueError):
        replace(params, kappa_a=0.0)
    with pytest.raises(ValueError):
        replace(params, kappa_m2=-1.0)
    with pytest.raises(ValueError):
        replace(params, g1=-0.5)
    with pytest.raises(ValueError):
        replace(params, omega_m1=-10.0)


def test_drive_params_validation_and_phase_reduction():
    with pytest.raises(ValueError):
        DriveParams(r=-0.1)
    assert DriveParams(r=1.0, theta=4 * math.pi).theta == 0.0
    assert DriveParams(r=1.0, theta=-1.0).theta == pytest.approx(2 * math.pi - 1.0)
    for raw in (7.0, -1e-20, 123.456, -3.0):
        theta = DriveParams(r=1.0, theta=raw).theta
        assert 0.0 <= theta < 2 * math.pi


def test_environment_zero_temperature_is_exact():
    params, _ = default_params()
    env = Environment.from_temperature(0.0, params)
    assert env.n_m1 == 0.0 and env.n_m2 == 0.0


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment(temperature=-0.1, n_m1=0.0, n_m2=0.0)
    with pytest.raises(ValueError):
        Environment(temperature=0.0, n_m1=0.1, n_m2=0.0)
    with pytest.raises(ValueError):
        Environment(temperature=0.1, n_m1=-0.2, n_m2=0.0)
    with pytest.raises(ValueError, match="^thermal occupations must be nonnegative, "
                                         "got n_m2 = nan$"):
        Environment(temperature=0.1, n_m1=0.2, n_m2=math.nan)
    # An occupation beyond the largest double is inf, and allowed.
    assert Environment(temperature=0.1, n_m1=math.inf, n_m2=0.0).n_m1 == math.inf


_PARAMS = default_params()[0]

# (name in the error, builder of a model object from one value)
_FINITE_FIELDS = [
    *[pytest.param(f.name, lambda x, name=f.name: replace(_PARAMS, **{name: x}), id=f.name)
      for f in fields(SystemParams)],
    pytest.param("squeezing parameter r", DriveParams, id="r"),
    pytest.param("squeezing phase theta", lambda x: DriveParams(2.0, x), id="theta"),
    pytest.param("temperature", lambda x: Environment(x, 0.0, 0.0), id="Environment"),
    pytest.param("temperature", lambda x: Environment.from_temperature(x, _PARAMS),
                 id="from_temperature"),
    pytest.param("temperature",
                 lambda x: steady_state(FixedPoint(_PARAMS, DriveParams(2.0), x)),
                 id="FixedPoint"),
    pytest.param("temperature", lambda x: thermal_occupation(1e10, x),
                 id="thermal_occupation-temperature"),
    pytest.param("omega", lambda x: thermal_occupation(x, 0.02), id="thermal_occupation-omega"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, make", _FINITE_FIELDS)
def test_non_finite_field_is_named(name, make, value):
    # The model's own rule, as the configuration layer applies it to its
    # keys: the error names the field, not the overflow or matrix it causes.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        make(value)


def test_angular_unit_is_megahertz():
    assert ANGULAR_UNIT == pytest.approx(2 * math.pi * 1e6)
    assert hz_to_internal(5e6) == 5.0
