"""The package's outputs against the closed-form resonant oracles of
``_systems`` (nu_minus, the other outputs, E as r grows and the critical
temperature), which use no Lyapunov solver."""

import math

import numpy as np
import pytest

from _systems import (EQUAL_COUPLING_RULES, RESONANCE_RULES, reference_point,
                      resonant_critical_temperature, resonant_log_negativity_limit,
                      resonant_nu_minus, resonant_quantities)
from cavmag import config
from cavmag.measures import POINT_QUANTITIES, quantities
from cavmag.sweep import steady_state


def _package(names, **config_keys):
    """The package's named outputs at ``reference_point(**config_keys)``."""
    v = steady_state(reference_point(**config_keys))[2].v
    return dict(zip(names, quantities(v, names).tolist()))


def _nu_minus(**config_keys):
    """The package's nu_minus at ``reference_point(**config_keys)``."""
    return _package(["nu_minus"], **config_keys)["nu_minus"]


def _resonant_points(count, seed):
    """Seeded resonant points with r <= 4: all four frequencies equal, one
    magnon linewidth, and theta, T, g2/g1 and kappa_m/kappa_a varied.

    Above r = 4 the package's nu_minus can miss the oracle by more than
    1e-10 (test_package_nu_minus_meets_the_resonant_oracle_at_r_5)."""
    rng = np.random.default_rng(seed)
    kappa_a = config.DEFAULTS["kappa_a_hz"]
    for _ in range(count):
        omega = 10.0 ** rng.uniform(9.0, 10.5)
        kappa_m = kappa_a * 10.0 ** rng.uniform(-3.0, 0.5)
        yield {
            "omega_a_hz": omega, "omega_m1_hz": omega, "omega_m2_hz": omega,
            "omega_s_hz": omega, "kappa_m1_hz": kappa_m, "kappa_m2_hz": kappa_m,
            "g2_hz": config.DEFAULTS["g1_hz"] * rng.uniform(0.0, 2.0),
            "r": rng.uniform(0.0, 4.0),
            "theta_rad": rng.uniform(0.0, 2.0 * math.pi),
            "temperature_k": rng.uniform(0.0, 0.5),
        }


# The reference point and the edges of the seeded ranges: the vacuum, one
# magnon decoupled and no coupling at all.
_EDGE_POINTS = [{}, {"r": 0.0, "temperature_k": 0.0}, {"g2_hz": 0.0},
                {"g1_hz": 0.0, "g2_hz": 0.0}]


@pytest.mark.parametrize("keys", _EDGE_POINTS + list(_resonant_points(24, 20261021)))
def test_package_nu_minus_meets_the_resonant_oracle(keys):
    assert _nu_minus(**keys) == pytest.approx(resonant_nu_minus(**keys), rel=1e-10, abs=0)


def test_oracle_is_the_vacuum_without_drive_or_bath():
    assert resonant_nu_minus(r=0.0, temperature_k=0.0) == 0.5


def test_oracle_holds_its_limit_at_large_r():
    # E tends to a finite limit as r grows; at r = 20 a 60-digit mpmath
    # Kronecker solve gives E = 0.8805880228521984 (ROADMAP item A).
    for r in (20.0, 100.0):
        e = -math.log(2.0 * resonant_nu_minus(r=r))
        assert e == pytest.approx(0.8805880228521984, rel=1e-15)


@pytest.mark.parametrize("key, other", RESONANCE_RULES)
def test_oracle_refuses_a_point_off_resonance(key, other):
    with pytest.raises(ValueError, match=f"^resonant oracle needs {key} = {other}, got "):
        resonant_nu_minus(**{key: 1.01 * config.DEFAULTS[key]})


@pytest.mark.xfail(strict=True, reason="ROADMAP items A and J: with kappa_m = 5 kHz "
                   "the bright x quadrature is squeezed far below the e^(2r) scale of D, "
                   "and at r = 5 the package's nu_minus is 1.1e-9 off the oracle's")
def test_package_nu_minus_meets_the_resonant_oracle_at_r_5():
    keys = {"r": 5.0, "kappa_m1_hz": 5e3, "kappa_m2_hz": 5e3}
    assert _nu_minus(**keys) == pytest.approx(resonant_nu_minus(**keys), rel=1e-10, abs=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item A: at r = 14 the cavity noise "
                   "kappa_a e^(-2r) is lost to rounding in D, and the package's "
                   "nu_minus (0.2073270) is 2.8e-4 above the oracle's (0.2072695)")
def test_package_nu_minus_meets_the_resonant_oracle_at_r_14():
    with pytest.warns(RuntimeWarning, match="squeezing parameter r = 14"):
        nu_minus = _nu_minus(r=14.0)
    assert nu_minus == pytest.approx(resonant_nu_minus(r=14.0), rel=1e-10, abs=0)


# The outputs resonant_quantities gives: all but the two from nu_minus.
_OTHER_OUTPUTS = tuple(q for q in POINT_QUANTITIES if q not in ("log_negativity", "nu_minus"))

# A relative error of 1e-10 in a variance moves its squeezing by this many dB.
_SQUEEZING_DB_TOL = 10.0 / math.log(10.0) * 1e-10

# The corners the seeded points may miss: the largest r, a warm bath,
# unequal couplings and a broader cavity.
_THETA_ZERO_EDGES = [{}, {"r": 3.0}, {"temperature_k": 0.2},
                     {"g2_hz": 0.5 * config.DEFAULTS["g1_hz"]}, {"kappa_a_hz": 20e6}]


@pytest.mark.parametrize("keys", _THETA_ZERO_EDGES + [
    dict(keys, theta_rad=0.0, r=0.75 * keys["r"]) for keys in _resonant_points(7, 20261022)])
def test_package_outputs_meet_the_resonant_oracle(keys):
    package, oracle = _package(list(_OTHER_OUTPUTS), **keys), resonant_quantities(**keys)
    assert set(oracle) == set(_OTHER_OUTPUTS)
    for name in _OTHER_OUTPUTS:
        if name.startswith("squeezing_db"):
            assert package[name] == pytest.approx(oracle[name], rel=0, abs=_SQUEEZING_DB_TOL)
        else:
            assert package[name] == pytest.approx(oracle[name], rel=1e-10, abs=0), name


def test_oracle_gives_the_reference_checks_their_values():
    # verify checks 1, 2 and 4: magnon and collective squeezing at the
    # defaults, and var_my at the vacuum level when the bath is at T = 0.
    oracle = resonant_quantities()
    assert round(oracle["squeezing_db_x1"], 4) == 2.2658
    assert round(oracle["squeezing_db_Mx"], 4) == 7.2813
    assert resonant_quantities(temperature_k=0.0)["var_my"] == 0.5


def test_resonant_quantities_refuses_a_nonzero_phase():
    with pytest.raises(ValueError, match=r"^resonant oracle needs theta_rad = 0, got 0\.5$"):
        resonant_quantities(theta_rad=0.5)


@pytest.mark.parametrize("key, other", RESONANCE_RULES)
def test_resonant_quantities_refuses_a_point_off_resonance(key, other):
    with pytest.raises(ValueError, match=f"^resonant oracle needs {key} = {other}, got "):
        resonant_quantities(**{key: 1.01 * config.DEFAULTS[key]})


def test_log_negativity_limit_at_the_defaults():
    # The value item A targets ("E = 0.88058802 for every R >= 12"), and
    # the limit of the general oracle.
    e_inf = resonant_log_negativity_limit()
    assert e_inf == pytest.approx(0.8805880228521985, rel=1e-15)
    assert -math.log(2.0 * resonant_nu_minus(r=100.0)) == pytest.approx(e_inf, rel=1e-15)


# ROADMAP item C's T_c(r) at the defaults, from bisection on the package.
_CRITICAL_TEMPERATURES = {0.5: 0.3509335966274645, 1.0: 0.4653428257355706,
                          2.0: 0.5328263014014387, 3.0: 0.5425063859091498}


@pytest.mark.parametrize("r, t_c", _CRITICAL_TEMPERATURES.items())
def test_critical_temperature_at_the_defaults(r, t_c):
    t_oracle = resonant_critical_temperature(r=r)
    assert t_oracle == pytest.approx(t_c, rel=1e-12)
    # The general oracle puts nu_minus = 1/2 there.
    assert resonant_nu_minus(r=r, temperature_k=t_oracle) == pytest.approx(0.5, rel=1e-12)


def test_package_entanglement_ends_at_the_critical_temperature():
    t_c = resonant_critical_temperature(r=2.0)
    below = _package(["log_negativity"], r=2.0, temperature_k=t_c * (1.0 - 1e-9))
    above = _package(["log_negativity"], r=2.0, temperature_k=t_c * (1.0 + 1e-9))
    assert below["log_negativity"] > 0.0
    assert above["log_negativity"] == 0.0


@pytest.mark.parametrize("oracle", [resonant_log_negativity_limit,
                                    resonant_critical_temperature])
@pytest.mark.parametrize("key, other", EQUAL_COUPLING_RULES)
def test_equal_coupling_oracles_refuse_a_broken_rule(oracle, key, other):
    with pytest.raises(ValueError, match=f"^resonant oracle needs {key} = {other}, got "):
        oracle(**{key: 1.01 * config.DEFAULTS[key]})
