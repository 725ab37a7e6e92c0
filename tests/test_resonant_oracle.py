"""The package's nu_minus against the closed-form resonant oracle
``_systems.resonant_nu_minus``, which uses no Lyapunov solver."""

import math

import numpy as np
import pytest

from _systems import RESONANCE_RULES, reference_point, resonant_nu_minus
from cavmag import config
from cavmag.measures import quantities
from cavmag.sweep import steady_state


def _nu_minus(**config_keys):
    """The package's nu_minus at ``reference_point(**config_keys)``."""
    v = steady_state(reference_point(**config_keys))[2].v
    return float(quantities(v, ["nu_minus"])[0])


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
