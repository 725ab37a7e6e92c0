"""Invariances of the log negativity over physically valid input.

E is a property of the magnon pair's state, so it is unchanged by the
drive phase theta (a local rotation of every quadrature pair) and by
swapping the labels of the two magnons.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cavmag import config
from cavmag.sweep import point_quantities, steady_state

_MODE_HZ = st.floats(10e9 - 15e6, 10e9 + 15e6)
_POINTS = st.fixed_dictionaries({
    "r": st.floats(0.0, 3.0),
    "theta_rad": st.floats(0.0, 2 * math.pi),
    "temperature_k": st.floats(0.0, 0.5),
    "omega_a_hz": _MODE_HZ,
    "omega_m1_hz": _MODE_HZ,
    "omega_m2_hz": _MODE_HZ,
    "g1_hz": st.floats(0.0, 25e6),
    "g2_hz": st.floats(0.0, 25e6),
    "kappa_m1_hz": st.floats(0.2e6, 4e6),
    "kappa_m2_hz": st.floats(0.2e6, 4e6),
})


def _log_negativity(values):
    point = config.fixed_from_values(config.merge(values))
    return point_quantities(steady_state(point)[2])["log_negativity"]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_POINTS, theta=st.floats(0.0, 2 * math.pi))
def test_log_negativity_does_not_depend_on_theta(values, theta):
    moved = dict(values, theta_rad=theta)
    assert abs(_log_negativity(moved) - _log_negativity(values)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_POINTS)
def test_log_negativity_is_symmetric_under_magnon_swap(values):
    swapped = dict(values)
    for one, two in (("omega_m1_hz", "omega_m2_hz"), ("kappa_m1_hz", "kappa_m2_hz"),
                     ("g1_hz", "g2_hz")):
        swapped[one], swapped[two] = values[two], values[one]
    assert abs(_log_negativity(swapped) - _log_negativity(values)) <= 1e-12
