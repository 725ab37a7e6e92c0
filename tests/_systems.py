"""Systems that several test modules share, built the way every consumer
builds an operating point: through ``config`` and ``sweep.steady_state``,
the point-by-point reference for ``sweep.run_sweep``, and a closed-form
nu_minus at resonance that uses no Lyapunov solver."""

import math

import numpy as np

from cavmag import config
from cavmag.model import ANGULAR_UNIT, thermal_occupation
from cavmag.sweep import (SweepResult, axis_values, get_axis, point_quantities,
                          steady_state)

# Steady-state <dx1^2> at the reference point (r = 2, theta = 0, 20 mK),
# frozen from the vectorized 36x36 backend.
V_X1_REFERENCE = 0.29675272028902244


def reference_point(**config_keys):
    """``config.DEFAULTS`` with some keys overridden, e.g. ``theta_rad=0.7``."""
    return config.fixed_from_values(config_keys)


def reference_system(**config_keys):
    """(params, drift, diffusion) of ``reference_point(**config_keys)``."""
    point = reference_point(**config_keys)
    drift, diffusion, _ = steady_state(point)
    return point.params, drift, diffusion


# The configuration rules that make a point resonant, as (key, key) pairs
# whose values must be equal.
RESONANCE_RULES = (("omega_a_hz", "omega_s_hz"), ("omega_m1_hz", "omega_s_hz"),
                   ("omega_m2_hz", "omega_s_hz"), ("kappa_m1_hz", "kappa_m2_hz"))


def resonant_nu_minus(**config_keys):
    """nu_minus of the magnon pair at ``reference_point(**config_keys)`` in
    closed form, with no Lyapunov solver, exact at every r.

    The point must be resonant: omega_a = omega_m1 = omega_m2 = omega_s
    and kappa_m1 = kappa_m2 (RESONANCE_RULES); any other input raises
    ValueError naming the broken rule.  There the cavity drives only the
    bright magnon b = (g1 m1 + g2 m2)/G, G = sqrt(g1^2 + g2^2), and the
    dark one keeps its bath's variance n + 1/2.  At theta = 0 the drift
    couples (X, y_b) and (Y, x_b) only, two 2x2 Lyapunov systems driven
    by kappa_a e^(2r) on X and kappa_a e^(-2r) on Y, which give

        Var(y_b), Var(x_b) = e^(+-2r) alpha + (n + 1/2)(1 - 2 alpha),
        alpha = G^2 kappa_a / (2 (kappa_a + kappa_m)(kappa_a kappa_m + G^2)).

    theta rotates the cavity and both magnons by one angle, a local
    operation that leaves nu_minus unchanged.  The pair's x and y blocks
    V_x, V_y are the g1:g2 mix of the bright and dark variances and do
    not correlate, so nu_minus^2 and nu_plus^2 are the eigenvalues of
    V_x P V_y P, P = diag(1, -1) the partial transpose, and
    nu_minus = (n + 1/2) sqrt(Var x_b Var y_b) / nu_plus, free of
    cancellation.
    """
    values = config.merge(config_keys)
    for key, other in RESONANCE_RULES:
        if values[key] != values[other]:
            raise ValueError(f"resonant oracle needs {key} = {other}, "
                             f"got {values[key]} and {values[other]}")
    point = config.fixed_from_values(values)
    p, r = point.params, point.drive.r
    g = np.array([p.g1, p.g2])
    g_sq = float(g @ g)
    half = thermal_occupation(p.omega_m1 * ANGULAR_UNIT, point.temperature) + 0.5
    kappa_a, kappa_m = p.kappa_a, p.kappa_m1
    alpha = g_sq * kappa_a / (2.0 * (kappa_a + kappa_m) * (kappa_a * kappa_m + g_sq))
    var_xb, var_yb = (math.exp(s) * alpha + half * (1.0 - 2.0 * alpha)
                      for s in (-2.0 * r, 2.0 * r))
    # The bright variance along g, the dark one across it (any u at G = 0,
    # where both are n + 1/2).
    u = g / math.sqrt(g_sq) if g_sq else np.array([1.0, 0.0])
    v_x, v_y = (half * np.eye(2) + (var - half) * np.outer(u, u) for var in (var_xb, var_yb))
    pt = np.diag([1.0, -1.0])
    m = v_x @ pt @ v_y @ pt
    det = half * half * var_xb * var_yb
    trace = float(np.trace(m))
    nu_plus = math.sqrt(0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0))))
    return half * math.sqrt(var_xb * var_yb) / nu_plus


def random_stable_systems(count, seed):
    """Seeded (A, D) arrays: normal A shifted to max Re(eig) = -0.5, D = B B^T."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.normal(size=(6, 6))
        a = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6)
        b = rng.normal(size=(6, 6))
        yield a, b @ b.T


def rotation(*phis):
    """Block-diagonal rotation, one [[cos, sin], [-sin, cos]] block per angle."""
    out = np.zeros((2 * len(phis), 2 * len(phis)))
    for k, phi in enumerate(phis):
        c, s = math.cos(phi), math.sin(phi)
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    return out


def per_point_sweep(spec):
    """``run_sweep(spec)`` evaluated point by point: ``steady_state`` and
    ``point_quantities`` at every grid point, axis1-major.  The reference
    for the line-at-a-time evaluation of ``run_sweep``."""
    axis1, axis2 = get_axis(spec.axis1), spec.axis2 and get_axis(spec.axis2)
    grid1 = axis_values(spec.range1)
    grid2 = axis_values(spec.range2) if axis2 else None
    values = []
    for v1 in grid1:
        base = axis1.apply(spec.fixed, v1)
        for v2 in grid2 if axis2 else [None]:
            point = axis2.apply(base, v2) if axis2 else base
            quantities = point_quantities(steady_state(point)[2])
            values.append([quantities[n] for n in spec.outputs])
    return SweepResult(spec, grid1, grid2, values)


# Presets whose sweep lines fix the drift: r, theta or temperature along
# axis2, or along axis1 in the 1D fig3.
FIXED_DRIFT_PRESETS = ("fig3", "fig4b", "fig5b", "fig6a", "fig6b", "fig6c")
