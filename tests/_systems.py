"""Systems that several test modules share, built the way every consumer
builds an operating point: through ``config`` and ``sweep.steady_state``,
and the point-by-point reference for ``sweep.run_sweep``."""

import math

import numpy as np

from cavmag import config
from cavmag.sweep import (SweepResult, axis_values, get_axis, point_quantities,
                          steady_state)

# Steady-state <dx1^2> at the reference point (r = 2, theta = 0, 20 mK),
# frozen from the vectorized 36x36 backend.
V_X1_REFERENCE = 0.29675272028902244


def reference_point(**config_keys):
    """``config.DEFAULTS`` with some keys overridden, e.g. ``theta_rad=0.7``."""
    return config.fixed_from_values(config.merge(config_keys))


def reference_system(**config_keys):
    """(params, drift, diffusion) of ``reference_point(**config_keys)``."""
    point = reference_point(**config_keys)
    drift, diffusion, _ = steady_state(point)
    return point.params, drift, diffusion


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
