"""Systems that several test modules share, built the way every consumer
builds an operating point: through ``config`` and ``sweep.steady_state``."""

import math

import numpy as np

from cavmag import config
from cavmag.sweep import steady_state

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
