"""Parameter sweeps over detunings, squeezing, phase and temperature.

A sweep evaluates the full pipeline (parameters -> drift/diffusion ->
stability -> steady state -> measures) on a 1D or 2D grid and renders the
result as deterministic CSV text.  Named presets reproduce the standard
figure grids; every range and fixed value can be overridden.

Axis identifiers, their CSV columns and units (``_AXES`` defines each axis):

    delta_a      delta_a_hz     cavity detuning from the drive, as nu = delta/2pi in Hz
    delta_m      delta_m_hz     common magnon detuning (both modes tied), same unit
    r            r              drive squeezing parameter
    theta        theta_rad      drive squeezing phase in rad
    temperature  temperature_k  bath temperature in K
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import config
from .config import fixed_from_values
from .dynamics import (DiffusionMatrix, UnstableSystemError, _diffusions, _hold,
                       build_diffusion, build_drift, stability_check)
from .measures import DUAN_BOUND, MANCINI_BOUND, POINT_QUANTITIES, quantities
from .model import (
    DriveParams,
    Environment,
    FixedPoint,
    SystemParams,
    TWO_PI,
    detunings_from,
    hz_to_internal,
    internal_to_hz,
)
from .steadystate import _one_drift_solves, solve_lyapunov

# The sweep reaches these through measures.quantities; the benchmark tracer
# still patches them under cavmag.sweep, so they stay importable here.
from .measures import (collective_variances, duan_sum, log_negativity,  # noqa: F401
                       mancini_product, reduce_to_magnons, squeezing_db)

# Every point quantity except the diagnostic nu_minus.
QUANTITIES = tuple(name for name in POINT_QUANTITIES if name != "nu_minus")

DEFAULT_POINTS = 101


@dataclass(frozen=True)
class Axis:
    """Everything that defines one sweep axis."""

    column: str                # CSV column heading
    keys: tuple[str, ...]      # configuration keys it sets at every grid point
    apply: Callable[[FixedPoint, float], FixedPoint]  # (point, value) -> point
    preset_range: Callable[[FixedPoint, int], tuple]  # (point, n) -> (min, max, n)


# Appliers run once per grid point, so they build each object directly
# rather than through dataclasses.replace.

def _with_modes(q, omega_a, omega_m1, omega_m2):
    return SystemParams(omega_a, omega_m1, omega_m2, q.omega_s, q.kappa_a,
                        q.kappa_m1, q.kappa_m2, q.g1, q.g2)


def _detune_cavity(p, nu):
    q = p.params
    params = _with_modes(q, q.omega_s + hz_to_internal(nu), q.omega_m1, q.omega_m2)
    return FixedPoint(params, p.drive, p.temperature)


def _detune_magnons(p, nu):
    q = p.params
    omega = q.omega_s + hz_to_internal(nu)
    return FixedPoint(_with_modes(q, q.omega_a, omega, omega), p.drive, p.temperature)


def _detuning_range(p, n):
    span = 3.0 * internal_to_hz(p.params.kappa_a)  # +/- 3 kappa_a as nu in Hz
    return (-span, span, n)


_AXES = {
    "delta_a": Axis("delta_a_hz", ("omega_a_hz",), _detune_cavity, _detuning_range),
    "delta_m": Axis("delta_m_hz", ("omega_m1_hz", "omega_m2_hz"), _detune_magnons,
                    _detuning_range),
    "r": Axis("r", ("r",),
              lambda p, r: FixedPoint(p.params, DriveParams(r, p.drive.theta),
                                      p.temperature),
              lambda p, n: (0.0, 3.0, n)),
    "theta": Axis("theta_rad", ("theta_rad",),
                  lambda p, theta: FixedPoint(p.params, DriveParams(p.drive.r, theta),
                                              p.temperature),
                  lambda p, n: (0.0, TWO_PI * (n - 1) / max(n, 1), n)),
    "temperature": Axis("temperature_k", ("temperature_k",),
                        lambda p, t: FixedPoint(p.params, p.drive, t),
                        lambda p, n: (0.0, 0.5, n)),
}

AXES = tuple(_AXES)


def get_axis(name: str) -> Axis:
    """The definition of one axis; ValueError for an unknown name."""
    if name not in _AXES:
        raise ValueError(f"unknown axis {name!r}; valid axes: {', '.join(AXES)}")
    return _AXES[name]


@dataclass(frozen=True)
class SweepSpec:
    """Axes, ranges, fixed values and requested output quantities of a sweep."""

    axis1: str
    range1: tuple[float, float, int]
    fixed: FixedPoint
    outputs: tuple[str, ...]
    axis2: str | None = None
    range2: tuple[float, float, int] | None = None

    def __post_init__(self):
        if isinstance(self.outputs, str) or not hasattr(self.outputs, "__iter__"):
            raise ValueError("outputs must be a sequence of quantity names")
        object.__setattr__(self, "outputs", tuple(self.outputs))
        _check_range(self.axis1, self.range1)
        if self.axis2 is not None:
            if self.axis2 == self.axis1:
                raise ValueError(f"axis1 and axis2 are both {self.axis1!r}")
            if self.range2 is None:
                raise ValueError("axis2 given without range2")
            _check_range(self.axis2, self.range2)
        elif self.range2 is not None:
            raise ValueError("range2 given without axis2")
        if not self.outputs:
            raise ValueError("at least one output quantity is required")
        for name in self.outputs:
            if name not in QUANTITIES:
                raise ValueError(
                    f"unknown output {name!r}; valid: {', '.join(QUANTITIES)}"
                )
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate output quantities")


@dataclass(frozen=True, slots=True)
class GridRow:
    """One grid point: axis values and output values.

    values is None when the point is unstable; stable rows carry one float
    per requested output, in spec order.
    """

    axis1_value: float
    axis2_value: float | None
    values: tuple[float, ...] | None

    @property
    def stable(self) -> bool:
        return self.values is not None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[GridRow, ...]

    def column(self, name: str) -> list[float | None]:
        """Values of one output across all rows (None on unstable rows)."""
        if name not in self.spec.outputs:
            raise ValueError(f"unknown output {name!r}; this sweep's outputs: "
                             f"{', '.join(self.spec.outputs)}")
        index = self.spec.outputs.index(name)
        return [row.values[index] if row.stable else None for row in self.rows]


def _check_range(axis, rng):
    get_axis(axis)  # rejects an unknown axis name
    try:
        lo, hi, count = rng
    except (TypeError, ValueError):
        raise ValueError(f"{axis}: range must be (min, max, count), got {rng!r}") from None
    if not all(isinstance(x, numbers.Real) for x in (lo, hi, count)):
        raise ValueError(f"{axis}: range (min, max, count) must be numbers, got {rng!r}")
    if not math.isfinite(count) or int(count) != count or count < 2:
        raise ValueError(f"{axis}: grid needs at least 2 points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{axis}: range bounds must be finite, got {lo} and {hi}")
    if not lo < hi:
        raise ValueError(f"{axis}: range min {lo} must be below max {hi}")


def steady_state(point: FixedPoint):
    """Drift, diffusion and steady-state covariance at one operating point.

    Raises UnstableSystemError when the drift has no steady state.
    """
    drift = _stable_drift(point)
    env = Environment.from_temperature(point.temperature, point.params)
    diffusion = build_diffusion(point.params, point.drive, env)
    return drift, diffusion, solve_lyapunov(drift, diffusion)


def point_quantities(cm) -> dict[str, float]:
    """Every quantity of a steady state, in the order ``cavmag point`` prints."""
    return {name: values[0] for name, values in quantities(cm.v, POINT_QUANTITIES).items()}


def axis_values(rng) -> list[float]:
    """Grid values of one axis range (min, max, count), both ends included."""
    lo, hi, count = rng
    return np.linspace(lo, hi, int(count)).tolist()


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, axis1-major then axis2, deterministically.

    The grid is evaluated one line at a time: the axis2 values at one
    axis1 value, or all of axis1 in a 1D sweep.  Each stage runs over the
    line before the next (_line_values):

    - drift: each point builds its drift and checks its stability, as
      steady_state does (_stable_drift), and an unstable point raises.
      Where every point of the line has the first point's SystemParams,
      the drift's only input, this is done once.
    - noise: dynamics._diffusions builds D at the line's points as
      build_diffusion builds it at one point: every entry, warning and
      error is build_diffusion's, and D is checked once per distinct
      cavity block.
    - solve: each point is solved with solve_lyapunov, or, on a line with
      one drift, from that drift's one Schur factor as solve_lyapunov
      solves it, to the same bits (steadystate._one_drift_solves), whose
      screen raises for the line if a point fails solve_lyapunov's check.
    - measures: one measures.quantities call for the line's points.

    A line that raises, at an unstable point too, is evaluated again by
    the per-point pipeline it reproduces (axis.apply, steady_state,
    quantities), the one source of unstable rows: a point without a
    steady state gives an unstable row, the first point that raises
    otherwise propagates, its message prefixed by its coordinates.  Both
    paths warn from the one place in dynamics._diffusion_stack, so a
    warning the line has shown is not shown again.
    """
    axis1, axis2 = _AXES[spec.axis1], _AXES.get(spec.axis2)
    line_axis = axis2 or axis1
    grid1 = axis_values(spec.range1)
    rows = []
    for v1 in grid1 if axis2 else [None]:
        if axis2 is None:
            base, coordinates = spec.fixed, [(v, None) for v in grid1]
        else:
            try:
                base = axis1.apply(spec.fixed, v1)
            except Exception as exc:
                raise _named(exc, ((axis1, v1),))
            coordinates = [(v1, v2) for v2 in axis_values(spec.range2)]
        line = [c[1] if axis2 else c[0] for c in coordinates]
        try:
            values = _line_values([line_axis.apply(base, v) for v in line], spec.outputs)
        except Exception:
            values = None  # evaluated below, so no point error chains to this one
        if values is None:
            values = [_point_values(line_axis, base, v, spec.outputs,
                                    zip((axis1, axis2), c))
                      for v, c in zip(line, coordinates)]
        rows += [GridRow(c1, c2, row) for (c1, c2), row in zip(coordinates, values)]
    return SweepResult(spec=spec, rows=tuple(rows))


def _named(exc: Exception, coordinates) -> Exception:
    """The same exception, class and traceback kept, its message prefixed
    by the grid point's coordinates."""
    where = ", ".join(f"{axis.column} = {_fmt(v)}" for axis, v in coordinates
                      if v is not None)
    exc.args = (f"{where}: {exc}",)
    return exc


def _point_values(axis, base, value, outputs, coordinates):
    """The output tuple of the point ``axis.apply(base, value)`` by the
    per-point pipeline, None if it is unstable; any other exception is
    named by the point's (axis, value) coordinates."""
    try:
        cm = steady_state(axis.apply(base, value))[2]
        columns = quantities(cm.v, outputs)
    except UnstableSystemError:
        return None
    except Exception as exc:
        raise _named(exc, coordinates)
    return tuple(columns[name][0] for name in outputs)


def _line_values(points, outputs) -> list:
    """Output tuples of a line's points from the four stages of run_sweep;
    whatever a stage raises (UnstableSystemError too) propagates unnamed."""
    # SystemParams is the only input of build_drift.
    one_drift = all(point.params == points[0].params for point in points)
    drifts = [_stable_drift(point) for point in (points[:1] if one_drift else points)]
    d = _diffusions(points)
    if one_drift:
        v = _one_drift_solves(drifts[0], d)
    else:
        v = [solve_lyapunov(drift, _hold(DiffusionMatrix, dk)).v
             for drift, dk in zip(drifts, d)]
    columns = quantities(np.array(v), outputs)
    return list(zip(*(columns[name] for name in outputs)))


def _stable_drift(point):
    """The drift at one point; UnstableSystemError without a steady state."""
    params = point.params
    drift = build_drift(detunings_from(params), params)
    stability_check(drift).require()
    return drift


# ---------------------------------------------------------------------------
# Presets

@dataclass(frozen=True)
class _PresetDef:
    """Axes, outputs and pinned configuration keys of one figure.

    ``resonant`` names the mode-frequency keys set to the final
    ``omega_s_hz``, so the pinned resonance follows the drive.
    """

    axes: tuple[str, ...]
    pins: tuple[tuple[str, float], ...]
    outputs: tuple[str, ...]
    resonant: tuple[str, ...] = ()


_ALL_MODES = ("omega_a_hz", "omega_m1_hz", "omega_m2_hz")

_PRESETS = {
    # Entanglement maps over detunings at two drive strengths.
    "fig2a": _PresetDef(
        axes=("delta_a", "delta_m"),
        pins=(("r", 1.0), ("theta_rad", 0.0), ("temperature_k", 0.02)),
        outputs=("log_negativity", "duan_sum", "mancini_product"),
    ),
    "fig2b": _PresetDef(
        axes=("delta_a", "delta_m"),
        pins=(("r", 2.0), ("theta_rad", 0.0), ("temperature_k", 0.02)),
        outputs=("log_negativity", "duan_sum", "mancini_product"),
    ),
    # Entanglement against temperature at resonance.
    "fig3": _PresetDef(
        axes=("temperature",),
        pins=(("r", 2.0), ("theta_rad", 0.0)),
        outputs=("log_negativity",),
        resonant=_ALL_MODES,
    ),
    # Inseparability sum over detunings; collective variance over drive.
    "fig4a": _PresetDef(
        axes=("delta_a", "delta_m"),
        pins=(("r", 2.0), ("theta_rad", 0.0), ("temperature_k", 0.02)),
        outputs=("duan_sum", "log_negativity", "mancini_product"),
    ),
    "fig4b": _PresetDef(
        axes=("delta_a", "r"),
        pins=(("theta_rad", 0.0), ("temperature_k", 0.02)),
        outputs=("var_Mx", "squeezing_db_Mx"),
        resonant=("omega_m1_hz", "omega_m2_hz"),
    ),
    # Single-magnon quadrature variance maps.
    "fig5a": _PresetDef(
        axes=("delta_a", "delta_m"),
        pins=(("r", 2.0), ("theta_rad", 0.0), ("temperature_k", 0.02)),
        outputs=("var_x1", "squeezing_db_x1"),
    ),
    "fig5b": _PresetDef(
        axes=("r", "theta"),
        pins=(("temperature_k", 0.02),),
        outputs=("var_x1", "squeezing_db_x1"),
        resonant=_ALL_MODES,
    ),
    # Variance against drive and temperature: both samples, one sample
    # (second magnon decoupled, its bath kept), and the collective quadrature.
    "fig6a": _PresetDef(
        axes=("r", "temperature"),
        pins=(("theta_rad", 0.0),),
        outputs=("var_x1", "squeezing_db_x1"),
        resonant=_ALL_MODES,
    ),
    "fig6b": _PresetDef(
        axes=("r", "temperature"),
        pins=(("theta_rad", 0.0), ("g2_hz", 0.0)),
        outputs=("var_x1", "squeezing_db_x1"),
        resonant=_ALL_MODES,
    ),
    "fig6c": _PresetDef(
        axes=("r", "temperature"),
        pins=(("theta_rad", 0.0),),
        outputs=("var_Mx", "squeezing_db_Mx"),
        resonant=_ALL_MODES,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, points: int = DEFAULT_POINTS,
           base: dict[str, float] | None = None,
           overrides: dict[str, float] | None = None) -> SweepSpec:
    """Named sweep configuration.

    ``base`` (e.g. a configuration file) and ``overrides`` (e.g. ``--set``)
    are configuration-key dicts.  The fixed parameter set merges, later
    winning: built-in defaults, ``base``, the figure's pins, ``overrides``.
    A resonant preset sets its pinned mode frequencies to the final
    ``omega_s_hz`` unless ``overrides`` names them.  Axis ranges come from
    the merged set: detuning spans of 3 kappa_a, r up to 3, theta over a
    full period, temperature up to 0.5 K.

    ``overrides`` must not name a key that a swept axis overwrites at every
    grid point (ValueError); ``base`` may, since a full configuration sets
    every key, and the axis replaces it.
    """
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    definition = _PRESETS[name]
    base, overrides = base or {}, overrides or {}
    for axis in definition.axes:
        for key in _AXES[axis].keys:
            if key in overrides:
                raise ValueError(
                    f"{key!r} cannot be overridden: preset {name!r} sweeps "
                    f"axis {axis!r}, which sets it at every grid point; "
                    f"use --range {axis}=MIN:MAX instead"
                )
    omega_s = config.merge(base, overrides)["omega_s_hz"]
    pins = dict(definition.pins, **dict.fromkeys(definition.resonant, omega_s))
    fixed = fixed_from_values(config.merge(base, pins, overrides))
    axis1 = definition.axes[0]
    axis2 = definition.axes[1] if len(definition.axes) > 1 else None
    return SweepSpec(
        axis1=axis1,
        range1=_AXES[axis1].preset_range(fixed, points),
        axis2=axis2,
        range2=_AXES[axis2].preset_range(fixed, points) if axis2 else None,
        fixed=fixed,
        outputs=definition.outputs,
    )


def with_range(spec: SweepSpec, axis: str, lo: float, hi: float) -> SweepSpec:
    """Override the range of one of the sweep's axes, keeping its count."""
    if axis == spec.axis1:
        return replace(spec, range1=(lo, hi, spec.range1[2]))
    if axis == spec.axis2:
        return replace(spec, range2=(lo, hi, spec.range2[2]))
    have = spec.axis1 if spec.axis2 is None else f"{spec.axis1}, {spec.axis2}"
    raise ValueError(f"axis {axis!r} is not swept here (sweep axes: {have})")


# ---------------------------------------------------------------------------
# CSV rendering and post-passes

def _fmt(x: float) -> str:
    return format(x, ".17g")


def format_csv(result: SweepResult) -> str:
    """Render a sweep as CSV: axis columns, one column per output, then the
    stability flag.  17 significant digits, '.' decimal separator, unix
    line endings; unstable rows leave the quantity cells empty."""
    spec = result.spec
    header = [_AXES[axis].column for axis in (spec.axis1, spec.axis2) if axis is not None]
    header += list(spec.outputs) + ["stability"]
    lines = [",".join(header)]
    for row in result.rows:
        cells = [_fmt(row.axis1_value)]
        if spec.axis2 is not None:
            cells.append(_fmt(row.axis2_value))
        if row.stable:
            cells += [_fmt(x) for x in row.values] + ["stable"]
        else:
            cells += [""] * len(spec.outputs) + ["unstable"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def check_certification_chain(csv_text: str) -> list[str]:
    """Post-pass over CSV text: on every stable row, an inseparability
    criterion below its bound must come with positive log negativity.

    Returns a list of violation descriptions (empty when consistent).
    Text without a header line or a log_negativity column has none; a
    header with log_negativity but no stability column, a row whose cell
    count is not the header's and a stable row with a criterion cell that
    is not a number raise ValueError.
    """
    lines = csv_text.splitlines()
    header = lines[0].split(",") if lines else []
    if "log_negativity" not in header:
        return []
    if "stability" not in header:
        raise ValueError("certification chain: the CSV header has no 'stability' column")
    e_col, stability_col = header.index("log_negativity"), header.index("stability")
    bounds = [(name, header.index(name), bound)
              for name, bound in (("duan_sum", DUAN_BOUND), ("mancini_product", MANCINI_BOUND))
              if name in header]
    violations = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"certification chain: line {lineno} has {len(cells)} "
                             f"cells but the header has {len(header)}")
        if cells[stability_col] != "stable":
            continue
        try:
            e_value = float(cells[e_col])
            for name, col, bound in bounds:
                value = float(cells[col])
                if value < bound and not e_value > 0.0:
                    violations.append(
                        f"line {lineno}: {name} = {value} < {bound:g} but "
                        f"log_negativity = {e_value}"
                    )
        except ValueError as exc:
            raise ValueError(f"certification chain: line {lineno}: {exc}") from None
    return violations
