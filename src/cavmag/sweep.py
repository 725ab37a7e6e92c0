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

import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import config
from .config import fixed_from_values
from .dynamics import (DiffusionMatrix, _diffusions, _hold, build_diffusion, build_drift,
                       stability_check)
from .measures import DUAN_BOUND, MANCINI_BOUND, POINT_QUANTITIES, check_outputs, quantities
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
                  lambda p, n: (0.0, TWO_PI * (n - 1) / n, n)),
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
        check_outputs(self.outputs)
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate output quantities")


@dataclass(frozen=True, slots=True)
class GridRow:
    """One grid point: its axis values and one value per output, in spec
    order (SweepResult.rows)."""

    axis1_value: float
    axis2_value: float | None
    values: tuple[float, ...]

    stable = True  # every point has a steady state; perfbench/workloads.py reads it


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's grid as read-only float64 arrays: the grid values of axis1
    and of axis2 (None in a 1D sweep), and ``values``, one row per grid
    point, axis1-major, with one column per output in ``spec.outputs``
    order.  The constructor copies its arrays and checks their shapes.
    Like the matrix types, a result equals only itself.
    """

    spec: SweepSpec
    axis1: np.ndarray
    axis2: np.ndarray | None
    values: np.ndarray

    def __post_init__(self):
        for name in ("axis1", "axis2", "values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if (self.axis2 is None) != (self.spec.axis2 is None):
            raise ValueError("axis2 values are given exactly when the spec has an axis2")
        axes = (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)
        points = math.prod(axis.size for axis in axes)
        if any(axis.ndim != 1 for axis in axes) or self.values.shape != (
                points, len(self.spec.outputs)):
            raise ValueError(f"values must be one row of {len(self.spec.outputs)} outputs "
                             f"per grid point, got shape {self.values.shape}")

    def column(self, name: str) -> np.ndarray:
        """Values of one output at every grid point, axis1-major (a view)."""
        if name not in self.spec.outputs:
            raise ValueError(f"unknown output {name!r}; this sweep's outputs: "
                             f"{', '.join(self.spec.outputs)}")
        return self.values[:, self.spec.outputs.index(name)]

    def lines(self):
        """The grid one line at a time, axis1-major, each line a result with
        this spec: a 2D result's line at each axis1 value, whose axis1 holds
        that value and whose axis2 is the full axis, or a 1D result, which
        is a single line."""
        if self.axis2 is None:
            yield self
            return
        n = self.axis2.size
        for i in range(self.axis1.size):
            yield SweepResult(self.spec, self.axis1[i:i + 1], self.axis2,
                              self.values[i * n:(i + 1) * n])

    @functools.cached_property
    def rows(self) -> tuple[GridRow, ...]:
        """One GridRow per grid point, axis1-major, built from the arrays
        the first time it is read."""
        axis2 = [None] if self.axis2 is None else self.axis2.tolist()
        points = itertools.product(self.axis1.tolist(), axis2)
        return tuple(GridRow(v1, v2, tuple(row))
                     for (v1, v2), row in zip(points, self.values.tolist()))


def _check_range(axis, rng):
    get_axis(axis)  # rejects an unknown axis name
    try:
        lo, hi, count = rng
    except (TypeError, ValueError):
        raise ValueError(f"{axis}: range must be (min, max, count), got {rng!r}") from None
    if not all(isinstance(x, numbers.Real) for x in (lo, hi, count)):
        raise ValueError(f"{axis}: range (min, max, count) must be numbers, got {rng!r}")
    try:
        span = float(hi) - float(lo)
        float(count)
    except OverflowError:  # an int beyond the largest double
        raise ValueError(f"{axis}: range (min, max, count) must fit in a double") from None
    if not math.isfinite(count) or int(count) != count or count < 2:
        raise ValueError(f"{axis}: grid needs at least 2 points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{axis}: range bounds must be finite, got {lo} and {hi}")
    if not math.isfinite(span):
        raise ValueError(f"{axis}: range span from {lo} to {hi} overflows a double")
    if not lo < hi:
        raise ValueError(f"{axis}: range min {lo} must be below max {hi}")


def steady_state(point: FixedPoint):
    """Drift, diffusion and steady-state covariance at one operating point;
    ArithmeticError where double precision does not resolve the steady state."""
    drift = _stable_drift(point)
    env = Environment.from_temperature(point.temperature, point.params)
    diffusion = build_diffusion(point.params, point.drive, env)
    return drift, diffusion, solve_lyapunov(drift, diffusion)


def point_quantities(cm) -> dict[str, float]:
    """Every quantity of a steady state, in the order ``cavmag point`` prints."""
    return dict(zip(POINT_QUANTITIES, quantities(cm.v, POINT_QUANTITIES).tolist()))


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
      steady_state does (_stable_drift), and a refused drift raises.
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

    A line that raises is evaluated again by the per-point pipeline it
    reproduces (axis.apply, steady_state, quantities): the first point
    that raises propagates, its message prefixed by its coordinates.  Both
    paths warn from the one place in dynamics._diffusion_stack, so a
    warning the line has shown is not shown again.

    Each line's output rows go into one (points x outputs) float64 block,
    which the SweepResult holds next to the two axes' grid values.
    """
    axis1, axis2 = _AXES[spec.axis1], _AXES.get(spec.axis2)
    grid1 = axis_values(spec.range1)
    grid2 = axis_values(spec.range2) if axis2 else None
    line_axis, line = (axis2, grid2) if axis2 else (axis1, grid1)
    points = len(grid1) * len(grid2) if axis2 else len(grid1)
    values = np.empty((points, len(spec.outputs)))
    for i, v1 in enumerate(grid1 if axis2 else [None]):
        if axis2 is None:
            base = spec.fixed
        else:
            try:
                base = axis1.apply(spec.fixed, v1)
            except Exception as exc:
                raise _named(exc, ((axis1, v1),))
        try:
            line_values = _line_values([line_axis.apply(base, v) for v in line], spec.outputs)
        except Exception:
            line_values = None  # evaluated below, so no point error chains to this one
        if line_values is None:
            line_values = [_point_values(line_axis, base, v, spec.outputs,
                                         zip((axis1, axis2), (v1, v) if axis2 else (v, None)))
                           for v in line]
        values[i * len(line):(i + 1) * len(line)] = line_values
    return SweepResult(spec, grid1, grid2, values)


def _named(exc: Exception, coordinates) -> Exception:
    """The same exception, class and traceback kept, its message prefixed
    by the grid point's coordinates."""
    where = ", ".join(f"{axis.column} = {_fmt(v)}" for axis, v in coordinates
                      if v is not None)
    exc.args = (f"{where}: {exc}",)
    return exc


def _point_values(axis, base, value, outputs, coordinates):
    """The output row of the point ``axis.apply(base, value)`` by the per-point
    pipeline; an exception is named by the point's (axis, value) coordinates."""
    try:
        return quantities(steady_state(axis.apply(base, value))[2].v, outputs)
    except Exception as exc:
        raise _named(exc, coordinates)


def _line_values(points, outputs) -> np.ndarray:
    """Output rows of a line's points from the four stages of run_sweep;
    whatever a stage raises propagates unnamed."""
    # SystemParams is the only input of build_drift.
    one_drift = all(point.params == points[0].params for point in points)
    drifts = [_stable_drift(point) for point in (points[:1] if one_drift else points)]
    d = _diffusions(points)
    if one_drift:
        v = _one_drift_solves(drifts[0], d)
    else:
        v = [solve_lyapunov(drift, _hold(DiffusionMatrix, dk)).v
             for drift, dk in zip(drifts, d)]
    return quantities(np.array(v), outputs)


def _stable_drift(point):
    """The drift at one point, refused as StabilityReport.require refuses it."""
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
    fixed = fixed_from_values(base, pins, overrides)
    axis1 = definition.axes[0]
    axis2 = definition.axes[1] if len(definition.axes) > 1 else None
    _check_range(axis1, (0, 1, points))  # the count, before theta's range divides by it
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
    stability flag, kept for format stability ('stable' on every row).
    17 significant digits, '.' decimal separator, unix line endings.
    The rows are rendered from the result's arrays one grid line at a time
    (SweepResult.lines), and the text is joined once, so at its peak it is
    held twice: the lines' strings and the result."""
    spec = result.spec
    axes = [_AXES[axis].column for axis in (spec.axis1, spec.axis2) if axis is not None]
    header = ",".join(axes + list(spec.outputs) + ["stability"])
    row = ",".join(["%.17g"] * (len(axes) + len(spec.outputs))) + ",stable"
    text = [header]
    for line in result.lines():
        points = itertools.product(*(axis.tolist() for axis in (line.axis1, line.axis2)
                                     if axis is not None))
        text.append("\n".join([row % (*point, *cells)
                               for point, cells in zip(points, line.values.tolist())]))
    text.append("")  # the final newline, so the text is joined in one copy
    return "\n".join(text)


def check_certification_chain(csv_text: str) -> list[str]:
    """Post-pass over CSV text: on every data row, an inseparability
    criterion below its bound must come with positive log negativity.

    Returns a list of violation descriptions (empty when consistent).
    Text without a header line or a log_negativity column has none; a row
    whose cell count is not the header's, or with a criterion cell that is
    not a number, raises ValueError naming its line; no other cell is
    read.  A line ends at each '\\n', and any '\\r' that ends a line is
    dropped, so '\\r\\n' text reads as '\\n' text; no other character
    ends a line.  The lines are read one at a time, so no list of them is
    built.
    """
    lines = (m.group().rstrip("\r\n") for m in re.finditer(r"[^\n]*\n|[^\n]+", csv_text))
    header = next(lines, "").split(",")
    if "log_negativity" not in header:
        return []
    e_col = header.index("log_negativity")
    bounds = [(name, header.index(name), bound)
              for name, bound in (("duan_sum", DUAN_BOUND), ("mancini_product", MANCINI_BOUND))
              if name in header]
    violations = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"certification chain: line {lineno} has {len(cells)} "
                             f"cells but the header has {len(header)}")
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
