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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import config
from .dynamics import build_diffusion, build_drift, stability_check
from .measures import (
    DUAN_BOUND,
    MANCINI_BOUND,
    collective_variances,
    duan_sum,
    log_negativity,
    mancini_product,
    reduce_to_magnons,
    squeezing_db,
)
from .model import (
    DriveParams,
    Environment,
    SystemParams,
    TWO_PI,
    detunings_from,
    hz_to_internal,
    internal_to_hz,
)
from .steadystate import solve_lyapunov

QUANTITIES = (
    "log_negativity",
    "duan_sum",
    "mancini_product",
    "var_x1",
    "var_Mx",
    "var_my",
    "squeezing_db_x1",
    "squeezing_db_Mx",
)

DEFAULT_POINTS = 101


@dataclass(frozen=True)
class FixedPoint:
    """One operating point: system parameters, drive and bath temperature."""

    params: SystemParams
    drive: DriveParams
    temperature: float


@dataclass(frozen=True)
class Axis:
    """Everything that defines one sweep axis."""

    column: str                # CSV column heading
    keys: tuple[str, ...]      # configuration keys it sets at every grid point
    apply: Callable[[FixedPoint, float], FixedPoint]  # (point, value) -> point
    preset_range: Callable[[FixedPoint, int], tuple]  # (point, n) -> (min, max, n)
    nonnegative: bool = False  # range minimum must be >= 0


# Appliers run once per grid point, so they build each FixedPoint directly.

def _detune_cavity(p, nu):
    params = replace(p.params, omega_a=p.params.omega_s + hz_to_internal(nu))
    return FixedPoint(params, p.drive, p.temperature)


def _detune_magnons(p, nu):
    omega = p.params.omega_s + hz_to_internal(nu)
    params = replace(p.params, omega_m1=omega, omega_m2=omega)
    return FixedPoint(params, p.drive, p.temperature)


def _detuning_range(p, n):
    span = 3.0 * internal_to_hz(p.params.kappa_a)  # +/- 3 kappa_a as nu in Hz
    return (-span, span, n)


_AXES = {
    "delta_a": Axis("delta_a_hz", ("omega_a_hz",), _detune_cavity, _detuning_range),
    "delta_m": Axis("delta_m_hz", ("omega_m1_hz", "omega_m2_hz"), _detune_magnons,
                    _detuning_range),
    "r": Axis("r", ("r",),
              lambda p, r: FixedPoint(p.params, replace(p.drive, r=r), p.temperature),
              lambda p, n: (0.0, 3.0, n), nonnegative=True),
    "theta": Axis("theta_rad", ("theta_rad",),
                  lambda p, theta: FixedPoint(p.params, replace(p.drive, theta=theta),
                                              p.temperature),
                  lambda p, n: (0.0, TWO_PI * (n - 1) / n, n)),
    "temperature": Axis("temperature_k", ("temperature_k",),
                        lambda p, t: FixedPoint(p.params, p.drive, t),
                        lambda p, n: (0.0, 0.5, n), nonnegative=True),
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


@dataclass(frozen=True)
class GridRow:
    """One grid point: axis values, stability flag and output values.

    values is None when the point is unstable; stable rows carry one float
    per requested output, in spec order.
    """

    axis1_value: float
    axis2_value: float | None
    stable: bool
    values: tuple[float, ...] | None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[GridRow, ...]

    def column(self, name: str) -> list[float | None]:
        """Values of one output across all rows (None on unstable rows)."""
        index = self.spec.outputs.index(name)
        return [row.values[index] if row.stable else None for row in self.rows]


def _check_range(axis, rng):
    definition = get_axis(axis)
    lo, hi, count = rng
    if int(count) != count or count < 2:
        raise ValueError(f"{axis}: grid needs at least 2 points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{axis}: range bounds must be finite, got {lo} and {hi}")
    if not lo < hi:
        raise ValueError(f"{axis}: range min {lo} must be below max {hi}")
    if definition.nonnegative and lo < 0.0:
        raise ValueError(f"{axis}: range min must be nonnegative, got {lo}")


def evaluate_point(point: FixedPoint):
    """Evaluate all quantities at one operating point.

    Returns (stable, quantities): a dict in the order ``cavmag point``
    prints it, or None when no steady state exists.
    """
    params = point.params
    drift = build_drift(detunings_from(params), params)
    if not stability_check(drift).stable:
        return False, None
    env = Environment.from_temperature(point.temperature, params)
    cm = solve_lyapunov(drift, build_diffusion(params, point.drive, env))
    ent = log_negativity(reduce_to_magnons(cm))
    cv = collective_variances(cm)
    var_x1 = float(cm.v[2, 2])
    return True, {
        "log_negativity": ent.log_negativity,
        "nu_minus": ent.nu_minus,
        "duan_sum": duan_sum(cm),
        "mancini_product": mancini_product(cm),
        "var_x1": var_x1,
        "var_Mx": cv.var_Mx,
        "var_my": cv.var_my,
        "squeezing_db_x1": squeezing_db(var_x1),
        "squeezing_db_Mx": squeezing_db(cv.var_Mx),
    }


def _axis_values(rng) -> list[float]:
    lo, hi, count = rng
    return np.linspace(lo, hi, int(count)).tolist()


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, axis1-major then axis2, deterministically.

    An exception raised while a grid point is applied or evaluated
    propagates with its message prefixed by the point's coordinates.
    """
    axis1, axis2 = _AXES[spec.axis1], _AXES.get(spec.axis2)
    grid2 = _axis_values(spec.range2) if axis2 else [None]
    rows = []
    for v1 in _axis_values(spec.range1):
        v2 = None
        try:
            base = axis1.apply(spec.fixed, v1)
            for v2 in grid2:
                point = base if axis2 is None else axis2.apply(base, v2)
                stable, quantities = evaluate_point(point)
                values = tuple([quantities[n] for n in spec.outputs]) if stable else None
                rows.append(GridRow(v1, v2, stable, values))
        except Exception as exc:
            where = ", ".join(f"{axis.column} = {_fmt(v)}"
                              for axis, v in ((axis1, v1), (axis2, v2)) if v is not None)
            # The same object is re-raised, so its class and traceback are kept.
            exc.args = (f"{where}: {exc}",)
            raise
    return SweepResult(spec=spec, rows=tuple(rows))


def single_sample_mode(spec: SweepSpec) -> SweepSpec:
    """Decouple the second magnon (g2 = 0) while keeping its bath present."""
    fixed = replace(spec.fixed, params=replace(spec.fixed.params, g2=0.0))
    return replace(spec, fixed=fixed)


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


def fixed_from_values(values: dict[str, float]) -> FixedPoint:
    """Build the fixed parameter set from a full configuration dict."""
    return FixedPoint(
        params=config.system_params(values),
        drive=config.drive_params(values),
        temperature=values["temperature_k"],
    )


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
    Rows lacking the relevant columns are skipped.
    """
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    try:
        e_col = header.index("log_negativity")
    except ValueError:
        return []
    bounds = [(name, header.index(name), bound)
              for name, bound in (("duan_sum", DUAN_BOUND), ("mancini_product", MANCINI_BOUND))
              if name in header]
    stability_col = header.index("stability")
    violations = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if cells[stability_col] != "stable":
            continue
        e_value = float(cells[e_col])
        for name, col, bound in bounds:
            value = float(cells[col])
            if value < bound and not e_value > 0.0:
                violations.append(
                    f"line {lineno}: {name} = {value} < {bound:g} but "
                    f"log_negativity = {e_value}"
                )
    return violations


def detuning_symmetry_error(result: SweepResult) -> float:
    """Largest asymmetry of the log-negativity grid under simultaneous sign
    flip of both detuning axes.  Only meaningful for 2D detuning sweeps."""
    spec = result.spec
    if spec.axis2 is None or not (
        spec.axis1.startswith("delta") and spec.axis2.startswith("delta")
    ):
        raise ValueError("symmetry check needs a 2D detuning sweep")
    count1, count2 = spec.range1[2], spec.range2[2]
    column = result.column("log_negativity")
    worst = 0.0
    for i in range(count1):
        for j in range(count2):
            a = column[i * count2 + j]
            b = column[(count1 - 1 - i) * count2 + (count2 - 1 - j)]
            if a is None or b is None:
                continue
            worst = max(worst, abs(a - b))
    return worst
