import ast
import importlib
import importlib.util
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import cavmag.sweep as sweep_mod
from _systems import FIXED_DRIFT_PRESETS, per_point_sweep, reference_point
from cavmag import cli, config, dynamics, steadystate
from cavmag.measures import POINT_QUANTITIES, quantities
from cavmag.sweep import (
    GridRow,
    SweepResult,
    SweepSpec,
    check_certification_chain,
    format_csv,
    point_quantities,
    preset,
    run_sweep,
    steady_state,
    with_range,
)


def test_spec_validation():
    fixed = reference_point()
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(axis1="bogus", range1=(0, 1, 3), fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match="both"):
        SweepSpec(axis1="r", range1=(0, 1, 3), axis2="r", range2=(0, 1, 3),
                  fixed=fixed, outputs=("log_negativity",))
    with pytest.raises(ValueError, match="points"):
        SweepSpec(axis1="r", range1=(0, 1, 1), fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match="min"):
        SweepSpec(axis1="r", range1=(1, 0, 3), fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match="output"):
        SweepSpec(axis1="r", range1=(0, 1, 3), fixed=fixed, outputs=("bogus",))
    # A bare name or a non-sequence is not read as a sequence of names.
    for outputs in ("log_negativity", None, 5):
        with pytest.raises(ValueError, match="^outputs must be a sequence of quantity names$"):
            replace(preset("fig3", 3), outputs=outputs)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="^r: range bounds must be finite"):
            SweepSpec(axis1="r", range1=(lo, hi, 3), fixed=fixed,
                      outputs=("log_negativity",))
        with pytest.raises(ValueError, match="^temperature: range bounds must be finite"):
            SweepSpec(axis1="r", range1=(0, 1, 3), axis2="temperature",
                      range2=(lo, hi, 3), fixed=fixed, outputs=("log_negativity",))
    with pytest.raises(ValueError, match="^axis2 given without range2$"):
        SweepSpec(axis1="r", range1=(0, 1, 3), axis2="theta", fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match="^range2 given without axis2$"):
        SweepSpec(axis1="r", range1=(0, 1, 3), range2=(0, 1, 3), fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match="^at least one output quantity is required$"):
        SweepSpec(axis1="r", range1=(0, 1, 3), fixed=fixed, outputs=())
    with pytest.raises(ValueError, match="^duplicate output quantities$"):
        SweepSpec(axis1="r", range1=(0, 1, 3), fixed=fixed,
                  outputs=("var_x1", "duan_sum", "var_x1"))
    # A malformed range is a ValueError that names its axis, whatever its
    # length or the type of the bad entry; the counts and bounds of the
    # messages above keep their words.
    fig3 = preset("fig3", points=3)
    for rng, message in (((0.0, 0.5, math.inf), "grid needs at least 2 points, got inf"),
                         ((0.0, 0.5, math.nan), "grid needs at least 2 points, got nan"),
                         ((0.0, 0.5, None), "range (min, max, count) must be numbers"),
                         ((0.0, 0.5, [3]), "range (min, max, count) must be numbers"),
                         ((0.0, 0.5, "3"), "range (min, max, count) must be numbers"),
                         (("a", 0.5, 3), "range (min, max, count) must be numbers"),
                         ((0, 1), "range must be (min, max, count), got (0, 1)"),
                         ((0, 1, 3, 4), "range must be (min, max, count)"),
                         (None, "range must be (min, max, count), got None")):
        with pytest.raises(ValueError) as info:
            replace(fig3, range1=rng)
        assert str(info.value).startswith(f"temperature: {message}"), rng


def test_grid_row_stability_follows_its_values():
    # Every grid point has a steady state, so every row has its values and
    # is stable.
    assert [f.name for f in fields(GridRow)] == ["axis1_value", "axis2_value", "values"]
    assert GridRow(0.0, 1.0, (0.5,)).stable is True


# One value per axis, away from the default configuration.
_PROBES = {"delta_a": 1.3e6, "delta_m": -2.1e6, "r": 0.7, "theta": 0.9,
           "temperature": 0.13}


def _by_config_key(point):
    """A FixedPoint's values keyed by the configuration key that sets each."""
    values = {f"{name}_hz": value for name, value in vars(point.params).items()}
    values.update(r=point.drive.r, theta_rad=point.drive.theta,
                  temperature_k=point.temperature)
    return values


@pytest.mark.parametrize("axis", sweep_mod.AXES)
def test_axis_keys_match_what_it_applies(axis):
    # Applying an axis value must equal setting exactly the axis's
    # configuration keys: a detuning sets its mode frequencies to
    # omega_s_hz + value.
    definition = sweep_mod.get_axis(axis)
    value = _PROBES[axis]
    applied = definition.apply(reference_point(), value)
    if definition.column.endswith("_hz"):
        value += config.DEFAULTS["omega_s_hz"]
    expected = reference_point(**dict.fromkeys(definition.keys, value))
    got, want = _by_config_key(applied), _by_config_key(expected)
    assert set(got) == set(config.CONFIG_KEYS)
    for key in config.CONFIG_KEYS:
        if key in definition.keys:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
        else:
            assert got[key] == want[key], key


def _spy(monkeypatch, name, fails=None, exc=None, module=sweep_mod):
    """Record the calls of module.<name>; a call for which fails(*args) is
    true raises exc.  A fault that is a function of the point fires again
    when run_sweep evaluates a failing line point by point."""
    real, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args)
        if fails is not None and fails(*args):
            raise exc
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _spy_noise_rows(monkeypatch, fails=None, exc=None):
    """Record the rows (params, drive, n_m1, n_m2, temperature) that
    dynamics._diffusion_stack checks, in the order it reaches them; a row
    for which fails(row) is true raises exc where the builder reaches it."""
    real, rows = dynamics._diffusion_stack, []

    def reached(row):
        rows.append(row)
        if fails is not None and fails(row):
            raise exc
        return row

    monkeypatch.setattr(dynamics, "_diffusion_stack", lambda given: real(map(reached, given)))
    return rows


def test_failing_grid_point_names_itself(monkeypatch):
    # The exception keeps its class; its message gains the point's axis
    # columns and values.  dsyev, the PSD check of a point's cavity noise
    # block, reports a failure on the block at (r, theta) = (0, 1).
    real = dynamics._cavity_block

    def cavity_block(kappa_a, r, theta):
        *entries, info = real(kappa_a, r, theta)
        return (*entries, 1 if (r, theta) == (0.0, 1.0) else info)

    monkeypatch.setattr(dynamics, "_cavity_block", cavity_block)
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), axis2="theta",
                     range2=(0.0, 1.0, 2), fixed=reference_point(), outputs=("var_x1",))
    with pytest.raises(np.linalg.LinAlgError) as info:
        run_sweep(spec)
    assert type(info.value) is np.linalg.LinAlgError
    assert str(info.value) == "r = 0, theta_rad = 1: LAPACK dsyev failed (info = 1)"
    # A failure applying axis1 names axis1 alone.
    spec = SweepSpec(axis1="delta_a", range1=(-2e10, 0.0, 2), axis2="r",
                     range2=(0.0, 1.0, 2), fixed=reference_point(), outputs=("var_x1",))
    with pytest.raises(ValueError) as info:
        run_sweep(spec)
    assert str(info.value) == ("delta_a_hz = -20000000000: "
                               "omega_a must be nonnegative, got -10000.0")


def test_failing_solve_on_a_detuning_line_names_its_point(monkeypatch):
    # The solve fails where the cavity is resonant and the magnons are not.
    def fails(drift, d):
        return drift.a[0, 1] == 0.0 and drift.a[2, 3] != 0.0

    _spy(monkeypatch, "solve_lyapunov", fails,
         np.linalg.LinAlgError("LAPACK dgees failed (info = 1)"))
    spec = SweepSpec(axis1="delta_a", range1=(0.0, 1e6, 2), axis2="delta_m",
                     range2=(0.0, 1e6, 2), fixed=reference_point(), outputs=("var_x1",))
    with pytest.raises(np.linalg.LinAlgError) as info:
        run_sweep(spec)
    assert str(info.value) == ("delta_a_hz = 0, delta_m_hz = 1000000: "
                               "LAPACK dgees failed (info = 1)")


def test_failing_point_solve_names_its_own_point(monkeypatch):
    # A fixed-drift line solves each point from the line's Schur factor, the
    # per-point path through solve_lyapunov: both fail on this point's D.
    point = reference_point(r=1.0, temperature_k=0.15000000000000002)
    d_point = steady_state(point)[1].d

    def fails(factor, d):
        return np.array_equal(d, d_point)

    exc = ArithmeticError("dtrsyl scaled the solution")
    _spy(monkeypatch, "_schur_solve", fails, exc, module=steadystate)
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), axis2="temperature",
                     range2=(0.1, 0.2, 3), fixed=reference_point(), outputs=("var_x1",))
    with pytest.raises(ArithmeticError) as info:
        run_sweep(spec)
    assert str(info.value) == ("r = 1, temperature_k = 0.15000000000000002: "
                               "dtrsyl scaled the solution")


def test_bad_solution_on_a_fixed_drift_line_is_named_by_the_point_solve(monkeypatch):
    # The line's Schur solve returns a V off by 1.0 at the middle point, so
    # its residual fails solve_lyapunov's check.  run_sweep names that
    # point with exactly the error steady_state gives it.
    point = reference_point(temperature_k=0.1)
    d_point = steady_state(point)[1].d
    real = steadystate._schur_solve

    def schur_solve(factor, d):
        return real(factor, d) + (1.0 if np.array_equal(d, d_point) else 0.0)

    monkeypatch.setattr(steadystate, "_schur_solve", schur_solve)
    with pytest.raises(ArithmeticError) as alone:
        steady_state(point)
    assert str(alone.value).startswith("solve_lyapunov: residual ")
    assert " exceeds bound " in str(alone.value)
    spec = SweepSpec(axis1="temperature", range1=(0.0, 0.2, 3), fixed=reference_point(),
                     outputs=("log_negativity",))
    with pytest.raises(ArithmeticError) as info:
        run_sweep(spec)
    assert str(info.value) == f"temperature_k = 0.10000000000000001: {alone.value}"


@pytest.mark.parametrize("k", [0.999, 1.001])
def test_fixed_drift_line_screen_holds_the_residual_bound(monkeypatch, k):
    # The line screen restates solve_lyapunov's residual bound.  The middle
    # point's V is moved by delta E (E symmetric), sized to a residual of
    # k RESIDUAL_RTOL max|D|: just inside the bound the line passes its
    # screen, and just outside it fails and the point is named with
    # steady_state's own error.
    point = reference_point(temperature_k=0.1)
    drift, diffusion, _ = steady_state(point)
    e = np.zeros((6, 6))
    e[2, 4] = e[4, 2] = 1.0
    delta = (k * steadystate.RESIDUAL_RTOL * np.abs(diffusion.d).max()
             / np.abs(drift.a @ e + e @ drift.a.T).max())
    real = steadystate._schur_solve

    def schur_solve(factor, d):
        return real(factor, d) + (delta * e if np.array_equal(d, diffusion.d) else 0.0)

    monkeypatch.setattr(steadystate, "_schur_solve", schur_solve)
    calls = _spy(monkeypatch, "steady_state")
    spec = SweepSpec(axis1="temperature", range1=(0.0, 0.2, 3), fixed=reference_point(),
                     outputs=("log_negativity",))
    if k < 1.0:
        run_sweep(spec)
        assert not calls
        return
    with pytest.raises(ArithmeticError) as alone:
        steady_state(point)
    assert re.match(r"solve_lyapunov: residual .* exceeds bound ", str(alone.value))
    with pytest.raises(ArithmeticError) as info:
        run_sweep(spec)
    assert str(info.value) == f"temperature_k = 0.10000000000000001: {alone.value}"
    assert len(calls) == 2  # the line again, point by point, to the failing point


def test_first_failing_point_of_a_line_is_named(monkeypatch):
    # The line fails at theta = 1 in its noise stage, and its measures fail
    # as a stack; evaluated on its own, theta = 0.5 fails first, in its
    # measures, and that point is named with its own error.
    _spy_noise_rows(monkeypatch, lambda row: row[1].theta == 1.0,
                    ValueError("diffusion at theta = 1"))
    real, alone = sweep_mod.quantities, []

    def second_point_fails(v, names):
        if np.ndim(v) == 3:
            raise ArithmeticError("a stack fails")
        alone.append(v)
        if len(alone) == 2:
            raise ArithmeticError("the second point fails")
        return real(v, names)

    monkeypatch.setattr(sweep_mod, "quantities", second_point_fails)
    spec = SweepSpec(axis1="theta", range1=(0.0, 1.0, 3), fixed=reference_point(r=1.0),
                     outputs=("var_x1",))
    with pytest.raises(ArithmeticError) as info:
        run_sweep(spec)
    assert str(info.value) == "theta_rad = 0.5: the second point fails"


@pytest.mark.parametrize("axis, rng, message", [
    ("temperature", (-0.1, 0.5, 3),
     "temperature_k = -0.10000000000000001: temperature must be nonnegative, got -0.1"),
    ("r", (-1.0, 1.0, 3),
     "r = -1: squeezing parameter r must be nonnegative, got -1.0"),
], ids=["temperature", "r"])
def test_negative_range_fails_at_its_grid_point(axis, rng, message):
    # The model, not the axis, owns the sign rule: the spec is valid and
    # the first grid point is rejected under its coordinates.
    spec = SweepSpec(axis1=axis, range1=rng, fixed=reference_point(),
                     outputs=("log_negativity",))
    with pytest.raises(ValueError) as info:
        run_sweep(spec)
    assert str(info.value) == message


def test_run_sweep_entanglement_switches_on_with_drive():
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=reference_point(),
                     outputs=("log_negativity",))
    result = run_sweep(spec)
    assert len(result.rows) == 2
    assert result.rows[0].axis1_value == 0.0
    assert result.rows[0].values[0] <= 1e-12
    assert result.rows[1].axis1_value == 2.0
    assert result.rows[1].values[0] > 0.5


def test_run_sweep_axis_major_ordering():
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 3),
                     axis2="theta", range2=(0.0, 1.0, 2),
                     fixed=reference_point(), outputs=("var_x1",))
    result = run_sweep(spec)
    observed = [(row.axis1_value, row.axis2_value) for row in result.rows]
    assert observed == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0),
                        (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_run_sweep_rows_carry_requested_outputs_in_order():
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=reference_point(),
                     outputs=("duan_sum", "log_negativity"))
    result = run_sweep(spec)
    assert all(len(row.values) == 2 for row in result.rows)
    assert result.column("duan_sum")[0] == pytest.approx(1.0, abs=1e-9)


def test_preset_fig2b_definition():
    spec = preset("fig2b", points=11)
    assert spec.axis1 == "delta_a" and spec.axis2 == "delta_m"
    assert spec.fixed.drive.r == 2.0
    assert spec.fixed.drive.theta == 0.0
    assert spec.fixed.temperature == 0.02
    assert spec.range1 == (-15e6, 15e6, 11)  # +/- 3 kappa_a as nu in Hz
    assert "log_negativity" in spec.outputs


def test_preset_fig3_definition():
    spec = preset("fig3", points=11)
    assert spec.axis1 == "temperature" and spec.axis2 is None
    assert spec.range1 == (0.0, 0.5, 11)
    assert spec.fixed.drive.r == 2.0
    # zero detunings pinned
    assert spec.fixed.params.omega_a == spec.fixed.params.omega_s
    assert spec.fixed.params.omega_m1 == spec.fixed.params.omega_s


def test_preset_fig5b_definition():
    spec = preset("fig5b", points=11)
    assert (spec.axis1, spec.axis2) == ("r", "theta")
    assert spec.fixed.temperature == 0.02
    lo, hi, count = spec.range2
    assert lo == 0.0 and count == 11
    assert hi == pytest.approx(2 * math.pi * 10 / 11)


def test_preset_fig6b_is_single_sample():
    # the second magnon is decoupled (g2 = 0) and keeps its bath
    fig6a, fig6b = preset("fig6a", points=5), preset("fig6b", points=5)
    assert fig6b.fixed.params == replace(fig6a.fixed.params, g2=0.0)


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="fig2a"):
        preset("fig99")


def test_preset_pins_override_ambient_config_but_set_wins():
    ambient = {"r": 1.5}
    spec = preset("fig2b", points=5, base=ambient)
    assert spec.fixed.drive.r == 2.0  # figure pin beats ambient value
    spec = preset("fig2b", points=5, base=ambient, overrides={"r": 0.7})
    assert spec.fixed.drive.r == 0.7  # explicit override beats the pin


def test_preset_resonance_and_span_follow_final_values():
    # The pinned resonance follows omega_s_hz and the detuning span follows
    # kappa_a_hz, from whichever layer sets them; a mode frequency given as
    # an override beats the resonance pin.
    for layer in ("base", "overrides"):
        spec = preset("fig3", points=3, **{layer: {"omega_s_hz": 10.001e9}})
        params = spec.fixed.params
        assert params.omega_s == 10001.0
        assert params.omega_a == params.omega_m1 == params.omega_m2 == params.omega_s
        spec = preset("fig2a", points=3, **{layer: {"kappa_a_hz": 1e7}})
        assert spec.range1 == (-30e6, 30e6, 3)
    spec = preset("fig3", points=3, overrides={"omega_a_hz": 10.001e9})
    assert spec.fixed.params.omega_a == 10001.0
    assert spec.fixed.params.omega_m1 == spec.fixed.params.omega_s == 10000.0


def test_single_sample_squeezing_at_reference_drive():
    # one decoupled sample still inherits several dB of squeezing, close to
    # the collective-quadrature value of the pair
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=reference_point(g2_hz=0.0),
                     outputs=("var_x1", "squeezing_db_x1"))
    result = run_sweep(spec)
    db = result.column("squeezing_db_x1")[1]  # r = 2 row
    assert db > 5.0
    assert db == pytest.approx(7.166, abs=1e-2)


def test_all_presets_build_and_declare_expected_axes():
    expected = {
        "fig2a": (("delta_a", "delta_m"), "log_negativity"),
        "fig2b": (("delta_a", "delta_m"), "log_negativity"),
        "fig3": (("temperature", None), "log_negativity"),
        "fig4a": (("delta_a", "delta_m"), "duan_sum"),
        "fig4b": (("delta_a", "r"), "var_Mx"),
        "fig5a": (("delta_a", "delta_m"), "var_x1"),
        "fig5b": (("r", "theta"), "var_x1"),
        "fig6a": (("r", "temperature"), "var_x1"),
        "fig6b": (("r", "temperature"), "var_x1"),
        "fig6c": (("r", "temperature"), "var_Mx"),
    }
    for name, (axes, first_output) in expected.items():
        spec = preset(name, points=5)
        assert (spec.axis1, spec.axis2) == axes, name
        assert spec.outputs[0] == first_output, name


def test_single_sample_thermal_variance():
    # with both couplings off and no drive, each magnon is a bare thermal
    # mode: var_x1 = n + 1/2 exactly
    fixed = reference_point(g1_hz=0.0, g2_hz=0.0, temperature_k=0.1)
    spec = SweepSpec(axis1="r", range1=(0.0, 0.5, 2), fixed=fixed,
                     outputs=("var_x1",))
    result = run_sweep(spec)
    from cavmag.model import Environment
    env = Environment.from_temperature(0.1, fixed.params)
    assert result.rows[0].values[0] == env.n_m1 + 0.5


def test_range_whose_span_overflows_a_double_names_its_axis():
    # Finite bounds whose difference is not finite are refused before any
    # grid is built, through the spec and through with_range; a span just
    # below the largest double is a range.
    fixed = reference_point()
    message = re.escape("range span from -1e+308 to 1e+308 overflows a double")
    with pytest.raises(ValueError, match=f"^delta_a: {message}$"):
        SweepSpec(axis1="delta_a", range1=(-1e308, 1e308, 2), fixed=fixed,
                  outputs=("log_negativity",))
    with pytest.raises(ValueError, match=f"^temperature: {message}$"):
        SweepSpec(axis1="r", range1=(0, 1, 3), axis2="temperature",
                  range2=(-1e308, 1e308, 3), fixed=fixed, outputs=("log_negativity",))
    for axis in ("delta_a", "delta_m"):
        with pytest.raises(ValueError, match=f"^{axis}: {message}$"):
            with_range(preset("fig2b", points=2), axis, -1e308, 1e308)
    assert with_range(preset("fig2b", points=2), "delta_a", -8e307, 8e307).range1 == (
        -8e307, 8e307, 2)


def test_range_too_large_for_a_double_names_its_axis():
    # An int bound or count beyond the largest double is a usage error that
    # names its axis, not an OverflowError, and so is an int span that
    # overflows a double.
    spec = preset("fig3", 3)
    for rng in [(0, 10**400, 3), (0, 1, 10**400)]:
        with pytest.raises(ValueError, match=r"^temperature: range \(min, max, count\) "
                                             r"must fit in a double$"):
            replace(spec, range1=rng)
    big = int(1.7e308)
    with pytest.raises(ValueError, match="^temperature: range span from .* overflows a double$"):
        replace(spec, range1=(-big, big, 3))
    # A preset checks the count under its first axis's name before it
    # computes a range from it: fig5b's theta range spans (n - 1)/n of a
    # period, which would overflow first.
    for name in sweep_mod.PRESET_NAMES:
        axis = sweep_mod._PRESETS[name].axes[0]
        with pytest.raises(ValueError, match=rf"^{axis}: range \(min, max, count\) "
                                             r"must fit in a double$"):
            preset(name, points=10**400)


def test_with_range_overrides_axis():
    spec = preset("fig2b", points=5)
    spec = with_range(spec, "delta_m", -5e6, 5e6)
    assert spec.range2 == (-5e6, 5e6, 5)
    with pytest.raises(ValueError, match="not swept"):
        with_range(spec, "temperature", 0.0, 1.0)


def test_preset_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        preset("fig2b", points=5, overrides={"bogus": 1.0})
    with pytest.raises(ValueError, match="unknown key"):
        preset("fig2b", points=5, base={"bogus": 1.0})
    with pytest.raises(ValueError, match="unknown key"):
        config.merge({"bogus": 1})


@pytest.mark.parametrize("name, key", [
    ("fig2b", "omega_a_hz"),
    ("fig2b", "omega_m1_hz"),
    ("fig2b", "omega_m2_hz"),
    ("fig5b", "r"),
    ("fig5b", "theta_rad"),
    ("fig3", "temperature_k"),
])
def test_preset_rejects_overrides_of_swept_keys(name, key):
    # The axis overwrites the key at every grid point, so an override
    # would be silently ignored.
    with pytest.raises(ValueError, match=f"'{key}'.*--range"):
        preset(name, points=3, overrides={key: 0.5})


def test_preset_accepts_swept_keys_from_base():
    # A full configuration file sets every key; the axes replace them.
    base = {"r": 0.5, "theta_rad": 1.0, "temperature_k": 0.3}
    assert (format_csv(run_sweep(preset("fig5b", points=3, base=base)))
            == format_csv(run_sweep(preset("fig5b", points=3))))
    base = {"omega_a_hz": 10.001e9, "omega_m1_hz": 9.99e9, "omega_m2_hz": 9.99e9}
    assert (format_csv(run_sweep(preset("fig2b", points=3, base=base)))
            == format_csv(run_sweep(preset("fig2b", points=3))))


def test_csv_format_and_determinism():
    spec = preset("fig3", points=7)
    first = format_csv(run_sweep(spec))
    second = format_csv(run_sweep(spec))
    assert first == second
    lines = first.split("\n")
    assert lines[0] == "temperature_k,log_negativity,stability"
    assert first.endswith("\n") and "\r" not in first
    assert len(lines) == 1 + 7 + 1  # header + rows + trailing newline
    # 17 significant digits round-trip exactly
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    value = float(cells[1])
    assert format(value, ".17g") == cells[1]
    assert cells[2] == "stable"


@pytest.mark.parametrize("spec, blocks", [
    (preset("fig2b", 5), 5),  # one cavity block per detuning line
    (SweepSpec(axis1="theta", range1=(0.0, 1.0, 4), fixed=reference_point(),
               outputs=("var_x1",)), 4),  # one per point of a theta line
    (preset("fig5b", 3), 9),
], ids=["fig2b", "theta", "fig5b"])
def test_noise_is_checked_once_per_cavity_block(monkeypatch, spec, blocks):
    real, shapes = lapack.dsyev, []

    def dsyev(a, compute_v):
        shapes.append(a.shape)
        return real(a, compute_v=compute_v)

    monkeypatch.setattr(lapack, "dsyev", dsyev)
    run_sweep(spec)
    assert shapes == [(2, 2)] * blocks


def test_certification_chain_clean_on_preset():
    text = format_csv(run_sweep(preset("fig2b", points=9)))
    assert check_certification_chain(text) == []


def test_certification_chain_flags_violations():
    # Every data row is checked, whatever its last cell says.  '\r\n' text
    # reads as '\n' text, and the last line needs no newline.
    lines = ["delta_a_hz,log_negativity,duan_sum,mancini_product,stability",
             "0,0,0.5,0.1,stable",
             "1,0,1.5,0.5,stable",
             "2,0,0.5,0.1,unstable"]
    for ending, last in (("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")):
        assert check_certification_chain(ending.join(lines) + last) == [
            f"line {n}: {name} = {value} < {bound} but log_negativity = 0.0"
            for n in (2, 4) for name, value, bound in (("duan_sum", 0.5, 1),
                                                       ("mancini_product", 0.1, 0.25))]


def test_certification_chain_needs_a_header_but_no_stability_column():
    # Text without a header line has nothing to certify; a header without
    # a stability column is read like any other.
    for text in ("", "\n"):
        assert check_certification_chain(text) == []
    text = "delta_a_hz,log_negativity,duan_sum\n0,0,0.5\n1,0.1,0.5\n"
    assert check_certification_chain(text) == [
        "line 2: duan_sum = 0.5 < 1 but log_negativity = 0.0"]
    # Only '\n' ends a line: any other line break of str.splitlines is a
    # character of its cell, here one the chain does not read.
    for brk in ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        assert check_certification_chain(text.replace("\n0,", f"\n0{brk},")) == [
            "line 2: duan_sum = 0.5 < 1 but log_negativity = 0.0"], repr(brk)


@pytest.mark.parametrize("row, message", [
    ("1,2", "line 3 has 2 cells but the header has 5"),
    ("1,0,0.5,0.1,0,stable", "line 3 has 6 cells but the header has 5"),
    ("1,,0.5,0.1,stable", "line 3: could not convert string to float: ''"),
    ("1,x,0.5,0.1,stable", "line 3: could not convert string to float: 'x'"),
    ("1,0,,0.1,stable", "line 3: could not convert string to float: ''"),
    ("1,0,0.5,-,stable", "line 3: could not convert string to float: '-'"),
    ("0,,,,unstable", "line 3: could not convert string to float: ''"),
    ("", "line 3 has 1 cells but the header has 5"),
])
def test_certification_chain_names_a_malformed_row(row, message):
    # A row must have the header's cells and numbers in the cells the chain
    # reads, whatever its stability flag (a blank line is a row of one
    # cell); line 2, flagged unstable but well formed, is read and passes.
    text = ("delta_a_hz,log_negativity,duan_sum,mancini_product,stability\n"
            "0,1,0.5,0.1,unstable\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        check_certification_chain(text)
    assert str(info.value) == f"certification chain: {message}"


def test_detuning_grid_is_symmetric_under_sign_flip():
    # E is unchanged when both detunings flip sign
    result = run_sweep(preset("fig2b", points=9))
    e = np.array(result.column("log_negativity")).reshape(9, 9)
    assert np.abs(e - e[::-1, ::-1]).max() <= 1e-9


def test_resonance_is_grid_maximum_small_grid():
    result = run_sweep(preset("fig2b", points=9))
    values = np.array(result.column("log_negativity"))
    assert values.argmax() == (9 // 2) * 9 + 9 // 2


def test_sweep_result_column_lookup():
    result = run_sweep(preset("fig3", points=3))
    assert len(result.column("log_negativity")) == 3
    with pytest.raises(ValueError):
        result.column("var_x1")  # not an output of this preset


def test_column_of_a_missing_output_names_the_sweeps_outputs():
    result = run_sweep(preset("fig3", points=3))
    with pytest.raises(ValueError, match="^unknown output 'nu_minus'; this sweep's "
                                         "outputs: log_negativity$"):
        result.column("nu_minus")


def test_format_csv_round_trip_manual_rows():
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), fixed=reference_point(),
                     outputs=("var_x1",))
    text = format_csv(SweepResult(spec, [0.0, 1.0], None, [[0.123456789012345678], [0.25]]))
    assert text == ("r,var_x1,stability\n"
                    "0,0.12345678901234568,stable\n"
                    "1,0.25,stable\n")


# Values whose 17-digit text is easy to get wrong: a signed zero, the
# smallest subnormal, the largest double, non-terminating binary fractions,
# and the first integer a double cannot follow by one.
_EDGE_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53)


@pytest.mark.parametrize("axes", [("temperature",), ("r", "theta")], ids=["1d", "2d"])
def test_format_csv_renders_the_arrays_byte_for_byte(axes):
    outputs = ("var_x1", "duan_sum", "log_negativity")
    grids = [list(_EDGE_VALUES), [-x for x in _EDGE_VALUES[::-1]][:4]][:len(axes)]
    spec = SweepSpec(axis1=axes[0], range1=(0.0, 1.0, 3), fixed=reference_point(),
                     outputs=outputs, axis2=axes[1] if len(axes) > 1 else None,
                     range2=(0.0, 1.0, 3) if len(axes) > 1 else None)
    points = list(itertools.product(*grids))
    values = [[_EDGE_VALUES[(k + j) % 6] * (-1) ** (k + j) for j in range(len(outputs))]
              for k in range(len(points))]
    result = SweepResult(spec, grids[0], grids[1] if len(axes) > 1 else None, values)
    # The byte contract, restated cell by cell.
    header = [sweep_mod.get_axis(axis).column for axis in axes] + list(outputs)
    expected = [",".join(header + ["stability"])] + [
        ",".join(format(x, ".17g") for x in point + tuple(row)) + ",stable"
        for point, row in zip(points, values)]
    assert format_csv(result) == "\n".join(expected) + "\n"
    # rows and column() hold the arrays' floats, signed zeros included.
    def bits(xs):
        return [float(x).hex() for x in xs]

    coordinates = [(row.axis1_value, row.axis2_value)[:len(axes)] for row in result.rows]
    assert [bits(xy + row.values) for xy, row in zip(coordinates, result.rows)] == [
        bits(point + tuple(row)) for point, row in zip(points, values)]
    assert all(row.axis2_value is None for row in result.rows) == (len(axes) == 1)
    for j, name in enumerate(outputs):
        assert bits(result.column(name)) == bits(row[j] for row in values)
    # The arrays are read-only copies, and a result equals only itself.
    with pytest.raises(ValueError, match="read-only"):
        result.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        result.column("duan_sum")[0] = 1.0
    values[0][0] = 7.0
    assert result.values[0, 0] == _EDGE_VALUES[0]
    assert result != SweepResult(spec, result.axis1, result.axis2, result.values)


@pytest.mark.parametrize("axes", [("temperature",), ("r", "theta")], ids=["1d", "2d"])
def test_lines_split_the_grid_axis1_major(axes):
    spec = SweepSpec(axis1=axes[0], range1=(0.0, 1.0, 3), fixed=reference_point(),
                     outputs=("var_x1", "duan_sum"), axis2=axes[1] if len(axes) > 1 else None,
                     range2=(0.0, 1.0, 3) if len(axes) > 1 else None)
    grids = [list(_EDGE_VALUES), [-x for x in _EDGE_VALUES[:4]]][:len(axes)]
    points = math.prod(len(grid) for grid in grids)
    values = np.array([_EDGE_VALUES[k % 6] * (-1) ** k for k in range(2 * points)])
    result = SweepResult(spec, grids[0], grids[1] if len(axes) > 1 else None,
                         values.reshape(points, 2))
    lines = list(result.lines())
    if len(axes) == 1:
        assert lines == [result]  # a 1D result is its one line
    else:
        assert len(lines) == result.axis1.size
        for v1, line in zip(result.axis1, lines):
            assert line.spec is result.spec
            assert line.axis1.tobytes() == np.array([v1]).tobytes()
            assert line.axis2.tobytes() == result.axis2.tobytes()
    assert np.concatenate([line.values for line in lines]).tobytes() == (
        result.values.tobytes())


def test_sweep_result_checks_its_shapes():
    spec = preset("fig3", 3)
    with pytest.raises(ValueError, match="^values must be one row of 1 outputs per grid "
                                         r"point, got shape \(3, 2\)$"):
        SweepResult(spec, [0.0, 0.1, 0.2], None, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="^axis2 values are given exactly when"):
        SweepResult(spec, [0.0, 0.1, 0.2], [0.0], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="^axis2 values are given exactly when"):
        SweepResult(preset("fig5b", 3), [0.0, 0.1, 0.2], None, np.zeros((3, 2)))


def test_sweep_keeps_its_numbers_in_arrays():
    # After a warm-up sweep fills every cache, a 41 x 41 fig2b result keeps
    # at most 64 B per grid point (3 outputs are 24 B as float64), renders
    # and post-checks without building its rows, and the certification
    # pass over its CSV never holds more than the text's size at once.
    spec = preset("fig2b", 41)
    check_certification_chain(format_csv(run_sweep(spec)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_sweep(spec)
        kept = tracemalloc.get_traced_memory()[0] - before
        text = format_csv(result)
        tracemalloc.reset_peak()
        at_text = tracemalloc.get_traced_memory()[0]
        assert check_certification_chain(text) == []
        chain_peak = tracemalloc.get_traced_memory()[1] - at_text
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 41 * 41, kept
    assert chain_peak <= len(text), (chain_peak, len(text))
    assert "rows" not in vars(result)


def test_format_csv_holds_its_text_at_most_twice():
    # The text is joined once, so while it is rendered the lines' strings
    # and the result are alive together, but no third copy.
    result = run_sweep(preset("fig2b", 41))
    format_csv(result)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = format_csv(result)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), (peak, len(text))


def test_sweep_outputs_are_the_point_quantities():
    # every quantity `cavmag point` prints is a sweep output, nu_minus included
    _, _, cm = steady_state(reference_point())
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), fixed=reference_point(),
                     outputs=tuple(point_quantities(cm)))
    assert spec.outputs == POINT_QUANTITIES


@pytest.mark.parametrize("name", ["fig2b", "fig5b"])
def test_sweep_of_every_point_quantity_matches_the_per_point_pipeline(name):
    # A detuning grid and a fixed-drift grid, nu_minus column included.
    spec = replace(preset(name, 7), outputs=POINT_QUANTITIES)
    text = format_csv(run_sweep(spec))
    assert text.split("\n", 1)[0].split(",")[2:-1] == list(POINT_QUANTITIES)
    assert text == format_csv(per_point_sweep(spec))


@pytest.mark.parametrize("outputs", [("var_x1", "foo"), ("foo",)])
def test_sweep_and_quantities_refuse_an_unknown_output_alike(outputs):
    with pytest.raises(ValueError) as spec_error:
        SweepSpec(axis1="r", range1=(0, 1, 3), fixed=reference_point(), outputs=outputs)
    with pytest.raises(ValueError) as quantities_error:
        quantities(steady_state(reference_point())[2].v, outputs)
    assert str(spec_error.value) == str(quantities_error.value) == (
        "unknown output 'foo'; valid: " + ", ".join(POINT_QUANTITIES))


def _run_readme_example(capsys):
    """The README's Python API example, run as printed from its first line
    to its last: the names its low-level pipeline defines, before the
    two-step variant reuses them, and the lines the whole example prints."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    low_level, two_step = block.split("# The same pipeline", 1)
    names = {}
    exec(low_level, names)
    low_level_names = dict(names)
    exec("# The same pipeline" + two_step, names)
    return low_level_names, capsys.readouterr().out.splitlines()


def test_readme_pipeline_is_the_steady_state_of_the_defaults(capsys):
    # The low-level pipeline builds the same arrays as sweep.steady_state
    # and prints the numbers its comments state.
    names, printed = _run_readme_example(capsys)
    drift, diffusion, cm = steady_state(config.fixed_from_values(config.DEFAULTS))
    assert np.array_equal(names["drift"].a, drift.a)
    assert np.array_equal(names["diffusion"].d, diffusion.d)
    assert np.array_equal(names["cm"].v, cm.v)
    log_negativity, squeezing_db = printed[:2]
    assert (f"{float(log_negativity):.3f}", f"{float(squeezing_db):.2f}") == ("0.838", "2.27")


def test_readme_two_step_pipeline_prints_what_cavmag_point_prints(capsys):
    # The example's last line prints the point_quantities dict at r = 1;
    # `cavmag point --set r=1` prints the same values, bit for bit.
    _, printed = _run_readme_example(capsys)
    example = ast.literal_eval(printed[-1])
    assert cli.main(["point", "--set", "r=1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stability = stable"
    point = {name: float(value) for name, value in (line.split(" = ") for line in lines[1:])}
    # Both print every digit that round-trips a double.
    assert list(example) == list(POINT_QUANTITIES)
    assert example == point


@pytest.mark.parametrize("name", FIXED_DRIFT_PRESETS)
def test_fixed_drift_lines_match_the_per_point_pipeline(name):
    spec = preset(name, 15)
    assert format_csv(run_sweep(spec)) == format_csv(per_point_sweep(spec))


def test_detuning_grid_matches_the_per_point_pipeline_byte_for_byte():
    spec = preset("fig2b", 15)
    assert format_csv(run_sweep(spec)) == format_csv(per_point_sweep(spec))


def test_vacuum_line_at_zero_temperature():
    # r = 0 and T = 0: the steady state is the vacuum, and every point of a
    # theta line has the first point's diffusion.
    fixed = reference_point(r=0.0, temperature_k=0.0)
    spec = SweepSpec(axis1="theta", range1=(0.0, 3.0, 4), fixed=fixed,
                     outputs=POINT_QUANTITIES)
    result = run_sweep(spec)
    assert format_csv(result) == format_csv(per_point_sweep(spec))
    assert max(result.column("log_negativity")) <= 1e-12
    assert result.column("var_my")[0] == pytest.approx(0.5, rel=1e-15)
    # The r line from the vacuum.
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 5), fixed=fixed, outputs=POINT_QUANTITIES)
    assert format_csv(run_sweep(spec)) == format_csv(per_point_sweep(spec))


@pytest.mark.parametrize("points", [2, 9])
def test_fixed_drift_line_builds_and_solves_once(monkeypatch, points):
    drifts = _spy(monkeypatch, "build_drift")
    checks = _spy(monkeypatch, "stability_check")
    factors = _spy(monkeypatch, "_schur_factor", module=dynamics)
    solves = _spy(monkeypatch, "_schur_solve", module=steadystate)
    per_point = _spy(monkeypatch, "solve_lyapunov")
    spec = SweepSpec(axis1="temperature", range1=(0.0, 0.5, points),
                     fixed=reference_point(), outputs=("log_negativity",))
    run_sweep(spec)
    # One drift, one check and one Schur factor; one solve per point.
    counts = (len(drifts), len(checks), len(factors), len(solves), len(per_point))
    assert counts == (1, 1, 1, points, 0)
    assert len({id(args[0]) for args in solves}) == 1  # one factor


def test_every_traced_name_resolves():
    # The benchmark tracer patches these names; one that is missing would
    # crash every traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


# The fig2b grid at kappa_m = 1e-3 Hz: a slowest decay rate of 1e-9 in
# internal units, far above the resolution floor, so every line is batched.
_SLOW_MAGNONS = {"kappa_m1_hz": 1e-3, "kappa_m2_hz": 1e-3}


@pytest.mark.parametrize("name, overrides", [
    *((name, {}) for name in sweep_mod.PRESET_NAMES), ("fig2b", _SLOW_MAGNONS),
], ids=[*sweep_mod.PRESET_NAMES, "fig2b-kappa_m=1e-3"])
def test_working_lines_never_take_the_per_point_path(monkeypatch, name, overrides):
    # A failing line is evaluated again by steady_state; a line evaluator
    # that always raised would still give the per-point rows, only slower.
    calls = _spy(monkeypatch, "steady_state")
    run_sweep(preset(name, 7, overrides=overrides))
    assert not calls


def test_line_warnings_show_once_and_errors_stay_errors():
    # fig4b at r = 5, 7, 9 warns for r = 7 and 9 on every line.
    spec = with_range(preset("fig4b", 3), "r", 5.0, 9.0)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        run_sweep(spec)
    assert [str(w.message)[:32] for w in shown] == ["squeezing parameter r = 7 makes ",
                                                     "squeezing parameter r = 9 makes "]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as info:
            run_sweep(spec)
    assert str(info.value).startswith(
        "delta_a_hz = -15000000, r = 7: squeezing parameter r = 7 makes diffusion entries")


def test_a_line_evaluated_point_by_point_shows_no_warning_again(monkeypatch):
    # The first of fig4b's r lines (r = 5, 7, 9) fails its solve and is
    # evaluated again by steady_state, which warns from the same place as
    # the line: each warning still shows once in the whole sweep.
    spec = with_range(preset("fig4b", 3), "r", 5.0, 9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = format_csv(run_sweep(spec))
    real, lines = sweep_mod._one_drift_solves, []

    def first_line_fails(drift, d):
        lines.append(drift)
        if len(lines) == 1:
            raise ArithmeticError("line solve failed")
        return real(drift, d)

    monkeypatch.setattr(sweep_mod, "_one_drift_solves", first_line_fails)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        result = run_sweep(spec)
    assert len(lines) == 3 and format_csv(result) == expected
    assert [str(w.message)[:32] for w in shown] == ["squeezing parameter r = 7 makes ",
                                                     "squeezing parameter r = 9 makes "]
