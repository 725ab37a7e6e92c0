import math

import numpy as np
import pytest

import cavmag.sweep as sweep_mod
from cavmag import config
from cavmag.sweep import (
    FixedPoint,
    GridRow,
    SweepResult,
    SweepSpec,
    check_certification_chain,
    detuning_symmetry_error,
    fixed_from_values,
    format_csv,
    preset,
    run_sweep,
    single_sample_mode,
    with_range,
)
from cavmag.dynamics import StabilityReport


def _default_fixed(**overrides):
    return fixed_from_values(config.merge(overrides))


def test_spec_validation():
    fixed = _default_fixed()
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
    with pytest.raises(ValueError, match="nonnegative"):
        SweepSpec(axis1="temperature", range1=(-0.1, 0.5, 3), fixed=fixed,
                  outputs=("log_negativity",))
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="^r: range bounds must be finite"):
            SweepSpec(axis1="r", range1=(lo, hi, 3), fixed=fixed,
                      outputs=("log_negativity",))
        with pytest.raises(ValueError, match="^temperature: range bounds must be finite"):
            SweepSpec(axis1="r", range1=(0, 1, 3), axis2="temperature",
                      range2=(lo, hi, 3), fixed=fixed, outputs=("log_negativity",))


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
    applied = definition.apply(fixed_from_values(config.DEFAULTS), value)
    if definition.column.endswith("_hz"):
        value += config.DEFAULTS["omega_s_hz"]
    expected = fixed_from_values(config.merge(dict.fromkeys(definition.keys, value)))
    got, want = _by_config_key(applied), _by_config_key(expected)
    assert set(got) == set(config.CONFIG_KEYS)
    for key in config.CONFIG_KEYS:
        if key in definition.keys:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
        else:
            assert got[key] == want[key], key


def test_failing_grid_point_names_itself(monkeypatch):
    # The exception keeps its class; its message gains the point's axis
    # columns and values.
    solve = sweep_mod.solve_lyapunov
    calls = []

    def second_solve_fails(drift, diffusion):
        calls.append(drift)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("LAPACK dgees failed (info = 1)")
        return solve(drift, diffusion)

    monkeypatch.setattr(sweep_mod, "solve_lyapunov", second_solve_fails)
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), axis2="theta",
                     range2=(0.0, 1.0, 2), fixed=_default_fixed(), outputs=("var_x1",))
    with pytest.raises(np.linalg.LinAlgError) as info:
        run_sweep(spec)
    assert type(info.value) is np.linalg.LinAlgError
    assert str(info.value) == "r = 0, theta_rad = 1: LAPACK dgees failed (info = 1)"
    # A failure applying axis1 names axis1 alone.
    spec = SweepSpec(axis1="delta_a", range1=(-2e10, 0.0, 2), axis2="r",
                     range2=(0.0, 1.0, 2), fixed=_default_fixed(), outputs=("var_x1",))
    with pytest.raises(ValueError) as info:
        run_sweep(spec)
    assert str(info.value) == ("delta_a_hz = -20000000000: "
                               "omega_a must be nonnegative, got -10000.0")


def test_run_sweep_entanglement_switches_on_with_drive():
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=_default_fixed(),
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
                     fixed=_default_fixed(), outputs=("var_x1",))
    result = run_sweep(spec)
    observed = [(row.axis1_value, row.axis2_value) for row in result.rows]
    assert observed == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0),
                        (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_run_sweep_rows_carry_requested_outputs_in_order():
    spec = SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=_default_fixed(),
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
    spec = preset("fig6b", points=5)
    assert spec.fixed.params.g2 == 0.0
    assert spec.fixed.params.g1 > 0.0


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


def test_single_sample_mode_decouples_second_magnon():
    spec = preset("fig6a", points=5)
    decoupled = single_sample_mode(spec)
    assert decoupled.fixed.params.g2 == 0.0
    assert decoupled.fixed.params.g1 == spec.fixed.params.g1
    assert decoupled.fixed.params.kappa_m2 == spec.fixed.params.kappa_m2


def test_single_sample_squeezing_at_reference_drive():
    # one decoupled sample still inherits several dB of squeezing, close to
    # the collective-quadrature value of the pair
    spec = single_sample_mode(
        SweepSpec(axis1="r", range1=(0.0, 2.0, 2), fixed=_default_fixed(),
                  outputs=("var_x1", "squeezing_db_x1")))
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
    fixed = _default_fixed(g1_hz=0.0, g2_hz=0.0, temperature_k=0.1)
    spec = SweepSpec(axis1="r", range1=(0.0, 0.5, 2), fixed=fixed,
                     outputs=("var_x1",))
    result = run_sweep(single_sample_mode(spec))
    from cavmag.model import Environment
    env = Environment.from_temperature(0.1, fixed.params)
    assert result.rows[0].values[0] == env.n_m1 + 0.5


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


def _unstable_every(monkeypatch, period):
    """Make every period-th grid point's stability test report unstable."""
    calls = []

    def fake_stability_check(drift):
        calls.append(drift)
        if len(calls) % period == 0:
            return StabilityReport(stable=False, max_real_part=1.0)
        return StabilityReport(stable=True, max_real_part=-1.0)

    monkeypatch.setattr(sweep_mod, "stability_check", fake_stability_check)
    return calls


def test_csv_unstable_rows_have_empty_cells(monkeypatch):
    _unstable_every(monkeypatch, 2)
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 4), fixed=_default_fixed(),
                     outputs=("log_negativity", "duan_sum"))
    text = format_csv(run_sweep(spec))
    lines = text.strip().split("\n")
    assert lines[2].endswith(",,,unstable")
    assert lines[1].endswith(",stable")
    unstable_rows = [line for line in lines[1:] if line.endswith("unstable")]
    assert len(unstable_rows) == 2


def test_all_points_unstable_still_completes(monkeypatch):
    calls = _unstable_every(monkeypatch, 1)
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 3), fixed=_default_fixed(),
                     outputs=("log_negativity",))
    result = run_sweep(spec)
    assert len(calls) == 3
    assert len(result.rows) == 3
    assert all(not row.stable and row.values is None for row in result.rows)


def test_certification_chain_clean_on_preset():
    text = format_csv(run_sweep(preset("fig2b", points=9)))
    assert check_certification_chain(text) == []


def test_certification_chain_flags_violations():
    text = ("delta_a_hz,log_negativity,duan_sum,mancini_product,stability\n"
            "0,0,0.5,0.1,stable\n"
            "1,0,1.5,0.5,stable\n"
            "2,0,0.5,0.1,unstable\n")
    violations = check_certification_chain(text)
    assert len(violations) == 2  # duan and mancini on line 2 only
    assert all("line 2" in v for v in violations)


def test_detuning_grid_is_symmetric_under_sign_flip():
    result = run_sweep(preset("fig2b", points=9))
    assert detuning_symmetry_error(result) <= 1e-9


def test_detuning_symmetry_requires_detuning_axes():
    with pytest.raises(ValueError):
        detuning_symmetry_error(run_sweep(preset("fig3", points=3)))


def test_resonance_is_grid_maximum_small_grid():
    result = run_sweep(preset("fig2b", points=9))
    column = result.column("log_negativity")
    values = np.array([v if v is not None else -np.inf for v in column])
    assert values.argmax() == (9 // 2) * 9 + 9 // 2


def test_sweep_result_column_lookup():
    result = run_sweep(preset("fig3", points=3))
    assert len(result.column("log_negativity")) == 3
    with pytest.raises(ValueError):
        result.column("var_x1")  # not an output of this preset


def test_format_csv_round_trip_manual_rows():
    spec = SweepSpec(axis1="r", range1=(0.0, 1.0, 2), fixed=_default_fixed(),
                     outputs=("var_x1",))
    rows = (GridRow(0.0, None, True, (0.123456789012345678,)),
            GridRow(1.0, None, False, None))
    text = format_csv(SweepResult(spec=spec, rows=rows))
    assert text == ("r,var_x1,stability\n"
                    "0,0.12345678901234568,stable\n"
                    "1,,unstable\n")
