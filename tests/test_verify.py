import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cavmag.sweep
from cavmag import config, verify
from cavmag.config import fixed_from_values
from cavmag.sweep import (SweepResult, axis_values, format_csv, point_quantities, preset,
                          run_sweep, steady_state)


@pytest.fixture
def sweep_calls(monkeypatch):
    """Count the sweeps verify runs, with a fake run_sweep and a clean memo."""
    calls = []

    def fake_run_sweep(spec):
        calls.append(spec)
        grid2 = axis_values(spec.range2) if spec.axis2 else None
        points = spec.range1[2] * (spec.range2[2] if spec.axis2 else 1)
        return SweepResult(spec, axis_values(spec.range1), grid2,
                           np.zeros((points, len(spec.outputs))))

    verify._grid_sweep.cache_clear()
    monkeypatch.setattr(verify, "run_sweep", fake_run_sweep)
    yield calls
    verify._grid_sweep.cache_clear()


def test_presets_on_one_grid_share_one_sweep(sweep_calls):
    # Each preset is swept with its own outputs in POINT_QUANTITIES order,
    # so fig4a's (duan_sum, log_negativity, mancini_product) shares fig2b's
    # sweep, and fig2a and fig2b are swept with the columns `cavmag sweep`
    # writes.
    fig2b = verify._preset_sweep("fig2b")
    assert verify._preset_sweep("fig4a") is fig2b
    assert len(sweep_calls) == 1
    verify._preset_sweep("fig2a")
    verify._preset_sweep("fig5b")
    assert len(sweep_calls) == 3
    assert [spec.outputs for spec in sweep_calls] == [
        preset("fig2b").outputs, preset("fig2a").outputs, preset("fig5b").outputs]
    assert preset("fig4a").outputs != preset("fig2b").outputs


def test_criterion_consistency_checks_each_distinct_grid_once(sweep_calls, monkeypatch):
    # One chain call per grid line of fig2a and of fig2b (shared with
    # fig4a), each with the header `cavmag sweep` writes and one grid line.
    checked = []

    def counting_chain(text):
        checked.append(text)
        return []

    monkeypatch.setattr(cavmag.sweep, "check_certification_chain", counting_chain)
    assert verify.check_criterion_consistency().passed
    assert len(sweep_calls) == 2  # fig2a, and fig2b shared with fig4a
    points = preset("fig2b").range1[2]
    assert len(checked) == 2 * points
    header = "delta_a_hz,delta_m_hz,log_negativity,duan_sum,mancini_product,stability"
    for text in checked:
        lines = text.split("\n")
        assert lines[0] == header and len(lines) == points + 2 and lines[-1] == ""


def _chain_spec(axis2=False):
    spec = preset("fig2b", points=2)
    return replace(spec, axis2=None, range2=None) if not axis2 else spec


@pytest.mark.parametrize("e_value, passed", [(0.0, False), (0.1, True)])
def test_criterion_consistency_flags_chain_violation(monkeypatch, e_value, passed):
    # A 1D result is a single grid line, and is certified: its one row
    # with duan_sum < 1 must come with E > 0.
    spec = _chain_spec()
    values = [(e_value, 0.5, 0.3), (e_value, 1.5, 0.3)]
    monkeypatch.setattr(verify, "_preset_sweep",
                        lambda name: SweepResult(spec, [0.0, 1.0], None, values))
    result = verify.check_criterion_consistency()
    assert result.passed is passed
    assert result.detail.startswith(f"{0 if passed else 3} chain violations")


@pytest.mark.parametrize("line", [0, 2, 4])
def test_criterion_consistency_sees_every_grid_line(monkeypatch, line):
    # A violation planted in one line of a 5 x 4 grid is counted once,
    # whichever line it is in; fig2b and fig4a share one result.
    spec = _chain_spec(axis2=True)
    values = np.tile([0.0, 1.5, 0.3], (20, 1))
    values[4 * line + 1] = (0.0, 0.5, 0.3)
    planted = SweepResult(spec, np.arange(5.0), np.arange(4.0), values)
    clean = SweepResult(spec, np.arange(5.0), np.arange(4.0), np.tile([0.0, 1.5, 0.3], (20, 1)))
    results = {"fig2a": clean, "fig2b": planted, "fig4a": planted}
    monkeypatch.setattr(verify, "_preset_sweep", results.__getitem__)
    result = verify.check_criterion_consistency()
    assert not result.passed
    assert result.detail.startswith("1 chain violations")


def test_criterion_consistency_builds_no_csv_text_of_a_grid(monkeypatch):
    # With its three 41-point grids memoised, check 8 renders and
    # post-checks them a grid line at a time: its peak is below half the
    # CSV text of one grid.
    monkeypatch.setattr(verify, "preset", lambda name: preset(name, points=41))
    verify._grid_sweep.cache_clear()
    try:
        assert verify.check_criterion_consistency().passed
        grid_text = len(format_csv(verify._preset_sweep("fig2b")))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert verify.check_criterion_consistency().passed
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    finally:
        verify._grid_sweep.cache_clear()
    assert peak < 0.5 * grid_text, (peak, grid_text)


def test_grid_checks_read_coordinates_from_the_axes(monkeypatch):
    # Real 5 x 5 grids; zero detuning sits off the centre of the delta_a
    # range, so reordering an axis moves it.  Checks 5 and 12 must take
    # every coordinate from the axis arrays, not from the grid's centre,
    # and must not build the rows.
    def small(name, **ranges):
        spec = replace(preset(name, points=5), **ranges)
        return run_sweep(spec)

    sweeps = {"fig2b": small("fig2b", range1=(-1.5e7, 0.5e7, 5)),
              "fig5b": small("fig5b")}
    monkeypatch.setattr(verify, "_preset_sweep", lambda name: sweeps[name])
    in_order = verify.check_phase_invariance()
    assert verify.check_resonance_optimality().passed and in_order.passed
    originals = dict(sweeps)
    rng = np.random.default_rng(3)
    for order1, order2 in ((range(4, -1, -1), range(4, -1, -1)),
                           (rng.permutation(5), rng.permutation(5))):
        for name, result in originals.items():
            order1, order2 = np.asarray(order1), np.asarray(order2)
            block = result.values.reshape(5, 5, -1)[order1][:, order2].reshape(25, -1)
            sweeps[name] = SweepResult(result.spec, result.axis1[order1],
                                       result.axis2[order2], block)
        assert verify.check_resonance_optimality().passed
        assert verify.check_phase_invariance() == in_order
    assert not any("rows" in vars(result) for result in (*originals.values(),
                                                         *sweeps.values()))


def test_run_verification_numbers_the_checks_in_order(monkeypatch):
    # 5-point grids stand in for the presets.  The tracer's verify.check_NN
    # labels and the acceptance test ids take a check's number to be its
    # place in ALL_CHECKS.
    monkeypatch.setattr(verify, "preset", lambda name: preset(name, points=5))
    report = verify.run_verification()
    assert [r.number for r in report.results] == list(range(1, 14))


def test_reference_is_the_default_configuration():
    # The checks' point quantities are those of the defaults, with the
    # keys they name overridden.
    for keys in ({}, {"r": 1.0}):
        expected = point_quantities(steady_state(fixed_from_values(config.DEFAULTS, keys))[2])
        assert verify._quantities(**keys) == expected
