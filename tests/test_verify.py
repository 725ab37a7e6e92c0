from dataclasses import replace

import numpy as np
import pytest

import cavmag.sweep
from cavmag import config, verify
from cavmag.config import fixed_from_values
from cavmag.sweep import SweepResult, SweepSpec, axis_values, preset, run_sweep


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
    fig2b = verify._preset_sweep("fig2b")
    assert verify._preset_sweep("fig4a") is fig2b
    assert len(sweep_calls) == 1
    verify._preset_sweep("fig2a")
    assert len(sweep_calls) == 2
    assert all(spec.outputs == verify._VERIFY_OUTPUTS for spec in sweep_calls)


def test_criterion_consistency_checks_each_distinct_grid_once(sweep_calls, monkeypatch):
    checked = []

    def counting_chain(text):
        checked.append(text)
        return []

    monkeypatch.setattr(cavmag.sweep, "check_certification_chain", counting_chain)
    assert verify.check_criterion_consistency().passed
    assert len(sweep_calls) == 2  # fig2a, and fig2b shared with fig4a
    assert len(checked) == 2


@pytest.mark.parametrize("e_value, passed", [(0.0, False), (0.1, True)])
def test_criterion_consistency_flags_chain_violation(monkeypatch, e_value, passed):
    # One stable row with duan_sum < 1: it must come with E > 0.
    spec = SweepSpec(axis1="delta_a", range1=(0.0, 1.0, 2),
                     fixed=preset("fig2b").fixed, outputs=verify._VERIFY_OUTPUTS)
    values = [(e_value, 0.5, 0.3, 0.4), (e_value, 1.5, 0.3, 0.4)]
    monkeypatch.setattr(verify, "_preset_sweep",
                        lambda name: SweepResult(spec, [0.0, 1.0], None, values))
    result = verify.check_criterion_consistency()
    assert result.passed is passed
    assert result.detail.startswith(f"{0 if passed else 3} chain violations")


def test_grid_checks_read_coordinates_from_the_axes(monkeypatch):
    # Real 5 x 5 grids; zero detuning sits off the centre of the delta_a
    # range, so reordering an axis moves it.  Checks 5 and 12 must take
    # every coordinate from the axis arrays, not from the grid's centre,
    # and must not build the rows.
    def small(name, **ranges):
        spec = replace(preset(name, points=5), outputs=verify._VERIFY_OUTPUTS, **ranges)
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
    assert verify._reference() == fixed_from_values(config.merge())
    assert verify._reference(r=1.0) == fixed_from_values(config.merge({"r": 1.0}))
