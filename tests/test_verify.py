from dataclasses import replace

import numpy as np
import pytest

import cavmag.sweep
from cavmag import config, verify
from cavmag.config import fixed_from_values
from cavmag.dynamics import StabilityReport, UnstableSystemError
from cavmag.sweep import GridRow, SweepResult, SweepSpec, preset, run_sweep


@pytest.fixture
def sweep_calls(monkeypatch):
    """Count the sweeps verify runs, with a fake run_sweep and a clean memo."""
    calls = []

    def fake_run_sweep(spec):
        calls.append(spec)
        return SweepResult(spec=spec, rows=())

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

    monkeypatch.setattr(verify, "check_certification_chain", counting_chain)
    assert verify.check_criterion_consistency().passed
    assert len(sweep_calls) == 2  # fig2a, and fig2b shared with fig4a
    assert len(checked) == 2


@pytest.mark.parametrize("e_value, passed", [(0.0, False), (0.1, True)])
def test_criterion_consistency_flags_chain_violation(monkeypatch, e_value, passed):
    # One stable row with duan_sum < 1: it must come with E > 0.
    spec = SweepSpec(axis1="delta_a", range1=(0.0, 1.0, 2),
                     fixed=preset("fig2b").fixed, outputs=verify._VERIFY_OUTPUTS)
    rows = (GridRow(0.0, None, (e_value, 0.5, 0.3, 0.4)),
            GridRow(1.0, None, None))
    monkeypatch.setattr(verify, "_preset_sweep",
                        lambda name: SweepResult(spec=spec, rows=rows))
    result = verify.check_criterion_consistency()
    assert result.passed is passed
    assert result.detail.startswith(f"{0 if passed else 3} chain violations")


def test_grid_checks_read_coordinates_from_rows(monkeypatch):
    # Real 5 x 5 grids; zero detuning sits off the centre of the delta_a
    # range, so reordering the rows moves it.  Checks 5 and 12 must take
    # every coordinate from the rows, not from the axis1-major layout.
    def small(name, **ranges):
        spec = replace(preset(name, points=5), outputs=verify._VERIFY_OUTPUTS, **ranges)
        return run_sweep(spec)

    sweeps = {"fig2b": small("fig2b", range1=(-1.5e7, 0.5e7, 5)),
              "fig5b": small("fig5b")}
    monkeypatch.setattr(verify, "_preset_sweep", lambda name: sweeps[name])
    in_order = verify.check_phase_invariance()
    assert verify.check_resonance_optimality().passed and in_order.passed
    originals = dict(sweeps)
    for order in (range(24, -1, -1), np.random.default_rng(3).permutation(25)):
        for name, result in originals.items():
            sweeps[name] = replace(result, rows=tuple(result.rows[i] for i in order))
        assert verify.check_resonance_optimality().passed
        assert verify.check_phase_invariance() == in_order


def test_run_verification_numbers_the_checks_in_order(monkeypatch):
    # 5-point grids stand in for the presets.  The tracer's verify.check_NN
    # labels, the acceptance test ids and _POINT_CHECKS below all take a
    # check's number to be its place in ALL_CHECKS.
    monkeypatch.setattr(verify, "preset", lambda name: preset(name, points=5))
    report = verify.run_verification()
    assert [r.number for r in report.results] == list(range(1, 14))


def test_reference_is_the_default_configuration():
    assert verify._reference() == fixed_from_values(config.merge())
    assert verify._reference(r=1.0) == fixed_from_values(config.merge({"r": 1.0}))


# Every check that evaluates an operating point without running a sweep.
_POINT_CHECKS = [verify.ALL_CHECKS[i - 1] for i in (1, 2, 4, 6, 9, 10, 11, 13)]


@pytest.mark.parametrize("check", _POINT_CHECKS, ids=lambda check: check.__name__)
def test_point_checks_raise_when_unstable(monkeypatch, check):
    monkeypatch.setattr(cavmag.sweep, "stability_check",
                        lambda drift: StabilityReport(max_real_part=0.5))
    with pytest.raises(UnstableSystemError, match="^no steady state"):
        check()
