import os
import subprocess
import sys
import warnings

import pytest

import cavmag.sweep
import cavmag.verify
from cavmag.cli import main
from cavmag.dynamics import StabilityReport, UnstableSystemError
from cavmag.verify import CriterionResult, VerificationReport


def test_point_prints_all_measures(capsys):
    assert main(["point"]) == 0
    out = capsys.readouterr().out
    names = [line.split(" = ")[0] for line in out.strip().split("\n")]
    assert names == ["stability", "log_negativity", "nu_minus", "duan_sum",
                     "mancini_product", "var_x1", "var_Mx", "var_my",
                     "squeezing_db_x1", "squeezing_db_Mx"]
    assert "stability = stable\n" in out
    values = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert float(values["log_negativity"]) == pytest.approx(0.8383, abs=1e-3)
    assert float(values["var_my"]) == pytest.approx(0.5, abs=1e-8)


def test_point_respects_set_overrides(capsys):
    assert main(["point", "--set", "r=0"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert float(values["log_negativity"]) == 0.0


def test_point_prints_warnings_on_one_line(capsys):
    # r above the conditioning limit warns from the library; the CLI prints
    # the message alone, stdout is unchanged, and the filters are the test's
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["point", "--set", "r=8"]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: squeezing parameter r = 8")
    assert ".py:" not in captured.err
    assert captured.out.startswith("stability = stable\n")


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--preset", "fig2a", "--points", "5",
                 "--out", str(out_a)]) == 0
    assert main(["sweep", "--preset", "fig2a", "--points", "5",
                 "--out", str(out_b)]) == 0
    data = out_a.read_bytes()
    assert data == out_b.read_bytes()
    header = data.decode("utf-8").split("\n")[0]
    assert header == "delta_a_hz,delta_m_hz,log_negativity,duan_sum,mancini_product,stability"
    assert data.decode("utf-8").count("\n") == 1 + 25  # header + 5x5 rows
    assert b"\r" not in data


def test_sweep_defaults_to_stdout(capsys):
    assert main(["sweep", "--preset", "fig3", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("temperature_k,log_negativity,stability\n")
    assert len(out.strip().split("\n")) == 4


def test_sweep_range_override(capsys):
    assert main(["sweep", "--preset", "fig3", "--points", "3",
                 "--range", "temperature=0:0.1"]) == 0
    out = capsys.readouterr().out
    first_row = out.split("\n")[1]
    last_row = out.strip().split("\n")[-1]
    assert first_row.startswith("0,")
    assert last_row.startswith("0.1")


def test_sweep_set_override_changes_grid(capsys):
    assert main(["sweep", "--preset", "fig3", "--points", "3",
                 "--set", "r=0"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) <= 1e-12


def test_unknown_preset_is_usage_error(capsys):
    assert main(["sweep", "--preset", "fig99"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_set_key_is_usage_error(capsys):
    assert main(["point", "--set", "bogus=1"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_non_finite_set_value_names_the_key(capsys):
    assert main(["point", "--set", "temperature_k=nan"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "'temperature_k' must be finite" in err


def test_bad_range_axis_is_usage_error(capsys):
    assert main(["sweep", "--preset", "fig3", "--points", "3",
                 "--range", "r=0:1"]) == 1
    assert "not swept" in capsys.readouterr().err


def test_malformed_range_is_usage_error(capsys):
    assert main(["sweep", "--preset", "fig3", "--range", "temperature=5"]) == 1
    assert "MIN:MAX" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    assert main(["point", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_config_file_precedence(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("r = 0\n", encoding="utf-8")
    assert main(["point", "--config", str(path)]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().split("\n"))
    assert float(values["log_negativity"]) == 0.0
    # --set beats the file
    assert main(["point", "--config", str(path), "--set", "r=2"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().split("\n"))
    assert float(values["log_negativity"]) > 0.5


def _sweep_csv(capsys, preset, *extra):
    assert main(["sweep", "--preset", preset, "--points", "3", *extra]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("key, value", [("omega_s_hz", "10.001e9"),
                                        ("kappa_a_hz", "1e7")])
@pytest.mark.parametrize("preset", cavmag.sweep.PRESET_NAMES)
def test_set_and_config_file_agree(tmp_path, capsys, preset, key, value):
    # No preset pins omega_s_hz or kappa_a_hz, so --set and a file entry
    # must build the same parameter set: resonance follows omega_s_hz and
    # detuning spans follow kappa_a_hz.
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_file = _sweep_csv(capsys, preset, "--config", str(path))
    from_set = _sweep_csv(capsys, preset, "--set", f"{key}={value}")
    assert from_set == from_file


def test_set_beats_resonance_pin(capsys):
    resonant = _sweep_csv(capsys, "fig3")
    detuned = _sweep_csv(capsys, "fig3", "--set", "omega_a_hz=10.005e9")
    e_resonant = [float(line.split(",")[1]) for line in resonant.split()[1:]]
    e_detuned = [float(line.split(",")[1]) for line in detuned.split()[1:]]
    assert all(d < r for d, r in zip(e_detuned, e_resonant))


def test_set_recouples_single_sample_preset(capsys):
    single = _sweep_csv(capsys, "fig6b")
    coupled = _sweep_csv(capsys, "fig6b", "--set", "g2_hz=20e6")
    assert coupled != single
    assert coupled == _sweep_csv(capsys, "fig6a")


@pytest.mark.parametrize("preset, sets", [
    ("fig5b", ("theta_rad=1", "r=0.5")),
    ("fig3", ("temperature_k=0.3",)),
    ("fig2b", ("omega_a_hz=10.001e9", "omega_m1_hz=9.99e9")),
])
def test_set_on_a_swept_key_is_usage_error(capsys, preset, sets):
    args = ["sweep", "--preset", preset, "--points", "3"]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "--range" in captured.err
    assert any(f"'{item.split('=')[0]}'" in captured.err for item in sets)


def test_config_file_may_set_swept_keys(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("r = 0.5\ntheta_rad = 1\n", encoding="utf-8")
    assert _sweep_csv(capsys, "fig5b", "--config", str(path)) == _sweep_csv(capsys, "fig5b")


@pytest.mark.parametrize("preset, bounds", [
    ("fig3", "temperature=0:inf"),
    ("fig2b", "delta_a=nan:0"),
    ("fig2b", "delta_m=-inf:0"),
])
def test_non_finite_range_names_the_axis(capsys, preset, bounds):
    args = ["sweep", "--preset", preset, "--points", "3", "--range", bounds]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    axis = bounds.split("=")[0]
    assert f"usage error: {axis}: range bounds must be finite" in captured.err


def test_failing_grid_point_is_named_with_unchanged_exit_code(monkeypatch, capsys):
    # Usage error: the magnon detuning makes omega_m1 negative.
    assert main(["sweep", "--preset", "fig2b", "--points", "3",
                 "--range", "delta_m=-2e10:0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "usage error: delta_a_hz = -15000000, delta_m_hz = -20000000000: omega_m1")

    def explode(drift, diffusion):
        raise ArithmeticError("residual exceeds bound")

    monkeypatch.setattr(cavmag.sweep, "solve_lyapunov", explode)
    assert main(["sweep", "--preset", "fig3", "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: temperature_k = 0: "
                            "residual exceeds bound\n")


def test_point_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(fixed):
        raise UnstableSystemError("no steady state")
    monkeypatch.setattr(cavmag.sweep, "steady_state", explode)
    assert main(["point"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_point_unstable_drift_exits_2(monkeypatch, capsys):
    calls = []

    def unstable(drift):
        calls.append(drift)
        return StabilityReport(max_real_part=0.5)

    monkeypatch.setattr(cavmag.sweep, "stability_check", unstable)
    assert main(["point"]) == 2
    assert len(calls) == 1  # the unstable point is evaluated once
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: no steady state: largest drift "
                            "eigenvalue real part is 5.000000e-01\n")


@pytest.mark.parametrize("r", ["355", "400", "800"])
def test_point_overflowing_r_names_r(capsys, r):
    # The cavity noise grows like e^(2r) and leaves the double range near
    # r = 354: a numerical failure that names r, not an errno tuple.
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["point", "--set", f"r={r}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"warning: squeezing parameter r = {r} makes diffusion "
                            f"entries of order e^(2r); steady-state solves may lose "
                            f"accuracy\n"
                            f"numerical failure: squeezing parameter r = {r} overflows "
                            f"the diffusion matrix: its entries of order e^(2r) "
                            f"exceed the largest double\n")


@pytest.mark.parametrize("setting, temperature", [
    ("temperature_k=5e307", "5e+307"),  # finite occupations, overflowing noise entries
    ("temperature_k=1e308", "1e+308"),  # the occupations themselves overflow
    ("omega_m1_hz=1e-300", "0.02"),     # hbar*omega underflows to zero
])
def test_point_bath_overflow_names_the_bath(capsys, setting, temperature):
    assert main(["point", "--set", setting]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerical failure: magnon bath at T = {temperature} K "
                            f"overflows the diffusion matrix: its entries "
                            f"2 kappa_m (n_m + 1/2) exceed the largest double\n")


def test_point_where_k_b_t_underflows_is_the_zero_temperature_point(capsys):
    assert main(["point", "--set", "temperature_k=0"]) == 0
    at_zero = capsys.readouterr()
    assert main(["point", "--set", "temperature_k=1e-310"]) == 0
    assert capsys.readouterr() == at_zero


def test_point_at_large_r_is_never_a_usage_error(capsys):
    # D is positive definite in exact arithmetic at every r.  Where rounding
    # leaves it indefinite (r = 9.5, 10, 10.5, 12 and 18.5 on this grid) the
    # failure is numerical, exit 2, never exit 1.
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in (6.0 + 0.5 * k for k in range(69)):
            codes[r] = main(["point", "--set", f"r={r:g}"])
    capsys.readouterr()
    assert [r for r, code in codes.items() if code not in (0, 2)] == []
    assert all(codes[r] == 2 for r in (9.5, 10.0, 10.5, 12.0, 18.5))


def test_point_diffusion_rounding_message(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["point", "--set", "r=10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("warning: squeezing parameter r = 10 makes diffusion "
                            "entries of order e^(2r); steady-state solves may lose "
                            "accuracy\n"
                            "numerical failure: squeezing parameter r = 10 loses the "
                            "diffusion matrix to rounding: diffusion matrix must be "
                            "positive semidefinite (smallest eigenvalue -1.490e-07)\n")


def test_sweep_certification_violation_writes_no_file(monkeypatch, tmp_path, capsys):
    violation = "line 2: duan_sum = 0.5 < 1 but log_negativity = 0.0"
    monkeypatch.setattr(cavmag.sweep, "check_certification_chain",
                        lambda text: [violation])
    out = tmp_path / "out.csv"
    assert main(["sweep", "--preset", "fig3", "--points", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: internal consistency violated: {violation}\n"
    assert not out.exists()


def test_negative_range_fails_at_its_grid_point(capsys):
    assert main(["sweep", "--preset", "fig3", "--points", "3",
                 "--range", "temperature=-0.1:0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: temperature_k = -0.10000000000000001: "
                            "temperature must be nonnegative, got -0.1\n")


def test_verify_exit_codes(monkeypatch, capsys):
    ok = VerificationReport(results=(
        CriterionResult(number=1, name="demo", passed=True, detail="fine"),))
    bad = VerificationReport(results=(
        CriterionResult(number=1, name="demo", passed=False, detail="off"),))
    monkeypatch.setattr(cavmag.verify, "run_verification", lambda: ok)
    assert main(["verify"]) == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(cavmag.verify, "run_verification", lambda: bad)
    assert main(["verify"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [["sweep", "--preset", "fig3", "--points", "3"],
                                  ["point"]], ids=["sweep", "point"])
def test_closed_stdout_exits_141_quietly(args, unbuffered):
    # The reader of stdout has gone: the conventional SIGPIPE status, and
    # nothing on stderr, not even from the interpreter's final flush.  An
    # unbuffered stdout fails at the first write, a buffered one at the flush.
    src = os.path.dirname(os.path.dirname(cavmag.__file__))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-X", "dev", "-m", "cavmag.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
