import os
import subprocess
import sys
import warnings

import pytest

import cavmag.steadystate
import cavmag.sweep
import cavmag.verify
from cavmag.cli import main
from cavmag.dynamics import StabilityReport, UnstableSystemError
from cavmag.verify import CriterionResult, VerificationReport


def _failure(capsys, code, *args, warns=False):
    """stderr of `cavmag *args`, which must exit with ``code`` and print
    nothing on stdout.  Warnings stay errors unless ``warns``."""
    with warnings.catch_warnings():
        if warns:
            warnings.simplefilter("default")
        assert main(list(args)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


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
    assert "usage error" in _failure(capsys, 1, "sweep", "--preset", "fig99")


def test_bad_set_key_is_usage_error(capsys):
    assert "unknown key" in _failure(capsys, 1, "point", "--set", "bogus=1")


def test_non_finite_set_value_names_the_key(capsys):
    err = _failure(capsys, 1, "point", "--set", "temperature_k=nan")
    assert "usage error" in err and "'temperature_k' must be finite" in err


def test_too_few_points_name_the_first_axis(capsys):
    # fig5b's theta range spans (n - 1)/n of a period; at n = 0 the count
    # check of the first axis, r, must speak before that range divides by n.
    assert _failure(capsys, 1, "sweep", "--preset", "fig5b", "--points", "0") == (
        "usage error: r: grid needs at least 2 points, got 0\n")


def test_bad_range_axis_is_usage_error(capsys):
    assert "not swept" in _failure(capsys, 1, "sweep", "--preset", "fig3", "--points", "3",
                                   "--range", "r=0:1")


def test_malformed_range_is_usage_error(capsys):
    assert "MIN:MAX" in _failure(capsys, 1, "sweep", "--preset", "fig3", "--range",
                                 "temperature=5")


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
    err = _failure(capsys, 1, *args)
    assert "usage error" in err and "--range" in err
    assert any(f"'{item.split('=')[0]}'" in err for item in sets)


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
    err = _failure(capsys, 1, "sweep", "--preset", preset, "--points", "3", "--range", bounds)
    axis = bounds.split("=")[0]
    assert f"usage error: {axis}: range bounds must be finite" in err


def test_failing_grid_point_is_named_with_unchanged_exit_code(monkeypatch, capsys):
    # Usage error: the magnon detuning makes omega_m1 negative.
    assert _failure(capsys, 1, "sweep", "--preset", "fig2b", "--points", "3",
                    "--range", "delta_m=-2e10:0").startswith(
        "usage error: delta_a_hz = -15000000, delta_m_hz = -20000000000: omega_m1")

    def explode(*args):
        raise ArithmeticError("residual exceeds bound")

    # fig3's temperature line shares one drift, factored once, and solves
    # each point from that factor, as solve_lyapunov does on the per-point
    # path: a failure at the first point names that point.
    monkeypatch.setattr(cavmag.steadystate, "_schur_solve", explode)
    assert _failure(capsys, 2, "sweep", "--preset", "fig3", "--points", "3") == (
        "numerical failure: temperature_k = 0: residual exceeds bound\n")
    monkeypatch.setattr(cavmag.sweep, "solve_lyapunov", explode)
    assert _failure(capsys, 2, "sweep", "--preset", "fig2b", "--points", "3") == (
        "numerical failure: delta_a_hz = -15000000, delta_m_hz = -15000000: "
        "residual exceeds bound\n")


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    # A grid too large to allocate (e.g. --points 100000000000) fails in
    # numpy with MemoryError; faked here, so no large grid is allocated.
    def too_large(rng):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cavmag.sweep, "axis_values", too_large)
    assert _failure(capsys, 1, "sweep", "--preset", "fig3", "--points", "3") == (
        "usage error: out of memory: Unable to allocate 745. GiB for an array\n")


@pytest.mark.parametrize("args, message", [
    (("point", "--set", "omega_m2_hz=0", "--set", "temperature_k=0"),
     "omega_m2 must be positive, got 0.0"),
    (("sweep", "--preset", "fig2b", "--points", "3", "--range", "delta_m=-1e10:0"),
     "delta_a_hz = -15000000, delta_m_hz = -10000000000: omega_m1 must be positive, got 0.0"),
], ids=["point", "sweep"])
def test_zero_magnon_frequency_names_the_key(capsys, args, message):
    # SystemParams owns the rule, so the usage error names the field rather
    # than the undefined thermal occupation behind it.
    assert _failure(capsys, 1, *args) == f"usage error: {message}\n"


def test_point_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(fixed):
        raise UnstableSystemError("no steady state")
    monkeypatch.setattr(cavmag.sweep, "steady_state", explode)
    assert "numerical failure" in _failure(capsys, 2, "point")


def test_point_unstable_drift_exits_2(monkeypatch, capsys):
    calls = []

    def unstable(drift):
        calls.append(drift)
        return StabilityReport(max_real_part=0.5)

    monkeypatch.setattr(cavmag.sweep, "stability_check", unstable)
    err = _failure(capsys, 2, "point")
    assert len(calls) == 1  # the unstable point is evaluated once
    assert err == ("numerical failure: no steady state: largest drift "
                   "eigenvalue real part is 5.000000e-01\n")


@pytest.mark.parametrize("r", ["355", "400", "800"])
def test_point_overflowing_r_names_r(capsys, r):
    # The cavity noise grows like e^(2r) and leaves the double range near
    # r = 354: a numerical failure that names r, not an errno tuple.
    assert _failure(capsys, 2, "point", "--set", f"r={r}", warns=True) == (
        f"warning: squeezing parameter r = {r} makes diffusion entries of order e^(2r); "
        f"steady-state solves may lose accuracy\n"
        f"numerical failure: squeezing parameter r = {r} overflows the diffusion matrix: "
        f"its entries of order e^(2r) exceed the largest double\n")


@pytest.mark.parametrize("setting, temperature", [
    ("temperature_k=5e307", "5e+307"),  # finite occupations, overflowing noise entries
    ("temperature_k=1e308", "1e+308"),  # the occupations themselves overflow
    ("omega_m1_hz=1e-300", "0.02"),     # hbar*omega underflows to zero
])
def test_point_bath_overflow_names_the_bath(capsys, setting, temperature):
    assert _failure(capsys, 2, "point", "--set", setting) == (
        f"numerical failure: magnon bath at T = {temperature} K overflows the diffusion "
        f"matrix: its entries 2 kappa_m (n_m + 1/2) exceed the largest double\n")


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
    assert _failure(capsys, 2, "point", "--set", "r=10", warns=True) == (
        "warning: squeezing parameter r = 10 makes diffusion entries of order e^(2r); "
        "steady-state solves may lose accuracy\n"
        "numerical failure: squeezing parameter r = 10 loses the diffusion matrix to "
        "rounding: diffusion matrix must be positive semidefinite (smallest eigenvalue "
        "-1.490e-07)\n")


@pytest.mark.parametrize("setting, warning, message", [
    ("r=10", "warning: squeezing parameter r = 10 makes diffusion entries of order "
             "e^(2r); steady-state solves may lose accuracy\n",
     "squeezing parameter r = 10 loses the diffusion matrix to rounding: diffusion "
     "matrix must be positive semidefinite (smallest eigenvalue -1.490e-07)"),
    ("temperature_k=5e307", "",
     "magnon bath at T = 5e+307 K overflows the diffusion matrix: its entries "
     "2 kappa_m (n_m + 1/2) exceed the largest double"),
], ids=["r=10", "temperature_k=5e307"])
def test_detuning_sweep_diffusion_failure_names_the_first_point(capsys, setting, warning,
                                                                message):
    # The line's noise is built in one stage; the point named, the message
    # and the warning before it are those of the point-by-point path.
    assert _failure(capsys, 2, "sweep", "--preset", "fig2b", "--points", "5",
                    "--set", setting, warns=bool(warning)) == (
        f"{warning}numerical failure: delta_a_hz = -15000000, delta_m_hz = -15000000: "
        f"{message}\n")


def test_large_r_sweep_names_the_point_that_the_per_point_path_names(capsys):
    # Past r = 8 the steady states lose precision; a fixed-drift line solves
    # each point as `cavmag point` does, so the refused point is the same.
    assert _failure(capsys, 2, "sweep", "--preset", "fig5b", "--points", "7",
                    "--range", "r=8:12", warns=True).splitlines()[-1] == (
        "numerical failure: r = 8.6666666666666661, theta_rad = 0.89759790102565518: "
        "symplectic spectrum has imaginary residue 3.684e-06; the matrix is not a "
        "physical covariance")


@pytest.mark.parametrize("setting, warning, scale", [
    ("temperature_k=1e300", "", "2.876e-302"),
    ("r=336", "warning: squeezing parameter r = 336 makes diffusion entries of order "
              "e^(2r); steady-state solves may lose accuracy\n", "4.220e-294"),
], ids=["temperature_k=1e300", "r=336"])
def test_point_refuses_a_rescaled_schur_solve(capsys, setting, warning, scale):
    # dtrsyl lowers its scale below 1 only where the solution would
    # overflow; the rescaled solution is refused, not printed.
    assert _failure(capsys, 2, "point", "--set", setting, warns=bool(warning)) == (
        f"{warning}numerical failure: solve_lyapunov: dtrsyl scaled the solution by "
        f"{scale} to avoid overflow; the diffusion is too large for a double-precision "
        f"solve\n")


def test_sweep_certification_violation_writes_no_file(monkeypatch, tmp_path, capsys):
    violation = "line 2: duan_sum = 0.5 < 1 but log_negativity = 0.0"
    monkeypatch.setattr(cavmag.sweep, "check_certification_chain",
                        lambda text: [violation])
    out = tmp_path / "out.csv"
    assert _failure(capsys, 2, "sweep", "--preset", "fig3", "--points", "3",
                    "--out", str(out)) == (
        f"numerical failure: internal consistency violated: {violation}\n")
    assert not out.exists()


def test_negative_range_fails_at_its_grid_point(capsys):
    assert _failure(capsys, 1, "sweep", "--preset", "fig3", "--points", "3",
                    "--range", "temperature=-0.1:0.5") == (
        "usage error: temperature_k = -0.10000000000000001: temperature must be "
        "nonnegative, got -0.1\n")


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
                                  ["point"], ["--help"], ["sweep", "--help"]],
                         ids=["sweep", "point", "help", "sweep-help"])
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
