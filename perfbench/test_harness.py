"""Tests of the benchmark harness itself.

    python -m pytest -q perfbench/test_harness.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cavmag  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cavmag.model import Environment  # noqa: E402


def _patched_objects():
    objects = [getattr(sys.modules[path], attr) for path, attr, _ in tracing.TARGETS]
    objects.append(Environment.__dict__["from_temperature"])
    objects.append(cavmag.verify.ALL_CHECKS)
    return objects


@pytest.fixture
def small_transient_oracle(monkeypatch):
    monkeypatch.setattr(workloads, "N_TRANSIENTS", 0)
    monkeypatch.setattr(workloads, "N_SYSTEMS", 5)


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_tracing_off_installs_no_wrapper(monkeypatch, small_transient_oracle):
    before = _patched_objects()

    def refuse(self):
        raise AssertionError("a wrapper was installed with tracing off")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    record = worker.run_pass("transient_oracle", seed=3)
    assert record["failed"] == 0 and record["attempted"] == 5
    assert "layers" not in record
    assert all(a is b for a, b in zip(before, _patched_objects()))


def test_tracing_records_spans_and_restores_originals():
    before = _patched_objects()
    with tracing.Tracer() as tracer:
        assert all(a is not b for a, b in zip(before, _patched_objects()))
        text = cavmag.format_csv(cavmag.run_sweep(cavmag.preset("fig2b", points=5)))
        assert cavmag.sweep.check_certification_chain(text) == []
        cavmag.verify.ALL_CHECKS[2]()
    assert all(a is b for a, b in zip(before, _patched_objects()))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["dynamics.stability_checks_per_point"] == 2.0
    assert metrics["steadystate.solves_per_output_point"] == 1.0
    assert metrics["steadystate.solve_lyapunov_us"] > 0.0
    assert metrics["sweep.format_csv_us_per_row"] > 0.0
    assert metrics["verify.check_03_s"] > 0.0
    assert metrics["verify.check_05_s"] == 0.0
    summary = tracer.summary()
    assert summary["sweep.run_sweep"]["calls"] == 1
    sweep = summary["sweep.run_sweep"]
    assert 0.0 < sweep["self_s"] < sweep["total_s"]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    for name, parent, start, end in [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                     ("c", 1, 2.0, 3.0), ("b", 0, 5.0, 6.0)]:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.name_id.append(tracer.names.index(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["c"]["self_s"] == 1.0


def _perturb_first_value(text, factor):
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[3] = format(float(cells[3]) * factor, ".17g")  # duan_sum
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def test_golden_comparison_counts_perturbed_row():
    golden = workloads.golden_fig2b()
    exact = workloads.Outcome()
    workloads.compare_csv(golden, golden, exact)
    assert exact.attempted == 101 * 101 + 1 and exact.failed == 0

    within = workloads.Outcome()
    workloads.compare_csv(_perturb_first_value(golden, 1 + 1e-12), golden, within)
    assert within.failed == 0

    outside = workloads.Outcome()
    workloads.compare_csv(_perturb_first_value(golden, 1 + 1e-9), golden, outside)
    assert outside.failed == 1 and "line 2" in outside.messages[0]

    extra = workloads.Outcome()
    workloads.compare_csv(golden + "1,2,3,4,5,stable\n", golden, extra)
    assert extra.failed == 1


def test_perturbed_solution_counts_as_failure(small_transient_oracle):
    inputs = workloads.transient_oracle_inputs(seed=4)
    output = workloads.transient_oracle_run(inputs)
    assert workloads.transient_oracle_check(inputs, output).failed == 0
    v_schur, v_kron = output["solved"][0]
    output["solved"][0] = (v_schur, v_kron + 1e-8)
    outcome = workloads.transient_oracle_check(inputs, output)
    assert outcome.failed == 1 and outcome.attempted == 5
    output["solved"][1] = ArithmeticError("raised")
    assert workloads.transient_oracle_check(inputs, output).failed == 2


def test_failed_verify_check_counts():
    good = cavmag.verify.CriterionResult(1, "x", True, "")
    bad = cavmag.verify.CriterionResult(2, "y", False, "off")
    report = cavmag.verify.VerificationReport(results=(good, bad))
    outcome = workloads.verify_check({}, report)
    assert outcome.attempted == len(cavmag.verify.ALL_CHECKS)
    assert outcome.failed == len(cavmag.verify.ALL_CHECKS) - 1


def test_seed_drives_inputs(small_transient_oracle):
    a, b = (workloads.transient_oracle_inputs(seed) for seed in (5, 5))
    c = workloads.transient_oracle_inputs(6)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a["systems"], b["systems"]))
    assert not np.array_equal(a["systems"][0][0], c["systems"][0][0])
    assert workloads.fig2b_inputs(5)["sample"] != workloads.fig2b_inputs(6)["sample"]


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |     numpy.core",
        "import time:       500 |       1500 |   numpy",
        "import time:      2000 |       2000 |     scipy.linalg",
        "import time:       300 |       2300 |   scipy",
        "import time:       100 |       3900 | cavmag",
    ])
    assert run.parse_importtime(stderr) == {
        "import.scipy_s": 0.0023, "import.numpy_s": 0.0015, "import.cavmag_s": 0.0039}


def test_upper_percentile():
    assert run.upper_percentile(list(range(10))) is None
    assert run.upper_percentile([float(i) for i in range(1, 21)]) == (50, 10.0)
    pct, value = run.upper_percentile([float(i) for i in range(1, 101)])
    assert (pct, value) == (90, 90.0)


def test_benchmark_json_lists_every_reported_metric():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = list(tracing.layer_metrics(tracing.Tracer()))
    reported += list(run.parse_importtime(""))
    reported += ["trace.wall_s", "trace.overhead_s", "trace.spans_per_pass"]
    assert declared == {name: run.unit_of(name) for name in reported}
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
