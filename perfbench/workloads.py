"""The benchmark's workloads: seeded inputs, the timed call sequence, and
the checks that decide which operations failed.

Each workload is three functions.  ``inputs(seed)`` builds everything the
package is handed, outside the timed region.  ``run(inputs)`` is the timed
sequence of public cavmag calls.  ``check(inputs, output)`` returns an
``Outcome``: operations attempted, operations failed, and the first few
failure messages.  An operation is a grid point, a verify check, a
transient or an oracle system; it fails when it raised or when its output
is outside the reference tolerance.

Tolerances are the package's own (``RESIDUAL_RTOL``) or the ones its
reference checks use (backend gap 1e-9 in verify check 9, transient gap
1e-6 in check 10).  None is loosened here.
"""

from __future__ import annotations

import lzma
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import cavmag
from cavmag.steadystate import RESIDUAL_RTOL

GOLDEN_FIG2B = Path(__file__).resolve().parent / "golden" / "fig2b.csv.xz"

# Relative tolerance of a fig2b cell against the golden CSV.
GOLDEN_RTOL = 1e-10
# Entrywise gap allowed between the two Lyapunov backends (verify check 9).
BACKEND_GAP = 1e-9
# Entrywise gap allowed between the RK4 transient and the steady state
# (verify check 10).
TRANSIENT_GAP = 1e-6

FIG2B_SAMPLE = 24          # grid points re-solved by the Kronecker oracle
N_TRANSIENTS = 3           # operating points propagated from vacuum
N_SYSTEMS = 1500           # random non-structured stable systems
MAX_FAILURE_MESSAGES = 5


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(message)


def _residual_ratio(a, d, v):
    return float(np.abs(a @ v + v @ a.T + d).max()) / float(np.abs(d).max())


def _detuned(params, delta_a, delta_m):
    """Parameters with cavity and common magnon detunings (internal units)."""
    return replace(params, omega_a=params.omega_s + delta_a,
                   omega_m1=params.omega_s + delta_m,
                   omega_m2=params.omega_s + delta_m)


# ---------------------------------------------------------------------------
# fig2b: the `cavmag sweep --preset fig2b` sequence on the 101 x 101 grid.

def fig2b_inputs(seed):
    spec = cavmag.preset("fig2b")
    n_points = spec.range1[2] * spec.range2[2]
    sample = np.random.default_rng(seed).choice(n_points, FIG2B_SAMPLE, replace=False)
    return {"spec": spec, "sample": sorted(int(k) for k in sample)}


def fig2b_run(inputs):
    result = cavmag.run_sweep(inputs["spec"])
    text = cavmag.format_csv(result)
    violations = cavmag.sweep.check_certification_chain(text)
    return {"result": result, "text": text, "violations": violations}


def fig2b_operations(inputs):
    spec = inputs["spec"]
    return spec.range1[2] * spec.range2[2] + len(inputs["sample"]) + 3


def golden_fig2b() -> str:
    with lzma.open(GOLDEN_FIG2B, "rt", encoding="utf-8", newline="") as handle:
        return handle.read()


def _cell_matches(value: str, golden: str) -> bool:
    if value == golden:
        return True
    try:
        x, g = float(value), float(golden)
    except ValueError:
        return False
    return abs(x - g) <= GOLDEN_RTOL * abs(g)


def compare_csv(text: str, golden: str, outcome: Outcome) -> None:
    """One operation per golden data row, every cell within GOLDEN_RTOL,
    and one for the line count."""
    lines, golden_lines = text.split("\n"), golden.split("\n")
    outcome.record(len(lines) == len(golden_lines),
                   f"fig2b: {len(lines)} lines, golden has {len(golden_lines)}")
    header_ok = lines[0] == golden_lines[0]
    for lineno, expected in enumerate(golden_lines[1:-1], start=2):
        got = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        cells, golden_cells = got.split(","), expected.split(",")
        ok = header_ok and len(cells) == len(golden_cells) and all(
            _cell_matches(c, g) for c, g in zip(cells, golden_cells))
        outcome.record(ok, f"fig2b line {lineno}: {got!r} != golden {expected!r}")


def _oracle_point(spec, row):
    """Quantities at one grid point from the Kronecker backend.  They are
    held to BACKEND_GAP, relative to max(1, |value|), against the CSV."""
    params = _detuned(spec.fixed.params, cavmag.hz_to_internal(row.axis1_value),
                      cavmag.hz_to_internal(row.axis2_value))
    env = cavmag.Environment.from_temperature(spec.fixed.temperature, params)
    drift = cavmag.build_drift(cavmag.detunings_from(params), params)
    diffusion = cavmag.build_diffusion(params, spec.fixed.drive, env)
    cm = cavmag.solve_lyapunov_kron(drift, diffusion)
    quantities = {
        "log_negativity":
            cavmag.log_negativity(cavmag.reduce_to_magnons(cm)).log_negativity,
        "duan_sum": cavmag.duan_sum(cm),
        "mancini_product": cavmag.mancini_product(cm),
    }
    return [quantities[name] for name in spec.outputs]


def fig2b_check(inputs, output) -> Outcome:
    outcome = Outcome()
    spec, result, text = inputs["spec"], output["result"], output["text"]
    compare_csv(text, golden_fig2b(), outcome)
    outcome.record(cavmag.format_csv(result) == text,
                   "fig2b: a second render of the same result differs")
    violations = output["violations"]
    outcome.record(not violations, f"fig2b certification chain: {violations[:3]}")
    csv_rows = text.split("\n")
    for k in inputs["sample"]:
        row = result.rows[k]
        try:
            expected = _oracle_point(spec, row)
            cells = [float(c) for c in csv_rows[k + 1].split(",")[2:2 + len(expected)]]
            gap = max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(cells, expected))
            ok, detail = row.stable and gap <= BACKEND_GAP, f"gap {gap:.3e}"
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
            ok, detail = False, repr(exc)
        outcome.record(ok, f"fig2b oracle point {k}: {detail}")
    return outcome


# ---------------------------------------------------------------------------
# verify: the 13 reference checks.

def verify_inputs(seed):
    return {}


def verify_run(inputs):
    return cavmag.run_verification()


def verify_operations(inputs):
    return len(cavmag.verify.ALL_CHECKS)


def verify_check(inputs, report) -> Outcome:
    outcome = Outcome()
    for result in report.results:
        outcome.record(result.passed, f"verify check {result.number}: {result.detail}")
    for _ in range(verify_operations(inputs) - len(report.results)):
        outcome.record(False, "verify: a check produced no result")
    return outcome


# ---------------------------------------------------------------------------
# transient_oracle: RK4 transients against the steady state, and random
# stable systems solved by both backends.

def _rk4_grid(params):
    """Horizon 50/kappa_m and a fixed RK4 step valid for every sampled point.

    ||A||_2 <= kappa_a + max|delta| + hypot(g1, g2) by the triangle
    inequality over the damping, detuning and coupling parts of the drift,
    and |delta| <= 3 kappa_a here; the step keeps dt * ||A|| <= 0.1 as
    propagate_covariance requires.  A fixed step count makes the work of
    every pass the same whatever the seed.
    """
    t_final = 50.0 / params.kappa_m1
    norm_bound = 4.0 * params.kappa_a + math.hypot(params.g1, params.g2)
    n_steps = math.ceil(t_final * norm_bound / 0.1)
    return t_final, t_final / n_steps


def _random_stable_system(rng):
    """Dense drift with every eigenvalue real part at or below -0.5, and a
    PSD diffusion; no structure of build_drift."""
    a = rng.normal(size=(6, 6))
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6)
    b = rng.normal(size=(6, 6))
    return a, b @ b.T


def transient_oracle_inputs(seed):
    rng = np.random.default_rng(seed)
    base, _ = cavmag.default_params()
    span = 3.0 * base.kappa_a
    points = []
    for _ in range(N_TRANSIENTS):
        delta_a, delta_m = rng.uniform(-span, span, size=2)
        drive = cavmag.DriveParams(r=rng.uniform(0.0, 3.0),
                                   theta=rng.uniform(0.0, 2.0 * math.pi))
        points.append((_detuned(base, delta_a, delta_m), drive,
                       rng.uniform(0.0, 0.5)))
    systems = [_random_stable_system(rng) for _ in range(N_SYSTEMS)]
    t_final, dt = _rk4_grid(base)
    return {"points": points, "systems": systems, "t_final": t_final, "dt": dt}


def transient_oracle_run(inputs):
    vacuum = 0.5 * np.eye(6)
    transients = []
    for params, drive, temperature in inputs["points"]:
        try:
            env = cavmag.Environment.from_temperature(temperature, params)
            drift = cavmag.build_drift(cavmag.detunings_from(params), params)
            diffusion = cavmag.build_diffusion(params, drive, env)
            steady = cavmag.solve_lyapunov(drift, diffusion)
            propagated = cavmag.propagate_covariance(
                drift, diffusion, vacuum, inputs["t_final"], inputs["dt"])
            transients.append((drift.a, diffusion.d, steady.v, propagated.v))
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
            transients.append(exc)
    solved = []
    for a, d in inputs["systems"]:
        try:
            solved.append((cavmag.solve_lyapunov(a, d).v,
                           cavmag.solve_lyapunov_kron(a, d).v))
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
            solved.append(exc)
    return {"transients": transients, "solved": solved}


def transient_oracle_operations(inputs):
    return len(inputs["points"]) + len(inputs["systems"])


def transient_oracle_check(inputs, output) -> Outcome:
    outcome = Outcome()
    for i, item in enumerate(output["transients"]):
        if isinstance(item, Exception):
            outcome.record(False, f"transient {i}: {item!r}")
            continue
        a, d, steady, propagated = item
        gap = float(np.abs(propagated - steady).max())
        residual = _residual_ratio(a, d, steady)
        outcome.record(gap <= TRANSIENT_GAP and residual <= RESIDUAL_RTOL,
                       f"transient {i}: gap {gap:.3e}, residual/|D| {residual:.3e}")
    for i, ((a, d), item) in enumerate(zip(inputs["systems"], output["solved"])):
        if isinstance(item, Exception):
            outcome.record(False, f"oracle system {i}: {item!r}")
            continue
        v_schur, v_kron = item
        gap = float(np.abs(v_schur - v_kron).max())
        residual = max(_residual_ratio(a, d, v) for v in item)
        outcome.record(gap <= BACKEND_GAP and residual <= RESIDUAL_RTOL,
                       f"oracle system {i}: gap {gap:.3e}, residual/|D| {residual:.3e}")
    return outcome


@dataclass(frozen=True)
class Workload:
    inputs: object
    run: object
    check: object
    operations: object  # operations a pass attempts; all fail if run raises


WORKLOADS = {
    "fig2b": Workload(fig2b_inputs, fig2b_run, fig2b_check, fig2b_operations),
    "verify": Workload(verify_inputs, verify_run, verify_check, verify_operations),
    "transient_oracle": Workload(transient_oracle_inputs, transient_oracle_run,
                                 transient_oracle_check, transient_oracle_operations),
}
