"""In-memory span tracer for the cavmag benchmark.

``Tracer`` replaces public cavmag functions, under the names their callers
look up at call time, with wrappers that record one span per call:
(name, start, end, parent).  ``install`` swaps the wrappers in and
``restore`` puts every original object back.  Nothing in this module
patches anything at import time, so a run with tracing off executes the
package exactly as shipped.

Spans are appended in start order, so a span's parent always has a lower
index.  Self time of a span is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module path, attribute, span name).  Every name through which package
# code or the benchmark reaches a traced function is listed, so that a call
# is recorded no matter which module made it.
TARGETS = (
    ("cavmag.sweep", "build_drift", "dynamics.build_drift"),
    ("cavmag.verify", "build_drift", "dynamics.build_drift"),
    ("cavmag", "build_drift", "dynamics.build_drift"),
    ("cavmag.sweep", "build_diffusion", "dynamics.build_diffusion"),
    ("cavmag.verify", "build_diffusion", "dynamics.build_diffusion"),
    ("cavmag", "build_diffusion", "dynamics.build_diffusion"),
    ("cavmag.sweep", "stability_check", "dynamics.stability_check"),
    ("cavmag.steadystate", "stability_check", "dynamics.stability_check"),
    ("cavmag", "stability_check", "dynamics.stability_check"),
    ("cavmag.sweep", "solve_lyapunov", "steadystate.solve_lyapunov"),
    ("cavmag.verify", "solve_lyapunov", "steadystate.solve_lyapunov"),
    ("cavmag", "solve_lyapunov", "steadystate.solve_lyapunov"),
    ("cavmag.verify", "solve_lyapunov_kron", "steadystate.solve_lyapunov_kron"),
    ("cavmag", "solve_lyapunov_kron", "steadystate.solve_lyapunov_kron"),
    ("cavmag.verify", "propagate_covariance", "steadystate.propagate_covariance"),
    ("cavmag", "propagate_covariance", "steadystate.propagate_covariance"),
    ("cavmag.steadystate", "symplectic_eigenvalues", "measures.symplectic_eigenvalues"),
    ("cavmag.measures", "symplectic_eigenvalues", "measures.symplectic_eigenvalues"),
    ("cavmag", "symplectic_eigenvalues", "measures.symplectic_eigenvalues"),
    ("cavmag.sweep", "reduce_to_magnons", "measures.reduce_to_magnons"),
    ("cavmag.verify", "reduce_to_magnons", "measures.reduce_to_magnons"),
    ("cavmag", "reduce_to_magnons", "measures.reduce_to_magnons"),
    ("cavmag.sweep", "log_negativity", "measures.log_negativity"),
    ("cavmag.verify", "log_negativity", "measures.log_negativity"),
    ("cavmag", "log_negativity", "measures.log_negativity"),
    ("cavmag.sweep", "collective_variances", "measures.collective"),
    ("cavmag.verify", "collective_variances", "measures.collective"),
    ("cavmag", "collective_variances", "measures.collective"),
    ("cavmag.sweep", "duan_sum", "measures.collective"),
    ("cavmag.verify", "duan_sum", "measures.collective"),
    ("cavmag", "duan_sum", "measures.collective"),
    ("cavmag.sweep", "mancini_product", "measures.collective"),
    ("cavmag.verify", "mancini_product", "measures.collective"),
    ("cavmag", "mancini_product", "measures.collective"),
    ("cavmag.sweep", "squeezing_db", "measures.collective"),
    ("cavmag.verify", "squeezing_db", "measures.collective"),
    ("cavmag", "squeezing_db", "measures.collective"),
    ("cavmag.verify", "run_sweep", "sweep.run_sweep"),
    ("cavmag.sweep", "run_sweep", "sweep.run_sweep"),
    ("cavmag", "run_sweep", "sweep.run_sweep"),
    ("cavmag.sweep", "format_csv", "sweep.format_csv"),
    ("cavmag", "format_csv", "sweep.format_csv"),
    ("cavmag.sweep", "check_certification_chain", "sweep.check_certification_chain"),
)

N_CHECKS = 13


def _grid_key(spec):
    """Identity of a sweep grid: everything but the requested outputs."""
    return (spec.axis1, spec.range1, spec.axis2, spec.range2, spec.fixed)


def _grid_points(spec):
    count = int(spec.range1[2])
    return count * int(spec.range2[2]) if spec.axis2 is not None else count


def _rk4_steps(t_final, dt):
    n_steps = int(t_final // dt)
    return n_steps + (1 if t_final - n_steps * dt > 0.0 else 0)


class Tracer:
    """Records spans of traced cavmag calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Work counted at the boundaries: RK4 steps taken, grid points
        # evaluated by run_sweep, rows rendered and rows post-checked.
        self.counts = dict.fromkeys(
            ("rk4_steps", "sweep_points", "csv_rows", "chain_rows"), 0)
        # Distinct sweep grids seen, with their point counts.
        self.grids: dict[tuple, int] = {}

    # -- patching ---------------------------------------------------------

    def install(self):
        from cavmag import verify
        from cavmag.model import Environment

        for path, attr, span in TARGETS:
            module = importlib.import_module(path)
            self._patch(module, attr, self._wrap(getattr(module, attr), span))
        original = Environment.__dict__["from_temperature"]
        self._patch(Environment, "from_temperature",
                    classmethod(self._wrap(original.__func__, "model.from_temperature")),
                    original)
        checks = verify.ALL_CHECKS
        wrapped = tuple(self._wrap(check, f"verify.check_{i:02d}")
                        for i, check in enumerate(checks, start=1))
        self._patch(verify, "ALL_CHECKS", wrapped)
        return self

    def _patch(self, owner, attr, replacement, original=None):
        if original is None:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, span):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter
        on_call = {
            "steadystate.propagate_covariance": self._count_rk4,
            "sweep.run_sweep": self._count_grid,
            "sweep.format_csv": self._count_rows,
            "sweep.check_certification_chain": self._count_lines,
        }.get(span)

        # The clock reads bracket the span bookkeeping, so its cost counts in
        # the traced call's span rather than in its caller's self time.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = clock()
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(t0)
            end.append(t0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[index] = clock()

        return wrapper

    def _count_rk4(self, a, d, v0, t_final, dt):
        self.counts["rk4_steps"] += _rk4_steps(t_final, dt)

    def _count_grid(self, spec):
        points = _grid_points(spec)
        self.counts["sweep_points"] += points
        self.grids[_grid_key(spec)] = points

    def _count_rows(self, result):
        self.counts["csv_rows"] += len(result.rows)

    def _count_lines(self, csv_text):
        self.counts["chain_rows"] += csv_text.count("\n") - 1

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_id, parent, start, end

    def save(self, path):
        """Write every span to an .npz file (names, name_id, parent, start, end)."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def solves_in_sweeps(self):
        """Number of solve_lyapunov spans that ran inside a run_sweep span."""
        if "sweep.run_sweep" not in self._name_ids:
            return 0
        sweep_id = self._name_ids["sweep.run_sweep"]
        solve_id = self._name_ids["steadystate.solve_lyapunov"]
        in_sweep = bytearray(len(self.name_id))
        count = 0
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            inside = nid == sweep_id or (p >= 0 and in_sweep[p] == 1)
            in_sweep[i] = inside
            count += inside and nid == solve_id
        return count


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by benchmark metric name.

    ``*_us`` is mean self time per call in microseconds; a name whose
    function was never called on the workload reads 0.
    """
    summary = tracer.summary()

    def stat(span, key):
        return summary.get(span, {}).get(key, 0)

    def self_us(span):
        calls = stat(span, "calls")
        return 1e6 * stat(span, "self_s") / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    metrics = {
        "model.from_temperature_us": self_us("model.from_temperature"),
        "dynamics.build_drift_us": self_us("dynamics.build_drift"),
        "dynamics.build_diffusion_us": self_us("dynamics.build_diffusion"),
        "dynamics.stability_check_us": self_us("dynamics.stability_check"),
        "dynamics.stability_checks_per_point": ratio(
            stat("dynamics.stability_check", "calls"),
            stat("dynamics.build_drift", "calls")),
        "steadystate.solve_lyapunov_us": self_us("steadystate.solve_lyapunov"),
        "steadystate.solves_per_output_point": ratio(
            tracer.solves_in_sweeps(), sum(tracer.grids.values())),
        "steadystate.solve_lyapunov_kron_us": self_us("steadystate.solve_lyapunov_kron"),
        "steadystate.propagate_covariance_s": stat(
            "steadystate.propagate_covariance", "total_s"),
        "steadystate.rk4_steps": counts["rk4_steps"],
        "measures.log_negativity_us": self_us("measures.log_negativity"),
        "measures.collective_us": self_us("measures.collective"),
        "measures.reduce_to_magnons_us": self_us("measures.reduce_to_magnons"),
        "measures.symplectic_eigenvalues_us": self_us("measures.symplectic_eigenvalues"),
        "sweep.run_sweep_s": stat("sweep.run_sweep", "total_s"),
        "sweep.run_sweep_self_us_per_point": 1e6 * ratio(
            stat("sweep.run_sweep", "self_s"), counts["sweep_points"]),
        "sweep.format_csv_us_per_row": 1e6 * ratio(
            stat("sweep.format_csv", "total_s"), counts["csv_rows"]),
        "sweep.check_certification_chain_us_per_row": 1e6 * ratio(
            stat("sweep.check_certification_chain", "total_s"), counts["chain_rows"]),
    }
    for i in range(1, N_CHECKS + 1):
        metrics[f"verify.check_{i:02d}_s"] = stat(f"verify.check_{i:02d}", "total_s")
    return metrics
