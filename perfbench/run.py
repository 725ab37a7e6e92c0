"""cavmag benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload fig2b --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository.  Every pass of the
workload runs in its own fresh interpreter (perfbench/worker.py), one at a
time, with OMP/OPENBLAS/MKL_NUM_THREADS=1, so caches start cold the way a
CLI user meets them.  Passes repeat while the next one is expected to end
within --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, the import times and the tracing overhead.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
fail_ratio is failed / attempted.  Lines before it, starting with '#',
give the same figures for a reader plus the machine and provenance block.
The full record, with every sample, goes to .perfbench_out/.

Exit code 0 when the benchmark ran (correct or not), 1 when no untraced
pass completed, 2 when the checkout does not hold the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fig2b", "verify", "transient_oracle")
DEFAULT_SEED = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5       # fresh set-ups per run; setup_s is their median
IMPORT_RUNS = 3      # -X importtime runs per traced run
CHILD_TIMEOUT_S = 150


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    return "us" if "_us" in name else "count"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list[str], env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def _last_json(proc: subprocess.CompletedProcess):
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        return None


def _worker_pass(workload, seed, env, trace_path=None) -> dict:
    args = [str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    try:
        _, proc = _run_child(args, env)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {CHILD_TIMEOUT_S} s"}
    record = _last_json(proc)
    if record is None:
        return {"error": (proc.stderr or proc.stdout)[-2000:]}
    return record


def _setup_time(workload, seed, env) -> tuple[float, dict | None]:
    elapsed, proc = _run_child(
        [str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"], env)
    return elapsed, _last_json(proc)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing scipy and numpy (their modules' self times)
    and the whole cavmag import (its cumulative time), from -X importtime."""
    self_us = {"scipy": 0, "numpy": 0}
    cavmag_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, own, cumulative, name = (part.strip() for part in
                                    line.replace("import time:", "|", 1).split("|"))
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
        if name == "cavmag":
            cavmag_us = int(cumulative)
    return {"import.scipy_s": self_us["scipy"] / 1e6,
            "import.numpy_s": self_us["numpy"] / 1e6,
            "import.cavmag_s": cavmag_us / 1e6}


def _import_times(env) -> dict[str, float]:
    _, proc = _run_child(["-X", "importtime", "-c", "import cavmag"], env)
    return parse_importtime(proc.stderr)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def upper_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # nearest-rank: ceil(p n / 100)
    return pct, ordered[rank - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavmag" / "__init__.py").is_file():
        print(f"no cavmag sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": os.getloadavg()[0],  # from /proc/loadavg
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    env = _child_env()

    setups = []
    for _ in range(SETUP_RUNS):
        elapsed, versions = _setup_time(args.workload, args.seed, env)
        if versions is None:
            print("set-up failed: the package could not be imported", file=sys.stderr)
            return 2
        setups.append(elapsed)
    machine.update(versions)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.npz"
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        untraced.append(_worker_pass(args.workload, args.seed, env))
        if args.trace:
            traced.append(_worker_pass(args.workload, args.seed, env, spans_path))
        spent = time.perf_counter() - begin
        if spent + spent / len(untraced) > args.seconds:
            break

    passes = untraced + traced
    good = [p for p in passes if "error" not in p]
    ops_per_pass = good[0]["attempted"] if good else 1
    attempted = sum(p.get("attempted", ops_per_pass) for p in passes)
    failed = sum(p.get("failed", ops_per_pass) for p in passes)
    messages = [m for p in passes for m in p.get("messages", [])]
    messages += [p["error"] for p in passes if "error" in p]
    digests = [p["csv_sha256"] for p in good if "csv_sha256" in p]
    for digest in digests[1:]:  # repeated runs must render identical bytes
        attempted += 1
        if digest != digests[0]:
            failed += 1
            messages.append("fig2b CSV bytes differ between passes")

    walls = [p["wall_s"] for p in untraced if "error" not in p]
    if not walls:
        for message in messages[:5]:
            print(f"# failure: {message.strip()[-300:]}")
        print("no untraced pass completed; nothing to report", file=sys.stderr)
        return 1
    report = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in untraced if "error" not in p), "MB"),
    }
    layers = {}
    if args.trace:
        imports = [_import_times(env) for _ in range(IMPORT_RUNS)]
        traced_ok = [p for p in traced if "error" not in p]
        for name in (traced_ok[0]["layers"] if traced_ok else {}):
            layers[name] = statistics.median(p["layers"][name] for p in traced_ok)
        for name in imports[0]:
            layers[name] = statistics.median(i[name] for i in imports)
        if traced_ok:
            layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced_ok)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - report["wall_s"][0]
            layers["trace.spans_per_pass"] = statistics.median(p["spans"] for p in traced_ok)
        layers = {name: (value, unit_of(name)) for name, value in layers.items()}

    percentile = upper_percentile(walls)
    correct = failed == 0 and len(good) == len(passes)
    record = {
        "machine": machine,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": messages[:20],
        "setup_samples_s": setups,
        "wall_samples_s": walls,
        "wall_s_upper_percentile": percentile,
        "passes": [{k: v for k, v in p.items() if k != "messages"} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**report, **layers}.items()},
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# machine: {json.dumps(machine)}")
    print(f"# {args.workload}: {len(walls)} untraced passes, {len(traced)} traced, "
          f"seed {args.seed}")
    for name, (value, unit) in {**report, **layers}.items():
        print(f"# {name} = {value:.6g} {unit}")
    if percentile is not None:
        print(f"# wall_s p{percentile[0]} = {percentile[1]:.6g} s over {len(walls)} passes")
    print(f"# fail_ratio = {failed}/{attempted} = {failed / attempted:.3g}")
    for message in messages[:5]:
        print(f"# failure: {message.strip().splitlines()[-1][:300]}")
    print(f"# full record: {out_file.relative_to(ROOT)}")

    shown = layers if args.trace else report
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
