"""One benchmark pass of one workload, in a fresh interpreter.

    python perfbench/worker.py --workload fig2b --seed 1
    python perfbench/worker.py --workload fig2b --seed 1 --trace spans.npz
    python perfbench/worker.py --workload fig2b --seed 1 --setup-only

run.py starts it with PYTHONPATH set to the checkout's src/ and the BLAS
thread variables set to 1.  It imports cavmag, builds the workload's
inputs, runs the workload once under a timer, checks the output, and
prints one JSON object on its last line of stdout.  With --setup-only it
stops after building the inputs and prints the library versions instead.
With --trace the timed run records spans, which are written to the given
path; the wrappers are removed before the output is checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(workload_name: str, seed: int, trace_path: str | None = None) -> dict:
    """Build inputs, time one run of the workload, check it; return a record."""
    import tracing
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    tracer = tracing.Tracer().install() if trace_path else None
    error = None
    t0 = time.perf_counter()
    try:
        output = workload.run(inputs)
    except Exception:  # a raising workload is a failed pass, not a crash
        output, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if error is None:
        outcome = workload.check(inputs, output)
    else:
        attempted = workload.operations(inputs)
        outcome = Outcome(attempted, attempted, [error])
    record = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "messages": outcome.messages,
    }
    if workload_name == "fig2b" and output is not None:
        record["csv_sha256"] = hashlib.sha256(output["text"].encode()).hexdigest()
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = len(tracer.name_id)
        tracer.save(trace_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="PATH", help="write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import cavmag

    expected = ROOT / "src" / "cavmag"
    if Path(cavmag.__file__).resolve().parent != expected:
        print(f"cavmag imported from {cavmag.__file__}, not {expected}", file=sys.stderr)
        return 2
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].inputs(args.seed)
        print(json.dumps(_versions()))
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
