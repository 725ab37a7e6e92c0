"""Every preset, at 101 points per axis, and the fig2b grid with both
magnon linewidths at 1e-3 Hz (a slowest decay rate of 1e-9 in internal
units), against the point-by-point pipeline (``_systems.per_point_sweep``):
the CSV text must be byte-identical, and ``run_sweep`` must evaluate every
line by its line stages.  A line that raises is evaluated again through
``sweep.steady_state``, which gives the same CSV, so the number of points
``run_sweep`` sends through it is counted too and must be 0.  Prints both
counts per grid and exits 1 if any is not 0.  Too slow for the test
suite (about 40 s on 2 cores); run it as

    PYTHONPATH=src python tests/check_full_grids.py
"""

import sys

import cavmag.sweep
from _systems import per_point_sweep
from cavmag.sweep import PRESET_NAMES, format_csv, preset, run_sweep


def _counted_run_sweep(spec):
    """run_sweep(spec) and the number of its steady_state calls."""
    real, calls = cavmag.sweep.steady_state, []

    def steady_state(point):
        calls.append(point)
        return real(point)

    cavmag.sweep.steady_state = steady_state
    try:
        return run_sweep(spec), len(calls)
    finally:
        cavmag.sweep.steady_state = real


# Grid name -> spec: every preset at its defaults, and the slow-magnon grid.
GRIDS = {name: preset(name) for name in PRESET_NAMES}
GRIDS["fig2b kappa_m=1e-3 Hz"] = preset(
    "fig2b", overrides={"kappa_m1_hz": 1e-3, "kappa_m2_hz": 1e-3})


def main() -> int:
    failed = 0
    for name, spec in GRIDS.items():
        result, per_point = _counted_run_sweep(spec)
        result, reference = format_csv(result), format_csv(per_point_sweep(spec))
        differing = [(lineno, line, ref) for lineno, (line, ref) in
                     enumerate(zip(result.splitlines(), reference.splitlines()), start=1)
                     if line != ref]
        print(f"{name}: {len(differing)} CSV lines differ, "
              f"{per_point} points through steady_state")
        for lineno, line, ref in differing[:5]:
            print(f"  line {lineno}: {line!r} != {ref!r}")
        failed += result != reference or per_point != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
