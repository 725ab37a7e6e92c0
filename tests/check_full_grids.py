"""Every preset whose sweep lines fix the drift, at 101 points per axis,
against the point-by-point pipeline (``_systems.per_point_sweep``).
Prints each column's largest gap (relative, or in dB for squeezing) and exits 1 if any cell is
outside ``_systems.sweep_mismatches``'s tolerance.  Too slow for the test
suite (about 15 s); run it as

    PYTHONPATH=src python tests/check_full_grids.py
"""

import sys

from _systems import FIXED_DRIFT_PRESETS, per_point_sweep, sweep_mismatches
from cavmag.sweep import preset, run_sweep


def main() -> int:
    failed = 0
    for name in FIXED_DRIFT_PRESETS:
        spec = preset(name)
        result, reference = run_sweep(spec), per_point_sweep(spec)
        gaps = {out: [(abs(x - ref), abs(x - ref) / abs(ref))
                      for x, ref in zip(result.column(out), reference.column(out))
                      if x != ref] or [(0.0, 0.0)]
                for out in spec.outputs}
        summary = ", ".join(
            f"{out} {max(a for a, _ in gap):.1e} dB" if out.startswith("squeezing_db")
            else f"{out} {max(r for _, r in gap):.1e} relative"
            for out, gap in gaps.items())
        mismatches = sweep_mismatches(result, reference)
        print(f"{name}: largest gaps {summary}; {len(mismatches)} cells outside")
        for mismatch in mismatches[:5]:
            print(f"  row {mismatch[0]}, {mismatch[1]}: {mismatch[2]!r} != {mismatch[3]!r}")
        failed += bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
