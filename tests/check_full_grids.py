"""Every preset, at 101 points per axis, against the point-by-point
pipeline (``_systems.per_point_sweep``): the CSV text must be
byte-identical.  Prints the number of differing CSV lines per preset and
exits 1 if any preset has one.  Too slow for the test suite (about 35 s on
2 cores); run it as

    PYTHONPATH=src python tests/check_full_grids.py
"""

import sys

from _systems import per_point_sweep
from cavmag.sweep import PRESET_NAMES, format_csv, preset, run_sweep


def main() -> int:
    failed = 0
    for name in PRESET_NAMES:
        spec = preset(name)
        result, reference = format_csv(run_sweep(spec)), format_csv(per_point_sweep(spec))
        differing = [(lineno, line, ref) for lineno, (line, ref) in
                     enumerate(zip(result.splitlines(), reference.splitlines()), start=1)
                     if line != ref]
        print(f"{name}: {len(differing)} CSV lines differ")
        for lineno, line, ref in differing[:5]:
            print(f"  line {lineno}: {line!r} != {ref!r}")
        failed += result != reference
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
