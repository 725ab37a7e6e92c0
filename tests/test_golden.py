"""Every preset at 7 points per axis against CSV frozen from an earlier
version of the package (tests/golden/<preset>.csv, written by `cavmag
sweep --preset <name> --points 7`).  The header and the stability flags must match
exactly and every numeric cell within a relative 1e-10, the tolerance of
the benchmark's fig2b golden file."""

from pathlib import Path

import pytest

from cavmag.sweep import PRESET_NAMES, format_csv, preset, run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-10


def test_every_preset_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_golden(name):
    got = format_csv(run_sweep(preset(name, 7))).splitlines()
    golden = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == golden[0]
    assert len(got) == len(golden)
    for lineno, (line, expected) in enumerate(zip(got[1:], golden[1:]), start=2):
        cells, golden_cells = line.split(","), expected.split(",")
        assert len(cells) == len(golden_cells), f"line {lineno}"
        assert cells[-1] == golden_cells[-1], f"line {lineno}: stability"
        for cell, golden_cell in zip(cells[:-1], golden_cells[:-1]):
            if cell != golden_cell:
                x, g = float(cell), float(golden_cell)
                assert abs(x - g) <= GOLDEN_RTOL * abs(g), (
                    f"line {lineno}: {cell} != golden {golden_cell}")
