"""Every preset at 7 points per axis against CSV frozen from an earlier
version of the package (tests/golden/<preset>.csv, written by `cavmag
sweep --preset <name> --points 7`), and `cavmag point` at five operating
points against its frozen stdout (tests/golden/point.txt, one block per
command, headed by the command line).  Names, headers and stability
flags must match exactly and every number within a relative 1e-10, the
tolerance of the benchmark's fig2b golden file."""

from pathlib import Path

import pytest

from cavmag.cli import main
from cavmag.sweep import PRESET_NAMES, format_csv, preset, run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-10


def _assert_close(text, golden_text, where):
    if text != golden_text:
        x, g = float(text), float(golden_text)
        assert abs(x - g) <= GOLDEN_RTOL * abs(g), f"{where}: {text} != golden {golden_text}"


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
            _assert_close(cell, golden_cell, f"line {lineno}")


# command line (after "# cavmag ") -> its golden stdout lines
_POINT_GOLDEN = {
    header.removeprefix("# cavmag "): lines
    for header, *lines in (block.splitlines() for block in
                           (GOLDEN_DIR / "point.txt").read_text(encoding="utf-8").split("\n\n"))
}


@pytest.mark.parametrize("command", _POINT_GOLDEN)
def test_point_matches_golden(capsys, command):
    assert main(command.split()) == 0
    got = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
    expected = [line.split(" = ") for line in _POINT_GOLDEN[command]]
    assert [name for name, _ in got] == [name for name, _ in expected]
    assert got[0] == expected[0] == ["stability", "stable"]
    for (name, value), (_, golden_value) in zip(got[1:], expected[1:]):
        _assert_close(value, golden_value, name)
