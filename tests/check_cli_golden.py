"""Replay tests/golden/cli_failures.txt as real processes: each frozen
command runs as ``python -m cavmag.cli`` in a fresh interpreter, with the
interpreter's own warning filters, and its exit code, stdout ("1> " lines)
and stderr ("2> " lines) must match the golden byte for byte.  The test
suite replays the same file through ``cli.main`` in-process.  Prints one
line per differing run and a summary, and exits 1 on any difference; run
it as

    python tests/check_cli_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_failures.txt"


def _runs():
    """(command, exit code, stdout bytes, stderr bytes) of each frozen run."""
    text = GOLDEN.read_text(encoding="utf-8")
    for block in text.split("\n\n"):
        header, status, *lines = block.splitlines()
        streams = ["".join(line[3:] + "\n" for line in lines if line.startswith(prefix))
                   for prefix in ("1> ", "2> ")]
        yield (header.removeprefix("$ cavmag "), int(status.removeprefix("exit ")),
               *(stream.encode("utf-8") for stream in streams))


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = differing = 0
    for command, status, out, err in _runs():
        got = subprocess.run([sys.executable, "-m", "cavmag.cli", *command.split()],
                             capture_output=True, env=env, cwd=ROOT)
        runs += 1
        if (got.returncode, got.stdout, got.stderr) != (status, out, err):
            differing += 1
            print(f"differs: cavmag {command}: exit {got.returncode} (golden {status})")
            print(f"  stdout: {got.stdout!r}\n  stderr: {got.stderr!r}")
    print(f"{runs} runs, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
