"""Command-line front end.

Subcommands:

    sweep   run a preset parameter sweep and emit CSV
    verify  run the reference checks and print a pass/fail table
    point   evaluate all measures at a single operating point

Exit codes, mapped from exception families in ``main`` alone: 0 success, 1 usage
error (ValueError, OSError, MemoryError), 2 numerical failure (ArithmeticError,
LinAlgError), 3 verification failure, 141 (128 + SIGPIPE) when stdout's reader
has closed it.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import config
from . import sweep as sweep_mod
from . import verify as verify_mod


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    # --help must reach main's BrokenPipeError clause like any other output:
    # argparse's writer swallows OSError, and a buffered help text would
    # otherwise fail only at the interpreter's final flush.  print_usage is
    # reached only from error, which raises instead.
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())

    def exit(self, status=0, message=None):
        sys.stdout.flush()
        super().exit(status, message)


def _add_config_options(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (key = value lines)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        help="override one configuration value (repeatable)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cavmag", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sweep_parser = commands.add_parser(
        "sweep", help="run a preset parameter sweep and emit CSV")
    sweep_parser.add_argument("--preset", required=True,
                              help=f"one of: {', '.join(sweep_mod.PRESET_NAMES)}")
    sweep_parser.add_argument("--out", metavar="PATH",
                              help="output CSV path (default: stdout)")
    sweep_parser.add_argument("--points", type=int, default=sweep_mod.DEFAULT_POINTS,
                              help="grid points per axis (default %(default)s)")
    sweep_parser.add_argument("--range", metavar="AXIS=MIN:MAX", action="append",
                              default=[], help="override one axis range (repeatable)")
    _add_config_options(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    verify_parser = commands.add_parser(
        "verify", help="run the reference checks")
    verify_parser.set_defaults(handler=_cmd_verify)

    point_parser = commands.add_parser(
        "point", help="evaluate all measures at one operating point")
    _add_config_options(point_parser)
    point_parser.set_defaults(handler=_cmd_point)

    return parser


def _load_values(args):
    file_values = config.load_config(args.config) if args.config else {}
    set_values = config.parse_overrides(args.set)
    return file_values, set_values


def _parse_range(text):
    try:
        axis, bounds = text.split("=", 1)
        lo_text, hi_text = bounds.split(":", 1)
        return axis.strip(), float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"--range expects AXIS=MIN:MAX, got {text!r}")


def _cmd_sweep(args) -> int:
    file_values, set_values = _load_values(args)
    spec = sweep_mod.preset(args.preset, args.points, file_values, set_values)
    for item in args.range:
        axis, lo, hi = _parse_range(item)
        spec = sweep_mod.with_range(spec, axis, lo, hi)
    result = sweep_mod.run_sweep(spec)
    text = sweep_mod.format_csv(result)
    violations = sweep_mod.check_certification_chain(text)
    if violations:
        raise ArithmeticError(
            "internal consistency violated: " + "; ".join(violations[:3])
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    report = verify_mod.run_verification()
    print(verify_mod.format_report(report))
    return 0 if report.passed else 3


def _cmd_point(args) -> int:
    fixed = config.fixed_from_values(*_load_values(args))  # file, then --set values
    quantities = sweep_mod.point_quantities(sweep_mod.steady_state(fixed)[2])
    print("stability = stable")
    for name, value in quantities.items():
        print(f"{name} = {value:.17g}")
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # Warnings print as one line without the library's source location;
    # only the handler is swapped, and it is restored on return.
    caller_show, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        args = _build_parser().parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return status
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:  # stdout's reader left; the final flush must not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. --points too large for the grid
        print(f"usage error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    finally:
        warnings.showwarning = caller_show


if __name__ == "__main__":
    sys.exit(main())
