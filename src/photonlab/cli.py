"""Command-line entry point.

Subcommands:

* ``run <config>`` — execute a scenario file, export artifacts, print one
  line per check; exit 0 iff every check passed.
* ``selftest`` — run the full acceptance-check registry plus the negative
  controls.
* ``export-slice <config> --kind <density> --plane z=<v>`` — write one 2-D
  plane of a density field as CSV.
* ``version`` — print the package version.

Exit codes: 0 success, 1 failed check or runtime error (the failing check,
the artifact path that could not be written, the invalid request, running
out of memory or any other error's type and message is named on stderr), 2
configuration error (with file/line diagnostics).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import load_scenario
from .registry import self_test
from .runner import export_slice, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="Numerical laboratory for single-photon field configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a scenario configuration file")
    run_cmd.add_argument("config", help="path to the scenario file")
    run_cmd.add_argument(
        "--outdir",
        default=None,
        help="artifact directory (default: <config stem>_out next to the config)",
    )

    sub.add_parser("selftest", help="run the acceptance checks and negative controls")

    slice_cmd = sub.add_parser("export-slice", help="export one density plane as CSV")
    slice_cmd.add_argument("config", help="path to the scenario file")
    slice_cmd.add_argument("--kind", required=True, help="density kind to export")
    slice_cmd.add_argument(
        "--plane", required=True, help="plane selector, e.g. z=0.0"
    )
    slice_cmd.add_argument(
        "--out", default=None, help="output CSV path (default: <kind>_<plane>.csv)"
    )

    sub.add_parser("version", help="print the package version")
    return parser


def _default_outdir(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), f"{stem}_out")


def _attempt(verb: str, target: str, action):
    """Return ``action()``, or None after naming its failure on stderr.

    The line reads ``<verb> failed: <reason>``: a ValueError's message,
    running out of memory, the ``target`` that could not be written, or any
    other error's type and message, so no failure leaves as a traceback.
    """
    try:
        return action()
    except ValueError as exc:
        reason = str(exc)
    except MemoryError:
        reason = "out of memory"
    except OSError as exc:
        reason = f"cannot write {target}: {exc.strerror or exc}"
    except Exception as exc:  # the last boundary of run and export-slice: exit 1
        reason = f"{type(exc).__name__}: {exc}"
    print(f"{verb} failed: {reason}", file=sys.stderr)
    return None


def _exit_status(failed: list[str]) -> int:
    """0, or 1 after naming each failing ``check:metric`` on one stderr line."""
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "selftest":
        return _exit_status(self_test())

    try:
        cfg = load_scenario(args.config)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        outdir = args.outdir or _default_outdir(args.config)
        report = _attempt("run", f"artifacts to {outdir}", lambda: run_scenario(cfg, outdir))
        if report is None:
            return 1
        for result in report.results:
            print(result.line())
        if report.summary_path is not None:
            print(f"summary: {report.summary_path}")
        return _exit_status(report.failed_names())

    if args.command == "export-slice":
        out_path = args.out or f"{args.kind}_{args.plane.replace('=', '_')}.csv"
        written = _attempt("export", out_path,
                           lambda: export_slice(cfg, args.kind, args.plane, out_path))
        if written is None:
            return 1
        print(f"wrote {written}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
