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
the artifact path that could not be written, or the invalid request or
arithmetic error is named on stderr), 2 configuration error (with file/line
diagnostics).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import load_scenario
from .runner import export_slice, run_scenario, self_test


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


def _reason(exc: Exception) -> str:
    """A ValueError's message; an arithmetic error also names its type."""
    return str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "selftest":
        return self_test()

    try:
        cfg = load_scenario(args.config)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        outdir = args.outdir or _default_outdir(args.config)
        try:
            report = run_scenario(cfg, outdir)
        except (ValueError, ArithmeticError) as exc:
            print(f"run failed: {_reason(exc)}", file=sys.stderr)
            return 1
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"run failed: cannot write artifacts to {outdir}: {reason}", file=sys.stderr)
            return 1
        for result in report.results:
            print(result.line())
        if report.summary_path is not None:
            print(f"summary: {report.summary_path}")
        if not report.ok:
            print(
                "failed checks: " + ", ".join(report.failed_names()), file=sys.stderr
            )
            return 1
        return 0

    if args.command == "export-slice":
        out_path = args.out or f"{args.kind}_{args.plane.replace('=', '_')}.csv"
        try:
            written = export_slice(cfg, args.kind, args.plane, out_path)
        except (ValueError, ArithmeticError) as exc:
            print(f"export failed: {_reason(exc)}", file=sys.stderr)
            return 1
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"export failed: cannot write {out_path}: {reason}", file=sys.stderr)
            return 1
        print(f"wrote {written}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
