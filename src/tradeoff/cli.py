"""Command-line front end.

Subcommands
-----------
stats    print the ensemble's entropic summary (S, Sbar, chi, H)
qct      classical-channel trade-off curve Q*(R) -> CSV + channel sidecar
rsp      remote-state-preparation curve E*(R) -> CSV + channel sidecar
surface  full (R, Q) -> E* grid -> CSV + metadata JSON
verify   cross-check the surface against the achievability oracle (the
         coherent qubit-curve vertices, closed under conversions of any
         depth and time-sharing) -> report
plot     emit a gnuplot script rendering a surface CSV

Each computing command (qct, rsp, surface, verify) makes one
compute_curves call and reads all it writes from that CurveSet: qct and
rsp write one of its two curves, and the surface and the oracle are built
from it.  Its diagnostic notes are printed once, whatever the command.

Exit codes: 0 success; 1 bad input, or an oracle solve that reached the
simplex's pivot cap; 2 optimizer diagnostics raised; 3 verification gaps
above tolerance.
"""

import argparse
import sys
from pathlib import Path

from . import export
from .achievability import DEFAULT_TOLERANCE, achievable_hull, verify_surface
from .ensembles import BUILTIN_NAMES, builtin_ensemble, load_ensemble
from .optimizer import (DEFAULT_MULTISTARTS, DEFAULT_RESOLUTION,
                        REFINE_TARGET, compute_curves)
from .states import _check_reals, ensemble_stats
from .surface import surface_grid

DEFAULT_GRID = (16, 16)


def _written(args: argparse.Namespace):
    """Each file the command writes, --out and then its sidecar, with the
    name an error gives it."""
    out = Path(args.out)
    yield f"--out {args.out}:", out
    if args.command in export.SIDECARS:
        sidecar = out.with_suffix(export.SIDECARS[args.command])
        yield f"--out {args.out}: sidecar {sidecar}", sidecar


def _dispatch(args: argparse.Namespace) -> int:
    # Bad options fail here, not after the curves are solved.
    if args.command != "stats":
        inputs = {flag: Path(path).resolve() for flag in ("ensemble", "surface")
                  if (path := getattr(args, flag, None)) is not None}
        for name, path in _written(args):
            if not path.parent.is_dir():
                raise ValueError(f"{name} no directory to write it in")
            if path.is_dir():
                raise ValueError(f"{name} is a directory")
            for flag, source in inputs.items():
                if path.resolve() == source:
                    raise ValueError(f"{name} is the --{flag} file")
    if args.command == "verify":
        _check_reals(tolerance=args.tolerance)
    if args.command == "plot":
        rows = export.read_surface_csv(args.surface)
        script = export.gnuplot_surface_script(rows)
        Path(args.out).write_text(script, encoding="utf-8")
        print(f"wrote {args.out}")
        return 0

    ensemble = (load_ensemble(args.ensemble) if args.ensemble is not None
                else builtin_ensemble(args.builtin))
    if args.command == "stats":
        stats = ensemble_stats(ensemble)
        print(f"states = {ensemble.m}  dimA = {ensemble.dimA}  "
              f"dimB = {ensemble.dimB}")
        for name, value in (("S", stats.S), ("Sbar", stats.Sbar),
                            ("chi", stats.chi), ("H", stats.H)):
            print(f"{name} = {value:.12g}")
        return 0

    curves = compute_curves(ensemble, args.resolution,
                            multistarts=args.multistarts, seed=args.seed)
    for note in curves.diagnostics:
        print(f"diagnostic: {note}", file=sys.stderr)
    status = 2 if curves.diagnostics else 0

    if args.command in ("qct", "rsp"):
        curve = getattr(curves, args.command)
        export.write_curve_csv(curve, args.out)
        print(f"wrote {args.out} ({len(curve.samples)} support points, "
              f"domain [{curve.domain[0]:.6g}, {curve.domain[1]:.6g}])")
        return status

    nR, nQ = args.grid
    grid = surface_grid(ensemble, nR, nQ, curves=curves)
    if args.command == "surface":
        export.write_surface_csv(grid, ensemble, args.out)
        print(f"wrote {args.out} ({nR}x{nQ} cells)")
        return status

    hull = achievable_hull(curves)
    report = verify_surface(grid, hull, tolerance=args.tolerance)
    export.write_verification_report(report, args.out)
    print(f"wrote {args.out}: max |gap| = {report['max_abs_gap']:.3e} over "
          f"{hull.size} points, tolerance {args.tolerance:g}")
    for violation in report["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return status or (3 if report["violations"] else 0)


def _grid_type(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must look like 16x16")
    try:
        nR, nQ = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must look like 16x16") from exc
    if nR < 2 or nQ < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points per axis")
    return nR, nQ


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (bad input); 2 is reserved for solver diagnostics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_ensemble_args(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ensemble", metavar="PATH",
                       help="ensemble JSON file")
    group.add_argument("--builtin", metavar="NAME",
                       help=f"one of {', '.join(BUILTIN_NAMES[:-1])} "
                            f"or {BUILTIN_NAMES[-1]}")


def _add_solver_args(parser) -> None:
    parser.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                        metavar="N", help="multiplier budget: at most N "
                        "chord-slope solves, fewer once every curve "
                        f"segment's gap is within {REFINE_TARGET:g} "
                        "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base seed for multistart draws (default 0)")
    parser.add_argument("--multistarts", type=int, default=DEFAULT_MULTISTARTS,
                        metavar="N", help="starts per multiplier, two of them "
                        "continued from the segment ends "
                        "(default %(default)s)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="accepted for old scripts; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tradeoff",
                     description="Trade-off curves and the E*(R, Q) surface "
                                 "for ensembles of bipartite pure states.")
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = f"grid size (default {'x'.join(map(str, DEFAULT_GRID))})"

    p_stats = sub.add_parser("stats", help="print S, Sbar, chi, H")
    _add_ensemble_args(p_stats)

    for name, blurb in (("qct", "classical-channel curve Q*(R)"),
                        ("rsp", "remote-preparation curve E*(R)")):
        p_curve = sub.add_parser(name, help=f"compute the {blurb}")
        _add_ensemble_args(p_curve)
        _add_solver_args(p_curve)
        p_curve.add_argument("--out", required=True, metavar="PATH",
                             help="output CSV path")

    p_surface = sub.add_parser("surface", help="compute the E*(R, Q) grid")
    _add_ensemble_args(p_surface)
    _add_solver_args(p_surface)
    p_surface.add_argument("--grid", type=_grid_type, default=DEFAULT_GRID,
                           metavar="NRxNQ", help=grid_help)
    p_surface.add_argument("--out", required=True, metavar="PATH",
                           help="output CSV path")

    p_verify = sub.add_parser("verify",
                              help="cross-check the surface against the "
                                   "achievability oracle: coherent "
                                   "qubit-curve vertices closed under "
                                   "conversions of any depth and "
                                   "time-sharing")
    _add_ensemble_args(p_verify)
    _add_solver_args(p_verify)
    p_verify.add_argument("--grid", type=_grid_type, default=DEFAULT_GRID,
                          metavar="NRxNQ", help=grid_help)
    p_verify.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                          metavar="X", help="max allowed |minE - E*| "
                          f"(default {DEFAULT_TOLERANCE:g})")
    p_verify.add_argument("--out", required=True, metavar="PATH",
                          help="output report JSON path")

    p_plot = sub.add_parser("plot", help="emit a gnuplot script for a "
                                         "surface CSV")
    p_plot.add_argument("--surface", required=True, metavar="PATH",
                        help="surface CSV produced by the surface command")
    p_plot.add_argument("--out", required=True, metavar="PATH",
                        help="output gnuplot script path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
