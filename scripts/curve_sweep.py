"""Tabulate the two boundary curves of the trade-off surface.

Sweeps the classical-rate constraint for one ensemble and prints Q*(R) (the
minimal qubit rate with no entanglement assistance) and E*(R) (the minimal
ebit rate with no quantum channel) side by side, together with the ensemble
invariants and the critical rate where Q*(R) leaves the slope -1 line.
Optionally writes both curves as CSV + channel sidecars.

Usage:
    python3 scripts/curve_sweep.py --ensemble zero-plus
    python3 scripts/curve_sweep.py --ensemble bb84 --points 15 --out-dir out
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from tradeoff.cli import _Parser
from tradeoff.ensembles import BUILTIN_NAMES, builtin_ensemble, load_ensemble
from tradeoff.export import write_curve_csv
from tradeoff.optimizer import (DEFAULT_MULTISTARTS, DEFAULT_RESOLUTION,
                                compute_curves)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--ensemble", default="zero-plus",
                        help=f"builtin name ({', '.join(BUILTIN_NAMES)}) "
                             "or a JSON ensemble file")
    parser.add_argument("--resolution", type=int,
                        default=DEFAULT_RESOLUTION)
    parser.add_argument("--multistarts", type=int,
                        default=DEFAULT_MULTISTARTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=11,
                        help="rows in the printed table (default 11)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="also write qct/rsp CSVs + channel sidecars")
    return parser


def run(args: argparse.Namespace) -> int:
    if Path(args.ensemble).is_file():
        ensemble = load_ensemble(args.ensemble)
        stem = Path(args.ensemble).stem
    else:
        ensemble = builtin_ensemble(args.ensemble)
        stem = args.ensemble

    curves = compute_curves(ensemble, args.resolution,
                            multistarts=args.multistarts, seed=args.seed)
    stats = curves.stats
    print(f"ensemble {stem}: m = {ensemble.m}")
    print(f"  S = {stats.S:.6f}   Sbar = {stats.Sbar:.6f}   "
          f"chi = {stats.chi:.6f}   H = {stats.H:.6f}")
    flag = "" if curves.critical.found else "   (no qualifying sample)"
    print(f"  Hc = {curves.critical.Hc:.6f}{flag}")

    print(f"  {'R':>8}  {'Q*(R)':>10}  {'E*(R)':>10}")
    for rate in np.linspace(0.0, stats.H, args.points):
        q = curves.qct.value(float(rate))
        e = curves.rsp.value(float(rate))
        e_text = f"{e:10.6f}" if e is not None else f"{'--':>10}"
        print(f"  {rate:8.4f}  {q:10.6f}  {e_text}")

    for curve in (curves.qct, curves.rsp):
        if curve.diagnostics:
            print(f"  {curve.kind} diagnostics: {'; '.join(curve.diagnostics)}")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for curve in (curves.qct, curves.rsp):
            path = args.out_dir / f"{stem}_{curve.kind.lower()}.csv"
            write_curve_csv(curve, path)
            print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
