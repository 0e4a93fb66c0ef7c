"""Render the cbit/qubit/ebit trade-off surface for a qubit ensemble.

Computes E*(R, Q) on a grid for the uniform spherical qubit ensemble (or any
builtin / JSON ensemble), writes the CSV + metadata artifacts, emits a gnuplot
script, and prints the landmarks that characterise the surface: the
teleportation corner (R = quantum-channel-free cost), the superdense-coding
corner on the R = 0 axis, and the maximum deviation from chord linearity in Q
at fixed R (the surface is ruled: exactly 0 in the limit).

Usage:
    python3 scripts/surface_figure.py --out-dir figures
    python3 scripts/surface_figure.py --ensemble zero-plus --grid 32x32
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from tradeoff.cli import _grid_type, _Parser
from tradeoff.ensembles import BUILTIN_NAMES, builtin_ensemble, load_ensemble
from tradeoff.export import gnuplot_surface_script, read_surface_csv, \
    write_surface_csv
from tradeoff.optimizer import DEFAULT_MULTISTARTS, DEFAULT_RESOLUTION
from tradeoff.surface import RegionLabel, surface_grid


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--ensemble", default="uniform-qubit-24",
                        help=f"builtin name ({', '.join(BUILTIN_NAMES)}) "
                             "or a JSON ensemble file")
    parser.add_argument("--grid", type=_grid_type, default=(33, 33),
                        help="surface grid as NRxNQ (default 33x33)")
    parser.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                        help="points per curve sweep (default %(default)s)")
    parser.add_argument("--multistarts", type=int, default=DEFAULT_MULTISTARTS,
                        help="solver restarts per sweep point "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("figures"))
    parser.add_argument("--render", action="store_true",
                        help="run gnuplot on the emitted script if available")
    return parser


def chord_deviation(rows: list, R: float) -> float:
    """Max |E - chord| over the low-entanglement cells of one R slice."""
    slab = sorted((q, e) for r, q, e, region in rows
                  if abs(r - R) < 1e-12
                  and region == RegionLabel.LOW_ENTANGLEMENT.value)
    if len(slab) < 3:
        return 0.0
    (q0, e0), (q1, e1) = slab[0], slab[-1]
    worst = 0.0
    for q, e in slab[1:-1]:
        t = (q - q0) / (q1 - q0)
        worst = max(worst, abs(e - ((1 - t) * e0 + t * e1)))
    return worst


def run(args: argparse.Namespace) -> int:
    if Path(args.ensemble).is_file():
        ensemble = load_ensemble(args.ensemble)
        stem = Path(args.ensemble).stem
    else:
        ensemble = builtin_ensemble(args.ensemble)
        stem = args.ensemble
    args.out_dir.mkdir(parents=True, exist_ok=True)

    nR, nQ = args.grid
    grid = surface_grid(ensemble, nR, nQ, resolution=args.resolution,
                        multistarts=args.multistarts, seed=args.seed)
    stats = grid.curves.stats
    csv_path = args.out_dir / f"{stem}_surface.csv"
    write_surface_csv(grid, ensemble, csv_path)

    rows = read_surface_csv(csv_path)
    script = gnuplot_surface_script(rows)
    gp_path = args.out_dir / f"{stem}_surface.gp"
    gp_path.write_text(script, encoding="utf-8")

    print(f"ensemble {stem}: m = {ensemble.m}, S = {stats.S:.6f}, "
          f"chi = {stats.chi:.6f}, H = {stats.H:.6f}, "
          f"Hc = {grid.curves.critical.Hc:.6f}")
    print(f"surface CSV : {csv_path}")
    print(f"gnuplot     : {gp_path}")

    # Landmarks: full-classical corner and the half-rate superdense corner.
    def cell(R: float, Q: float) -> float:
        i = int(np.argmin(np.abs(grid.Rs - R)))
        j = int(np.argmin(np.abs(grid.Qs - Q)))
        return float(grid.E[i, j])

    print(f"E*(R={stats.chi:.2f}, Q=0)    = {cell(stats.chi, 0.0):.4f}  "
          f"(classical corner, expect ~{stats.S:.4f})")
    print(f"E*(R=0, Q={0.5 * stats.chi:.2f})   = "
          f"{cell(0.0, 0.5 * stats.chi):.4f}  "
          f"(superdense corner, expect ~{stats.S - 0.5 * stats.chi:.4f})")
    worst = max(chord_deviation(rows, float(R)) for R in grid.Rs)
    print(f"max ruled-surface chord deviation = {worst:.2e}")
    if grid.diagnostics:
        print(f"diagnostics: {len(grid.diagnostics)} warning(s)",
              file=sys.stderr)

    if args.render:
        gnuplot = shutil.which("gnuplot")
        if gnuplot is None:
            print("gnuplot not found; skipping render", file=sys.stderr)
        else:
            png = gp_path.with_suffix(".png")
            header = (f'set terminal pngcairo size 1100,800\n'
                      f'set output "{png}"\n')
            subprocess.run([gnuplot], input=header + script,
                           text=True, check=True)
            print(f"render      : {png}")
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
