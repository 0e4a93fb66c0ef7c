"""Serialization: curve/surface CSV files, metadata, reports, plot scripts.

Unachievable ebit values are serialized as the literal string "inf"; inside
grids they are np.inf.  All writers are deterministic: identical inputs give
byte-identical files.
"""

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .ensembles import ensemble_hash
from .surface import RegionLabel, SurfaceGrid

SURFACE_HEADER = "R,Q,E,region"
CURVE_HEADER = "R,value,channel_id"
_REGION_NAMES = {label.value for label in RegionLabel}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_curve_csv(curve, path) -> Path:
    """Write curve samples as R,value,channel_id rows plus a channel sidecar.

    The optimizing channel for each support point goes to <path stem>.channels.json,
    keyed by the channel_id column.
    """
    path = Path(path)
    prefix = curve.kind.lower()
    lines = [CURVE_HEADER]
    channels = {}
    for idx, ((rate, value), channel) in enumerate(zip(curve.samples,
                                                       curve.channels)):
        channel_id = f"{prefix}-{idx:03d}"
        lines.append(f"{_fmt(rate)},{_fmt(value)},{channel_id}")
        channels[channel_id] = {
            "matrix": [[float(x) for x in row] for row in channel.matrix],
        }
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = path.with_suffix(".channels.json")
    sidecar.write_text(json.dumps(channels, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return sidecar


def write_surface_csv(grid: SurfaceGrid, ensemble, path) -> Path:
    """Write R,Q,E,region rows plus a metadata JSON next to the CSV."""
    path = Path(path)
    lines = [SURFACE_HEADER]
    Qs = [_fmt(Q) for Q in grid.Qs.tolist()]
    for R, E_row, region_row in zip(grid.Rs.tolist(), grid.E.tolist(),
                                    grid.region.tolist()):
        R = _fmt(R)
        for Q, e, label in zip(Qs, E_row, region_row):
            e_text = "inf" if math.isinf(e) else _fmt(e)
            lines.append(f"{R},{Q},{e_text},{label.value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = grid.curves.stats
    meta = {
        "ensemble_sha256": ensemble_hash(ensemble),
        "tool_version": __version__,
        "grid": {"nR": int(len(grid.Rs)), "nQ": int(len(grid.Qs)),
                 "R_max": float(grid.Rs[-1]), "Q_max": float(grid.Qs[-1])},
        "S": stats.S,
        "Sbar": stats.Sbar,
        "chi": stats.chi,
        "H": stats.H,
        "Hc": grid.curves.critical.Hc,
        "diagnostics": list(grid.curves.diagnostics),
    }
    meta_path = path.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    return meta_path


def read_surface_csv(path) -> list:
    """Parse and validate a surface CSV; returns (R, Q, E, region) tuples.

    E is np.inf for "inf" cells.  Raises ValueError on any schema violation.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SURFACE_HEADER:
        raise ValueError(f"{path}: expected header {SURFACE_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields")
        r_text, q_text, e_text, region = parts
        try:
            R, Q = float(r_text), float(q_text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad rate field") from exc
        if not (np.isfinite(R) and np.isfinite(Q)):
            raise ValueError(f"{path}:{lineno}: rates must be finite")
        if e_text == "inf":
            E = np.inf
        else:
            try:
                E = float(e_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad E field") from exc
            if not np.isfinite(E) or E < 0:
                raise ValueError(f"{path}:{lineno}: E must be finite and "
                                 f"nonnegative or 'inf'")
        if region not in _REGION_NAMES:
            raise ValueError(f"{path}:{lineno}: unknown region {region!r}")
        rows.append((R, Q, E, region))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


_PLOT_STYLE = {
    "QCT": ("#4477aa", "no entanglement needed"),
    "LowEntanglement": ("#ee6677", "E = Q*(R) - Q"),
    "HighEntanglement": ("#228833", "E = E*(R+2Q) - Q"),
}


def gnuplot_surface_script(rows) -> str:
    """Self-contained gnuplot script for a surface CSV's rows.

    Achievable regions are color-coded; forbidden cells are blanked.  Render
    with: gnuplot -p script.gp
    """
    blocks = []
    plots = []
    for region, (color, note) in _PLOT_STYLE.items():
        data = [(r, q, e) for r, q, e, reg in rows
                if reg == region and np.isfinite(e)]
        if not data:
            continue
        name = f"${region.lower()}"
        body = "\n".join(f"{_fmt(r)} {_fmt(q)} {_fmt(e)}" for r, q, e in data)
        blocks.append(f"{name} << EOD\n{body}\nEOD")
        plots.append(f"{name} with points pointtype 7 pointsize 0.5 "
                     f"linecolor rgb '{color}' title '{region}: {note}'")
    if not plots:
        raise ValueError("surface has no achievable cells to plot")
    header = "\n".join([
        "# cbit/qubit/ebit trade-off surface",
        "# render with: gnuplot -p <this file>",
        "set title 'Optimal ebit rate E*(R, Q)'",
        "set xlabel 'R (cbits)'",
        "set ylabel 'Q (qubits)'",
        "set zlabel 'E (ebits)' rotate parallel",
        "set ticslevel 0",
        "set grid",
        "set view 60, 315",
        "set key outside top",
    ])
    return (header + "\n\n" + "\n".join(blocks) + "\n\nsplot " +
            ", \\\n      ".join(plots) + "\n")


def write_verification_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
