"""The full cbit/qubit/ebit trade-off surface assembled from the two curves.

For a classical rate R and qubit rate Q, the optimal ebit rate E*(R, Q)
splits into four regions:

  * QCT: Q reaches the qubit curve Q*(R); no entanglement is needed.
  * LowEntanglement: (Q*(R) - Sbar)/2 <= Q <= Q*(R); time-sharing between
    the qubit-curve point and its coherent (superdense-coded) version gives
    E = Q*(R) - Q, linear in Q.
  * HighEntanglement: (chi - R)/2 <= Q < (Q*(R) - Sbar)/2; converting qubits
    into cbit transmission gives E = E*(R + 2Q) - Q.
  * Forbidden: Q < (chi - R)/2; no protocol reaches below the causality line
    chi <= R + 2Q, so the cost is infinite.

Boundaries are classified in the order above.  A small cushion keeps cells
that sit exactly on a boundary (where two case conditions agree only up to
rounding) in the earlier, finite-valued region.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .optimizer import (DEFAULT_MULTISTARTS, DEFAULT_RESOLUTION, CurveSet,
                        compute_curves)
from .states import Ensemble

# Classification cushion: for R below the critical rate the low-entanglement
# and forbidden boundaries coincide exactly, and a one-ulp difference between
# the two evaluations, or in the interpolated Q*(R), must not flip a boundary
# cell into the wrong region.
REGION_EPS = 1e-9


class RegionLabel(enum.Enum):
    QCT = "QCT"
    LOW_ENTANGLEMENT = "LowEntanglement"
    HIGH_ENTANGLEMENT = "HighEntanglement"
    FORBIDDEN = "Forbidden"


def _cell(R: float, Q: float,
          curves: CurveSet) -> tuple[RegionLabel, float | None]:
    """Region of (R, Q), first match wins, and the optimal ebit rate there."""
    if not (R >= 0.0 and Q >= 0.0):
        raise ValueError(f"rates must be nonnegative, got R={R}, Q={Q}")
    stats = curves.stats
    # The QCT envelope ends at the exact vertex (H, Sbar), and is flat beyond.
    q_curve = curves.qct.value(R)
    if Q >= q_curve - REGION_EPS:
        return RegionLabel.QCT, 0.0
    if Q >= 0.5 * (q_curve - stats.Sbar) - REGION_EPS:
        return RegionLabel.LOW_ENTANGLEMENT, max(q_curve - Q, 0.0)
    if Q >= 0.5 * (stats.chi - R) - REGION_EPS:
        combined = max(R + 2.0 * Q, stats.chi)
        return (RegionLabel.HIGH_ENTANGLEMENT,
                max(curves.rsp.value(combined) - Q, 0.0))
    return RegionLabel.FORBIDDEN, None


def classify_region(R: float, Q: float, curves: CurveSet) -> RegionLabel:
    """Region of the (R, Q) plane that the point falls in, first match wins."""
    return _cell(R, Q, curves)[0]


def e_star(R: float, Q: float, curves: CurveSet) -> float | None:
    """Optimal ebit rate at (R, Q); None where the pair is unachievable."""
    return _cell(R, Q, curves)[1]


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """E*(R, Q) evaluated on a rectangular grid over [0, H] x [0, S].

    E holds np.inf on unachievable cells; region holds the RegionLabel per
    cell.  boundary_cells lists indices sitting on the achievability line
    Q = (chi - R)/2, where the reported value is the finite branch.
    """

    Rs: np.ndarray
    Qs: np.ndarray
    E: np.ndarray
    region: np.ndarray
    curves: CurveSet
    boundary_cells: tuple
    diagnostics: tuple


def surface_grid(ensemble: Ensemble, nR: int, nQ: int, *,
                 curves: CurveSet | None = None,
                 resolution: int = DEFAULT_RESOLUTION,
                 multistarts: int = DEFAULT_MULTISTARTS,
                 seed: int = 0) -> SurfaceGrid:
    """Evaluate the trade-off surface on an nR x nQ grid.

    Curves are computed once (or reused if passed in); grid cells are then
    independent curve lookups.
    """
    if nR < 2 or nQ < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if curves is None:
        curves = compute_curves(ensemble, resolution, multistarts=multistarts,
                                seed=seed)
    stats = curves.stats
    Rs = np.linspace(0.0, stats.H, nR)
    Qs = np.linspace(0.0, stats.S, nQ)
    E = np.zeros((nR, nQ))
    region = np.empty((nR, nQ), dtype=object)
    boundary = []
    for i, R in enumerate(Rs):
        for j, Q in enumerate(Qs):
            label, value = _cell(float(R), float(Q), curves)
            region[i, j] = label
            E[i, j] = np.inf if value is None else value
            if abs(Q - 0.5 * (stats.chi - R)) <= REGION_EPS:
                boundary.append((i, j))
    # Both curves of one solve carry its notes; each is reported once.
    diagnostics = list(dict.fromkeys(curves.qct.diagnostics
                                     + curves.rsp.diagnostics))
    if not curves.critical.found:
        diagnostics.append("critical rate not localized on the qubit curve")
    return SurfaceGrid(Rs=Rs, Qs=Qs, E=E, region=region, curves=curves,
                       boundary_cells=tuple(boundary),
                       diagnostics=tuple(diagnostics))
