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

The surface is thus a closed-form function of one CurveSet: a whole grid is
one array evaluation of the region tests and the two interpolated curves,
and a single-point query is the same evaluation on one cell.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .optimizer import CurveSet
from .states import Ensemble, _check_integers, _check_reals

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


def _cells(R, Q, curves: CurveSet) -> tuple[np.ndarray, np.ndarray]:
    """The RegionLabel of each cell of the broadcast R and Q, first match
    wins, and its optimal ebit rate (inf where unachievable)."""
    stats = curves.stats
    # The QCT envelope ends at the exact vertex (H, Sbar), and is flat beyond.
    q_curve = np.interp(R, curves.qct.rates, curves.qct.values)
    # R + 2Q >= chi on every achievable cell, inside the RSP domain.
    e_curve = np.interp(np.maximum(R + 2.0 * Q, stats.chi), curves.rsp.rates,
                        curves.rsp.values)
    tests = [Q >= q_curve - REGION_EPS,
             Q >= 0.5 * (q_curve - stats.Sbar) - REGION_EPS,
             Q >= 0.5 * (stats.chi - R) - REGION_EPS]
    *finite, forbidden = RegionLabel
    region = np.select(tests, finite, default=forbidden)
    E = np.select(tests, [0.0, np.maximum(q_curve - Q, 0.0),
                          np.maximum(e_curve - Q, 0.0)], default=np.inf)
    return region, E


def _cell(R: float, Q: float,
          curves: CurveSet) -> tuple[RegionLabel, float | None]:
    """Region of one (R, Q) and the optimal ebit rate there, or None."""
    _check_reals(R=R, Q=Q)
    region, E = _cells(R, Q, curves)
    return region.item(), (None if np.isinf(E) else float(E))


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
    cell.  Cells on the achievability line Q = (chi - R)/2 take the finite
    branch.
    """

    Rs: np.ndarray
    Qs: np.ndarray
    E: np.ndarray
    region: np.ndarray
    curves: CurveSet


def surface_grid(ensemble: Ensemble, nR: int, nQ: int, *,
                 curves: CurveSet) -> SurfaceGrid:
    """Evaluate the trade-off surface of curves on an nR x nQ grid, in one
    array pass.

    ensemble is not used: the curves hold all the surface needs.  It stays
    the first parameter for callers that pass it positionally.
    """
    _check_integers(nR=(nR, 2), nQ=(nQ, 2))
    Rs = np.linspace(0.0, curves.stats.H, nR)
    Qs = np.linspace(0.0, curves.stats.S, nQ)
    region, E = _cells(Rs[:, None], Qs[None, :], curves)
    return SurfaceGrid(Rs=Rs, Qs=Qs, E=E, region=region, curves=curves)
