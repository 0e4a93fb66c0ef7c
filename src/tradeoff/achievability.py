"""Independent achievability oracle for the trade-off surface.

The surface formula is cross-checked against rate triples (R cbits, Q
qubits, E ebits) that are achievable by construction: the vertices of the
two optimized curves and their coherent (superdense-coded) versions.  The
curves are piecewise linear and the coherent map is affine, so every other
curve point is a time-share of two vertices, which each query's linear
program already spans.  Standard resource conversions then trade one
resource for others.  Each is a fixed direction in (R, Q, E) cost space,
added per unit of converted resource:

    Teleport:        (2, -1, 1)      a qubit is replaced by two cbits and an ebit
    SuperdenseCbits: (-1, 1/2, 1/2)  a cbit is replaced by half a qubit and
                                     half an ebit
    QubitsToEbits:   (0, 1, -1)      an ebit is replaced by a qubit

Partial conversion is time-sharing, so a chain of conversions of any depth
is a nonnegative flow along these three directions.  Each query solves one
linear program exactly: minimize the ebit total over weights lam >= 0 on
the primitive points and flows nu >= 0, subject to sum(lam) = 1, the R and
Q totals at or under the cell and the E total at or above zero.  A small
revised simplex on these four rows answers it.  The R and Q totals need no
rows keeping them nonnegative: when a cover drives one below zero, its
flows can be changed so that every total is nonnegative and the E total
does not rise.  If the formula is right, the optimum must match it to within
discretization error, and nothing in the closure may beat it.
"""

from dataclasses import dataclass

import numpy as np

from .optimizer import CurveSet

COVER_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12
DEFAULT_TOLERANCE = 2e-2
# Reduced costs, pivot entries and step lengths below this count as zero in
# the simplex; a phase-one residual above it means nothing covers the cell.
SIMPLEX_EPS = 1e-12


@dataclass(frozen=True)
class RateTriple:
    """One achievable (cbit, qubit, ebit) rate point with its derivation."""

    R: float
    Q: float
    E: float
    provenance: str = ""

    def __post_init__(self):
        for name in ("R", "Q", "E"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < -NEGATIVE_CLAMP:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            object.__setattr__(self, name, max(v, 0.0))


def primitive_points(curves: CurveSet) -> tuple:
    """Directly achievable triples at the vertices of the two curves.

    Three families: qubit-curve vertices (R, Q*(R), 0); their coherent
    versions (R, (Q*(R) - Sbar)/2, (Q*(R) + Sbar)/2); and ebit-curve
    vertices (R, 0, E*(R)).  Every point between two vertices of a family is
    a time-share of them, so the closure needs no other curve point.  A
    qubit-curve point at or above the critical rate, converted to
    cbit-plus-ebit form (R + Q*(R) - Sbar, 0, Q*(R)), lies on the ebit
    curve, which is that curve's shear, so it needs no family.
    """
    sbar = curves.stats.Sbar
    points = []
    for R, q in curves.qct.samples:
        points.append(RateTriple(R, q, 0.0, f"qct@{R:.6g}"))
        points.append(RateTriple(R, max(0.5 * (q - sbar), 0.0),
                                 0.5 * (q + sbar), f"coherent@{R:.6g}"))
    for R, e in curves.rsp.samples:
        points.append(RateTriple(R, 0.0, e, f"rsp@{R:.6g}"))
    return tuple(points)


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray,
             basis: np.ndarray) -> np.ndarray:
    """Revised simplex for min c @ x subject to A @ x = b, x >= 0.

    Starts from the feasible `basis` (one column index per row, updated in
    place) and returns the basic values at the optimum.  The entering column
    has the most negative reduced cost, or the lowest index (Bland's rule)
    right after a degenerate pivot, so the loop cannot cycle.  The objectives
    here are bounded below on the feasible set, so some basic value always
    limits an improving step.
    """
    bland = False
    while True:
        B_inv = np.linalg.inv(A[:, basis])
        x_B = np.maximum(B_inv @ b, 0.0)
        reduced = c - (c[basis] @ B_inv) @ A
        entering = np.flatnonzero(reduced < -SIMPLEX_EPS)
        if entering.size == 0:
            return x_B
        j = entering[0] if bland else entering[reduced[entering].argmin()]
        u = B_inv @ A[:, j]
        rows = np.flatnonzero(u > SIMPLEX_EPS)
        ratios = x_B[rows] / u[rows]
        step = ratios.min()
        ties = rows[ratios <= step + SIMPLEX_EPS]
        basis[ties[basis[ties].argmin()]] = j
        bland = step <= SIMPLEX_EPS


# Per unit of flow, each conversion's change to the (R, Q, E) totals.
CONVERSIONS = {"Teleport": (2.0, -1.0, 1.0),
               "SuperdenseCbits": (-1.0, 0.5, 0.5),
               "QubitsToEbits": (0.0, 1.0, -1.0)}


@dataclass(frozen=True, eq=False)
class AchievableHull:
    """Primitive points whose closure under conversions and time-sharing is
    queried exactly per cell."""

    points: tuple

    def __post_init__(self):
        arr = np.array([(p.R, p.Q, p.E, 1.0) for p in self.points])
        flows = np.array([(*d, 0.0) for d in CONVERSIONS.values()])
        # Constraint columns, one row each for the R, Q and E totals and for
        # sum(lam) = 1: the primitive weights, the conversion flows, the R
        # and Q cover slacks, the E surplus, then the phase-one artificial.
        A = np.hstack([arr.T, flows.T, np.diag([1.0, 1.0, -1.0, 1.0])])
        cost = np.concatenate([arr[:, 2], flows[:, 2], np.zeros(3)])
        A.flags.writeable = cost.flags.writeable = False
        object.__setattr__(self, "_lp", (A, cost))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def mix_count(self) -> int:
        """Time-share mixes stored or enumerated: always 0.

        Mixes are not enumerated; each query solves for its optimal mix.
        """
        return 0

    def min_e(self, R: float, Q: float, *, tol: float = COVER_TOL) -> float | None:
        """Cheapest ebit rate over the closure of the points covering (R, Q).

        Weights lam and flows nu cover (R, Q) when the R and Q totals of the
        mix plus the flows are at most R and Q up to tol, and the E total is
        nonnegative.  Phase one starts from the two cover slacks, the E
        surplus and an artificial weight column and drives the artificial
        out; if it cannot, nothing covers the cell and None is returned.
        Phase two minimizes the E total from there.
        """
        if not (np.isfinite(R) and np.isfinite(Q)):
            raise ValueError(f"rates must be finite, got R={R}, Q={Q}")
        A, cost = self._lp
        m = A.shape[1] - 1
        b = np.array([R + tol, Q + tol, 0.0, 1.0])
        basis = np.arange(m - 3, m + 1)
        phase_one = np.zeros(m + 1)
        phase_one[-1] = 1.0
        x_B = _simplex(A, b, phase_one, basis)
        if phase_one[basis] @ x_B > SIMPLEX_EPS:
            return None
        artificial = np.flatnonzero(basis == m)
        if artificial.size:
            # Basic at level zero: pivot it out on the largest entry of its
            # row, which is nonzero because the other columns have rank 4.
            row = np.linalg.inv(A[:, basis])[artificial[0]] @ A[:, :m]
            basis[artificial[0]] = np.abs(row).argmax()
        x_B = _simplex(A[:, :m], b, cost, basis)
        return float(cost[basis] @ x_B)

    def provenance_samples(self, count: int = 8) -> tuple:
        step = max(len(self.points) // max(count, 1), 1)
        return tuple(p.provenance for p in self.points[::step][:count])


def check_options(*, tolerance: float = 0.0) -> None:
    """Reject a verify tolerance the oracle cannot use."""
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, "
                         f"got {tolerance}")


def achievable_hull(curves: CurveSet) -> AchievableHull:
    """The primitive points at the curve vertices, closed under conversions
    of any depth and time-sharing by each query's linear program."""
    return AchievableHull(points=primitive_points(curves))


def verify_surface(grid, hull: AchievableHull, *,
                   tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Compare the surface grid against the achievability oracle.

    For each finite cell the gap min_e - E is recorded; |gap| <= tolerance is
    required in both directions (the cloud must achieve the formula and must
    not beat it).  Forbidden cells must stay uncovered except exactly on the
    causality boundary.  Violations are reported, not raised; a tolerance
    that is negative or not finite is.
    """
    from .surface import RegionLabel  # local import to avoid a cycle

    check_options(tolerance=tolerance)
    chi = grid.curves.stats.chi

    per_region = {label.value: {"cells": 0, "max_gap": None, "min_gap": None,
                                "max_abs_gap": None}
                  for label in RegionLabel}
    violations = []
    worst = 0.0
    forbidden_cells = covered_forbidden = 0
    for i, R in enumerate(grid.Rs):
        for j, Q in enumerate(grid.Qs):
            R, Q = float(R), float(Q)
            label = grid.region[i, j].value
            entry = per_region[label]
            entry["cells"] += 1
            oracle = hull.min_e(R, Q)
            if np.isinf(grid.E[i, j]):
                forbidden_cells += 1
                # Covering a strictly forbidden cell violates causality.
                if oracle is not None and chi - (R + 2.0 * Q) > 1e-6:
                    covered_forbidden += 1
                    violations.append({"R": R, "Q": Q, "region": label,
                                       "kind": "forbidden_covered",
                                       "min_e": oracle})
                continue
            formula = float(grid.E[i, j])
            if oracle is None:
                violations.append({"R": R, "Q": Q, "region": label,
                                   "kind": "uncovered", "formula": formula})
                continue
            gap = oracle - formula
            for key, fn in (("max_gap", max), ("min_gap", min)):
                entry[key] = gap if entry[key] is None else fn(entry[key], gap)
            abs_gap = abs(gap)
            entry["max_abs_gap"] = max(entry["max_abs_gap"] or 0.0, abs_gap)
            worst = max(worst, abs_gap)
            if abs_gap > tolerance:
                kind = "optimality" if gap < 0 else "achievability"
                violations.append({"R": R, "Q": Q, "region": label,
                                   "kind": kind, "gap": gap})
    return {
        "tolerance": tolerance,
        "cloud_points": hull.size,
        "mixing": "exact",
        "regions": per_region,
        "max_abs_gap": worst,
        "forbidden_cells": forbidden_cells,
        "forbidden_covered": covered_forbidden,
        "violations": violations,
        "provenance_samples": list(hull.provenance_samples()),
    }
