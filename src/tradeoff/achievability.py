"""Independent achievability oracle for the trade-off surface.

The surface formula is cross-checked against a point cloud of rate triples
(R cbits, Q qubits, E ebits) that are achievable by construction: points on
the two optimized curves, their coherent (superdense-coded) versions, and
everything reachable from those by short chains of standard resource
conversions.  Time-sharing closes the cloud under convex combinations.  If
the formula is right, the cheapest point of that convex closure dominating a
grid cell must match it to within discretization error, and nothing in the
closure may beat it.

Conversions implemented (consuming the left triple, producing the right):

    Teleport:        (R, Q, E) -> (R + 2Q, 0, E + Q)
    SuperdenseCbits: (R, Q, E) -> (0, Q + R/2, E + R/2)
    QubitsToEbits:   (R, Q, E) -> (R, Q + E, 0)

Time-sharing, lam * t1 + (1 - lam) * t2, is never materialized.  Each query
solves the linear program over mixing weights of the whole cloud exactly:
two cover constraints plus the unit-weight constraint make a three-row
program, which a small revised simplex answers.  Its optimal mix uses at
most three cloud points.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .optimizer import CurveSet

COVER_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12
DEFAULT_DEPTH = 2
DEFAULT_SAMPLES = 128
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


class ConversionKind(enum.Enum):
    TELEPORT = "Teleport"
    SUPERDENSE_CBITS = "SuperdenseCbits"
    QUBITS_TO_EBITS = "QubitsToEbits"


def apply_conversion(triple: RateTriple, kind: ConversionKind) -> RateTriple:
    """Apply one resource conversion to an achievable triple."""
    R, Q, E = triple.R, triple.Q, triple.E
    if kind is ConversionKind.TELEPORT:
        rates = (R + 2.0 * Q, 0.0, E + Q)
    elif kind is ConversionKind.SUPERDENSE_CBITS:
        rates = (0.0, Q + 0.5 * R, E + 0.5 * R)
    else:
        rates = (R, Q + E, 0.0)
    return RateTriple(*rates, f"{kind.value}({triple.provenance})")


_CHAIN_RULES = (ConversionKind.TELEPORT, ConversionKind.SUPERDENSE_CBITS,
                ConversionKind.QUBITS_TO_EBITS)


def _curve_samples(curve, n: int) -> np.ndarray:
    lo, hi = curve.domain
    if hi - lo <= 1e-12:
        return np.array([lo])
    grid = np.linspace(lo, hi, n)
    return np.unique(np.concatenate([grid, curve.rates]))


def primitive_points(curves: CurveSet, *,
                     n_samples: int = DEFAULT_SAMPLES) -> tuple:
    """Directly achievable triples read off the two curves.

    Four families: qubit-curve points (R, Q*(R), 0); their coherent versions
    (R, (Q*(R) - Sbar)/2, (Q*(R) + Sbar)/2); ebit-curve points (R, 0, E*(R));
    and qubit-curve points converted to cbit-plus-ebit form
    (R + Q*(R) - Sbar, 0, Q*(R)) for R at or above the critical rate.
    Rates where a curve is unachievable are skipped.
    """
    stats = curves.stats
    points = []
    qct_rates = _curve_samples(curves.qct, n_samples)
    hc = curves.critical.Hc
    if curves.qct.domain[0] <= hc <= curves.qct.domain[1]:
        qct_rates = np.unique(np.append(qct_rates, hc))
    for R in qct_rates:
        R = float(R)
        q = curves.qct.value(R)
        points.append(RateTriple(R, q, 0.0, f"qct@{R:.6g}"))
        points.append(RateTriple(R, max(0.5 * (q - stats.Sbar), 0.0),
                                 0.5 * (q + stats.Sbar), f"coherent@{R:.6g}"))
        if R >= curves.critical.Hc - 1e-12:
            points.append(RateTriple(max(R + q - stats.Sbar, 0.0), 0.0, q,
                                     f"qct-as-rsp@{R:.6g}"))
    for R in _curve_samples(curves.rsp, n_samples):
        R = float(R)
        e = curves.rsp.value(R)
        if e is None:
            continue
        points.append(RateTriple(R, 0.0, e, f"rsp@{R:.6g}"))
    return tuple(points)


def _dedupe(points) -> list:
    seen = {}
    for p in points:
        key = (round(p.R, 9), round(p.Q, 9), round(p.E, 9))
        if key not in seen:
            seen[key] = p
    return list(seen.values())


def _pareto_prune(points) -> list:
    """Drop triples dominated in all three coordinates.

    Mixing preserves domination componentwise, so pruning before time-sharing
    never raises the queried lower envelope.
    """
    arr = np.array([(p.R, p.Q, p.E) for p in points])
    n = len(points)
    keep = np.ones(n, dtype=bool)
    # Domination is transitive, so testing against all points (kept or not)
    # leaves exactly the non-dominated set.
    for i in range(n):
        le = ((arr[:, 0] <= arr[i, 0] + 1e-12) &
              (arr[:, 1] <= arr[i, 1] + 1e-12) &
              (arr[:, 2] <= arr[i, 2] + 1e-12))
        lt = ((arr[:, 0] < arr[i, 0] - 1e-12) |
              (arr[:, 1] < arr[i, 1] - 1e-12) |
              (arr[:, 2] < arr[i, 2] - 1e-12))
        if np.any(le & lt):
            keep[i] = False
    return [p for p, k in zip(points, keep) if k]


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray,
             basis: np.ndarray) -> np.ndarray:
    """Revised simplex for min c @ x subject to A @ x = b, x >= 0.

    Starts from the feasible `basis` (three column indices, updated in
    place) and returns the basic values at the optimum.  The entering column
    has the most negative reduced cost, or the lowest index (Bland's rule)
    right after a degenerate pivot, so the loop cannot cycle.  The feasible
    set here is bounded, so some basic value always limits the step.
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


@dataclass(frozen=True, eq=False)
class AchievableHull:
    """Achievable cloud whose convex closure is queried exactly per cell."""

    points: tuple
    chi: float

    def __post_init__(self):
        arr = np.array([(p.R, p.Q, p.E) for p in self.points])
        # Constraint columns: one per cloud point (R_i, Q_i, 1), then the R
        # and Q cover slacks, then the phase-one artificial for sum(lam) = 1.
        A = np.hstack([np.vstack([arr[:, 0], arr[:, 1], np.ones(len(arr))]),
                       np.eye(3)])
        cost = np.concatenate([arr[:, 2], np.zeros(2)])
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
        """Cheapest ebit rate over the convex closure of the cloud covering (R, Q).

        A mix with weights lam covers (R, Q) when sum(lam_i R_i) <= R and
        sum(lam_i Q_i) <= Q up to tol.  Phase one starts from the two cover
        slacks and an artificial weight column and drives the artificial out;
        if it cannot, nothing covers the cell and None is returned.  Phase
        two minimizes sum(lam_i E_i) from there.
        """
        A, cost = self._lp
        n = len(self.points)
        b = np.array([R + tol, Q + tol, 1.0])
        basis = np.array([n, n + 1, n + 2])
        phase_one = np.zeros(n + 3)
        phase_one[-1] = 1.0
        x_B = _simplex(A, b, phase_one, basis)
        if phase_one[basis] @ x_B > SIMPLEX_EPS:
            return None
        artificial = np.flatnonzero(basis == n + 2)
        if artificial.size:
            # Basic at level zero: pivot it out on the largest entry of its
            # row, which is nonzero because the other columns have rank 3.
            row = np.linalg.inv(A[:, basis])[artificial[0]] @ A[:, :n + 2]
            basis[artificial[0]] = np.abs(row).argmax()
        x_B = _simplex(A[:, :n + 2], b, cost, basis)
        return float(cost[basis] @ x_B)

    def provenance_samples(self, count: int = 8) -> tuple:
        step = max(len(self.points) // max(count, 1), 1)
        return tuple(p.provenance for p in self.points[::step][:count])


def check_options(*, depth: int = DEFAULT_DEPTH,
                  tolerance: float = 0.0) -> None:
    """Reject a conversion depth or a verify tolerance the oracle cannot use."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, "
                         f"got {tolerance}")


def achievable_hull(curves: CurveSet, depth: int = DEFAULT_DEPTH, *,
                    n_samples: int = DEFAULT_SAMPLES) -> AchievableHull:
    """Close the primitive points under conversion chains and time-sharing.

    Conversion chains of length up to `depth` are materialized, deduplicated
    and Pareto-pruned; time-sharing over the result is solved per query.
    """
    check_options(depth=depth)
    base = list(primitive_points(curves, n_samples=n_samples))
    frontier = list(base)
    for _ in range(depth):
        frontier = [apply_conversion(p, kind)
                    for p in frontier for kind in _CHAIN_RULES]
        base.extend(frontier)
    base = _pareto_prune(_dedupe(base))
    return AchievableHull(points=tuple(base), chi=curves.stats.chi)


def verify_surface(grid, hull: AchievableHull, *,
                   tolerance: float = 2e-2) -> dict:
    """Compare the surface grid against the achievability oracle.

    For each finite cell the gap min_e - E is recorded; |gap| <= tolerance is
    required in both directions (the cloud must achieve the formula and must
    not beat it).  Forbidden cells must stay uncovered except exactly on the
    causality boundary.  Violations are reported, not raised; a tolerance
    that is negative or not finite is.
    """
    from .surface import RegionLabel  # local import to avoid a cycle

    check_options(tolerance=tolerance)

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
                if oracle is not None and hull.chi - (R + 2.0 * Q) > 1e-6:
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
