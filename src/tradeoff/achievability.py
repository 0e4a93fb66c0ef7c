"""Independent achievability oracle for the trade-off surface.

The surface formula is cross-checked against rate triples (R cbits, Q
qubits, E ebits) that are achievable by construction: the coherent
(superdense-coded) points (R, (Q*(R) - Sbar)/2, (Q*(R) + Sbar)/2) of the
qubit-curve vertices.  The curve is piecewise linear and the coherent map
is affine, so every other coherent point is a time-share of two vertices,
which each query's linear program already spans.  Standard resource
conversions then trade one resource for others.  Each is a fixed direction
in (R, Q, E) cost space, added per unit of converted resource:

    Teleport:        (2, -1, 1)      a qubit is replaced by two cbits and an ebit
    SuperdenseCbits: (-1, 1/2, 1/2)  a cbit is replaced by half a qubit and
                                     half an ebit
    QubitsToEbits:   (0, 1, -1)      an ebit is replaced by a qubit

QubitsToEbits takes a coherent point to its qubit-curve point (R, Q*(R), 0)
and Teleport to its cbit-plus-ebit point (R + Q*(R) - Sbar, 0, Q*(R)), which
lies on the ebit curve past the critical rate.  So the oracle never reads
the ebit curve, which the surface formula reads.

Partial conversion is time-sharing, so a chain of conversions of any depth
is a nonnegative flow along these three directions.  Each query solves one
linear program exactly: minimize the ebit total over weights lam >= 0 on
the primitive points and flows nu >= 0, subject to sum(lam) = 1, the R and
Q totals at or under the cell and the E total at or above zero.  A small
revised simplex on these four rows answers it.  It starts from the slack
basis, whose matrix is its own inverse, and carries B^-1 through both
phases by each pivot's row operation, so a query inverts no matrix unless
A_B B^-1 ends more than COVER_TOL from the identity.  The R and Q totals
need no rows keeping them nonnegative: when a cover drives one below zero,
its flows can be changed so that every total is nonnegative and the E total
does not rise.  If the formula is right, the optimum must match it to within
discretization error, and nothing in the closure may beat it.

A grid needs far fewer solves than cells.  The reduced costs of a basis do
not depend on the right-hand side b, so a basis that is optimal for one cell
is optimal for every cell where B^-1 b >= 0, and a phase-one basis that
proves one cell uncovered proves it for every such cell whose phase-one
objective stays positive (parametric right-hand-side analysis; Bertsimas &
Tsitsiklis, Introduction to Linear Optimization, sections 5.1-5.2).  So
verify_surface solves the first unanswered cell of its grid, answers every
other cell that the new basis covers, and repeats until no cell is left:
each cell is answered by the first basis solved for the grid that covers it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optimizer import CurveSet
from .states import _check_reals
from .surface import RegionLabel

COVER_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12
DEFAULT_TOLERANCE = 2e-2
# Reduced costs, pivot entries and step lengths below this count as zero in
# the simplex; a phase-one residual above it means nothing covers the cell.
SIMPLEX_EPS = 1e-12
# Most pivots of one simplex phase.  The measured solves take at most 9; a
# solve that reaches the cap raises PivotCapReached instead of looping.
MAX_PIVOTS = 100


class PivotCapReached(ValueError):
    """A simplex phase made MAX_PIVOTS pivots without reaching an optimum;
    the CLI reports it as an error, with exit code 1."""


@dataclass(frozen=True)
class RateTriple:
    """One achievable (cbit, qubit, ebit) rate point with its derivation;
    each rate is a finite real, and one down to -NEGATIVE_CLAMP is 0."""

    R: float
    Q: float
    E: float
    provenance: str = ""

    def __post_init__(self):
        rates = {"R": self.R, "Q": self.Q, "E": self.E}
        _check_reals(least=-NEGATIVE_CLAMP, **rates)
        for name, v in rates.items():
            object.__setattr__(self, name, max(float(v), 0.0))


def primitive_points(curves: CurveSet) -> tuple:
    """The coherent point (R, (Q*(R) - Sbar)/2, (Q*(R) + Sbar)/2) of each
    qubit-curve vertex.  QubitsToEbits takes it to (R, Q*(R), 0) and
    Teleport to (R + Q*(R) - Sbar, 0, Q*(R)); every point between two
    vertices is a time-share of them."""
    sbar = curves.stats.Sbar
    return tuple(RateTriple(R, max(0.5 * (q - sbar), 0.0), 0.5 * (q + sbar),
                            f"coherent@{R:.6g}")
                 for R, q in curves.qct.samples)


def _pivot(B_inv: np.ndarray, u: np.ndarray, r: int) -> np.ndarray:
    """B^-1 once the column that B^-1 maps to u enters at row r: row r over
    u[r], and each other row i less u[i] times that."""
    row = B_inv[r] / u[r]
    B_inv = B_inv - np.outer(u, row)
    B_inv[r] = row
    return B_inv


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
             B_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Revised simplex for min c @ x subject to A @ x = b, x >= 0.

    Starts from the feasible `basis` (one column index per row, updated in
    place) and the inverse B_inv of its matrix, and returns the inverse of
    the optimal basis matrix and the basic values, those at or below
    SIMPLEX_EPS as zero.  Each pivot updates B^-1 by its row operation (the
    product form; Bertsimas & Tsitsiklis, section 3.3).  Once nothing prices
    out, a B^-1 with A_B B^-1 more than COVER_TOL from the identity is
    inverted afresh and priced again.  The entering column has the most
    negative reduced cost, or the lowest index (Bland's rule) right after a
    degenerate pivot, so the loop cannot cycle.  The objectives here are
    bounded below on the feasible set, so some basic value always limits an
    improving step.  Rounding can still revisit a basis, so the pivots are
    capped at MAX_PIVOTS, past which PivotCapReached is raised.
    """
    bland = fresh = False
    pivots = 0
    while True:
        x_B = B_inv @ b
        x_B[x_B <= SIMPLEX_EPS] = 0.0
        reduced = c - (c[basis] @ B_inv) @ A
        # Exactly 0 for a basic column, which rounding in an ill-conditioned
        # basis can push below -SIMPLEX_EPS; it would then enter in place of
        # itself, forever.
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -SIMPLEX_EPS)
        if entering.size == 0:
            residual = np.abs(A[:, basis] @ B_inv - np.eye(len(b))).max()
            if fresh or residual <= COVER_TOL:
                return B_inv, x_B
            B_inv, fresh = np.linalg.inv(A[:, basis]), True
            continue
        if pivots == MAX_PIVOTS:
            raise PivotCapReached(f"no optimum within {MAX_PIVOTS} pivots")
        pivots += 1
        j = entering[0] if bland else entering[reduced[entering].argmin()]
        u = B_inv @ A[:, j]
        rows = np.flatnonzero(u > SIMPLEX_EPS)
        ratios = x_B[rows] / u[rows]
        step = ratios.min()
        ties = rows[ratios <= step + SIMPLEX_EPS]
        r = ties[basis[ties].argmin()]
        basis[r] = j
        B_inv, fresh = _pivot(B_inv, u, r), False
        bland = step <= SIMPLEX_EPS


# Per unit of flow, each conversion's change to the (R, Q, E) totals.
CONVERSIONS = {"Teleport": (2.0, -1.0, 1.0),
               "SuperdenseCbits": (-1.0, 0.5, 0.5),
               "QubitsToEbits": (0.0, 1.0, -1.0)}
# The columns after the points and flows.
SLACKS = ("R slack", "Q slack", "E surplus", "artificial")


def _rhs(R, Q) -> np.ndarray:
    """Right-hand side of the cover rows for one cell, or one column per cell
    for arrays of rates."""
    return np.stack(np.broadcast_arrays(R + COVER_TOL, Q + COVER_TOL, 0.0,
                                        1.0))


class _Basis(NamedTuple):
    """The terminal basis of one solve: its columns, the inverse of its
    matrix and its costs.  An optimum prices every cell it is feasible for; a
    phase-one proof shows every such cell with a positive phase-one objective
    uncovered."""

    columns: np.ndarray
    inverse: np.ndarray
    costs: np.ndarray
    optimum: bool


@dataclass(frozen=True, eq=False)
class AchievableHull:
    """Primitive points whose closure under conversions and time-sharing is
    queried exactly, by one linear program per solved cell."""

    points: tuple
    # Mixes are not enumerated: each query solves for its optimal mix.
    # bench/workloads.py reads this.
    mix_count = 0

    def __post_init__(self):
        arr = np.array([(p.R, p.Q, p.E, 1.0) for p in self.points])
        flows = np.array([(*d, 0.0) for d in CONVERSIONS.values()])
        # Constraint columns, one row each for the R, Q and E totals and for
        # sum(lam) = 1: the primitive weights, the conversion flows, the R
        # and Q cover slacks, the E surplus, then the phase-one artificial.
        A = np.hstack([arr.T, flows.T, np.diag([1.0, 1.0, -1.0, 1.0])])
        # The E row reads E total - surplus = 0, so on every cover the E
        # total is the surplus: phase two minimizes that one column.
        cost = np.zeros(A.shape[1] - 1)
        cost[-1] = 1.0
        A.flags.writeable = cost.flags.writeable = False
        object.__setattr__(self, "_lp", (A, cost))
        names = (p.provenance or f"point {i}"
                 for i, p in enumerate(self.points))
        object.__setattr__(self, "_names", (*names, *CONVERSIONS, *SLACKS))
        # The terminal basis of the latest solve, for _grid_min_e to collect.
        object.__setattr__(self, "_last", None)

    @property
    def size(self) -> int:
        return len(self.points)

    def min_e(self, R: float, Q: float) -> float | None:
        """Cheapest ebit rate over the closure of the points covering (R, Q).

        Weights lam and flows nu cover (R, Q) when the R and Q totals of the
        mix plus the flows are at most R and Q up to COVER_TOL, and the E
        total is nonnegative.  Phase one starts from the two cover slacks,
        the E surplus and an artificial weight column and drives the
        artificial out; if it cannot, nothing covers the cell and None is
        returned.  Otherwise phase two minimizes the E total from there,
        priced as the E surplus, which equals it on every cover because the
        E row reads E total - surplus = 0.  A basis without the surplus then
        has basic costs of exactly zero and prices out exactly.  Costs of E
        per column price the same in exact arithmetic, but leave the reduced
        costs of the optimal face E = 0, all zero, to rounding of
        cond(B) * eps; nearly collinear vertices (zero-plus has pairs 3e-6
        apart) make those bases ill-conditioned, and a solve priced so can
        pivot among them for ever.  A phase that reaches MAX_PIVOTS raises
        PivotCapReached.  The terminal basis, priced by the costs of its
        phase, is kept until the next solve, for the grid answers of
        verify_surface.
        """
        _check_reals(R=R, Q=Q)
        A, cost = self._lp
        m = A.shape[1] - 1
        b = _rhs(R, Q)
        basis = np.arange(m - 3, m + 1)
        phase_one = np.zeros(m + 1)
        phase_one[-1] = 1.0
        # The slack basis diag(1, 1, -1, 1) is its own inverse.
        B_inv, x_B = _simplex(A, b, phase_one, basis, A[:, basis])
        optimum = bool(phase_one[basis] @ x_B <= SIMPLEX_EPS)
        if optimum:
            artificial = np.flatnonzero(basis == m)
            if artificial.size:
                # Basic at level zero: pivot it out on its row's largest
                # entry, nonzero because the other columns have rank 4.
                r = artificial[0]
                basis[r] = j = np.abs(B_inv[r] @ A[:, :m]).argmax()
                B_inv = _pivot(B_inv, B_inv @ A[:, j], r)
            B_inv, x_B = _simplex(A[:, :m], b, cost, basis, B_inv)
        costs = (cost if optimum else phase_one)[basis]
        object.__setattr__(self, "_last", _Basis(basis, B_inv, costs, optimum))
        return float(costs @ x_B) if optimum else None

    def _grid_min_e(self, R: np.ndarray, Q: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, list]:
        """min_e of each cell of the flat R and Q arrays, NaN where uncovered,
        the index of the basis that answered it and the bases solved here.

        Each iteration solves the first unanswered cell by min_e, and its
        basis answers every other unanswered cell where it is primal
        feasible: an optimum with its cost there, a phase-one proof with
        "uncovered" while its objective stays positive.  So a cell is
        answered by the first basis solved that covers it.  Only the bases
        solved in this call are read, so the answers depend on the cells
        alone.
        """
        b = _rhs(R, Q)
        values = np.full(R.size, np.nan)
        source = np.full(R.size, -1)
        unanswered = np.arange(R.size)
        bases = []
        while unanswered.size:
            first, unanswered = unanswered[0], unanswered[1:]
            e = self.min_e(float(R[first]), float(Q[first]))
            values[first] = np.nan if e is None else e
            basis = self._last
            x = basis.inverse @ b[:, unanswered]
            objective = basis.costs @ np.where(x > SIMPLEX_EPS, x, 0.0)
            answered = (x >= -SIMPLEX_EPS).all(axis=0)
            if basis.optimum:
                values[unanswered[answered]] = objective[answered]
            else:
                answered &= objective > SIMPLEX_EPS
            source[first] = source[unanswered[answered]] = len(bases)
            bases.append(basis)
            unanswered = unanswered[~answered]
        return values, source, bases

    def _describe(self, basis: _Basis, R: float, Q: float) -> str:
        """The cover that basis gives (R, Q): its nonzero basic weights, flows
        and slacks, named after their columns."""
        x = basis.inverse @ _rhs(R, Q)
        return " + ".join(f"{x[i]:.6g}·{self._names[basis.columns[i]]}"
                          for i in np.argsort(basis.columns)
                          if x[i] > SIMPLEX_EPS)


def achievable_hull(curves: CurveSet) -> AchievableHull:
    """The coherent vertex points, closed under conversions of any depth
    and time-sharing by each query's linear program, whose QubitsToEbits and
    Teleport flows reach the qubit-curve and cbit-plus-ebit points."""
    return AchievableHull(points=primitive_points(curves))


def verify_surface(grid, hull: AchievableHull, *,
                   tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Compare the surface grid against the achievability oracle.

    For each finite cell the gap min_e - E is recorded; |gap| <= tolerance is
    required in both directions (the cloud must achieve the formula and must
    not beat it).  Forbidden cells must stay uncovered except exactly on the
    causality boundary.  Violations are reported, not raised, each with the
    basis that answered its cell.  The report depends on the grid, the
    hull's points and the tolerance alone, not on earlier queries of the
    hull.  A tolerance that is not a finite, nonnegative number is raised.
    """
    _check_reals(tolerance=tolerance)
    chi = grid.curves.stats.chi
    R, Q = (a.ravel() for a in np.meshgrid(grid.Rs, grid.Qs, indexing="ij"))
    E = grid.E.ravel()
    labels = grid.region.ravel()
    oracle, source, bases = hull._grid_min_e(R, Q)

    covered = ~np.isnan(oracle)
    forbidden = np.isinf(E)
    scored = covered & ~forbidden
    gap = np.where(scored, oracle - E, np.nan)
    per_region = {}
    for label in RegionLabel:
        in_region = labels == label
        gaps = gap[in_region & scored]
        entry = {"cells": int(in_region.sum()), "max_gap": None,
                 "min_gap": None, "max_abs_gap": None}
        if gaps.size:
            entry.update(max_gap=float(gaps.max()), min_gap=float(gaps.min()),
                         max_abs_gap=float(np.abs(gaps).max()))
        per_region[label.value] = entry

    # Covering a strictly forbidden cell violates causality.
    kinds = np.select(
        [forbidden & covered & (chi - (R + 2.0 * Q) > 1e-6),
         ~forbidden & ~covered, scored & (gap < -tolerance),
         scored & (gap > tolerance)],
        ["forbidden_covered", "uncovered", "optimality", "achievability"],
        default="")
    detail = {"forbidden_covered": ("min_e", oracle),
              "uncovered": ("formula", E),
              "optimality": ("gap", gap), "achievability": ("gap", gap)}
    violations = []
    for i in np.flatnonzero(kinds != ""):
        kind = str(kinds[i])
        key, values = detail[kind]
        violations.append({"R": float(R[i]), "Q": float(Q[i]),
                           "region": labels[i].value, "kind": kind,
                           key: float(values[i]),
                           "basis": hull._describe(bases[source[i]], R[i],
                                                   Q[i])})
    return {
        "tolerance": tolerance,
        "cloud_points": hull.size,
        "mixing": "exact",
        "regions": per_region,
        "max_abs_gap": (float(np.abs(gap[scored]).max()) if scored.any()
                        else 0.0),
        "forbidden_cells": int(forbidden.sum()),
        "forbidden_covered": int((kinds == "forbidden_covered").sum()),
        "violations": violations,
    }
