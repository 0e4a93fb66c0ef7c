import itertools

import numpy as np
import pytest

from helpers import (
    conditional_mutual_information_xa_b,
    random_density,
    sampled_primitive_points,
)
from tradeoff.achievability import (
    COVER_TOL,
    AchievableHull,
    RateTriple,
    achievable_hull,
    primitive_points,
    verify_surface,
)
from tradeoff.surface import surface_grid


def test_rate_triple_validation():
    with pytest.raises(ValueError):
        RateTriple(1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        RateTriple(float("inf"), 0.0, 0.0)
    clamped = RateTriple(-1e-13, 0.2, 0.3)  # numerical dust only
    assert clamped.R == 0.0


def _one_point_hull(r, q, e):
    return AchievableHull(points=(RateTriple(r, q, e),), chi=0.0)


def test_conversion_examples():
    s = 0.75
    # Teleport every qubit: (0, s, 0) -> (2s, 0, s).
    assert _one_point_hull(0.0, s, 0.0).min_e(2 * s, 0.0) == pytest.approx(
        s, abs=1e-8)
    # Superdense-code every cbit: (1, 0, 0) -> (0, 1/2, 1/2).
    assert _one_point_hull(1.0, 0.0, 0.0).min_e(0.0, 0.5) == pytest.approx(
        0.5, abs=1e-8)
    # Replace every ebit by a qubit: (0.3, 0.4, 0.2) -> (0.3, 0.6, 0).
    assert _one_point_hull(0.3, 0.4, 0.2).min_e(0.3, 0.6) == pytest.approx(
        0.0, abs=1e-8)


def test_primitive_point_families(zp_curves, zp_hull):
    stats = zp_curves.stats
    points = primitive_points(zp_curves)
    by_family = {}
    for p in points:
        by_family.setdefault(p.provenance.split("@")[0], []).append(p)
    assert set(by_family) == {"qct", "coherent", "rsp"}
    for p in by_family["qct"]:
        assert p.E == 0.0 and abs(p.Q - zp_curves.qct.value(p.R)) <= 1e-9
    for p in by_family["coherent"]:
        q = zp_curves.qct.value(p.R)
        assert abs(p.Q - 0.5 * (q - stats.Sbar)) <= 1e-9
        assert abs(p.E - 0.5 * (q + stats.Sbar)) <= 1e-9
    for p in by_family["rsp"]:
        assert p.Q == 0.0 and p.R >= stats.chi - 1e-9
    # A qubit-curve point past the critical rate, converted to cbits and
    # ebits, is covered by the ebit-curve family.
    for p in by_family["qct"]:
        if p.R >= zp_curves.critical.Hc:
            assert zp_hull.min_e(p.R + p.Q - stats.Sbar, 0.0) <= p.Q + 1e-9


def test_cloud_respects_causality(zp_hull):
    stats_chi = zp_hull.chi
    for p in zp_hull.points:
        assert stats_chi <= p.R + 2.0 * p.Q + 1e-9


def test_min_e_anchor_points(zp_hull, zp_curves):
    stats = zp_curves.stats
    assert zp_hull.min_e(0.0, stats.S) == pytest.approx(0.0, abs=1e-9)
    for R in (0.65, 0.8, 0.95):
        assert zp_hull.min_e(R, 0.0) == pytest.approx(
            zp_curves.rsp.value(R), abs=2e-2)
    for Q in np.linspace(0.5 * stats.chi, stats.S, 6):
        assert zp_hull.min_e(0.0, float(Q)) == pytest.approx(
            stats.S - float(Q), abs=2e-2)


def test_min_e_monotone(zp_hull):
    values_r = [zp_hull.min_e(R, 0.1) for R in np.linspace(0.45, 1.0, 8)]
    finite = [v for v in values_r if v is not None]
    assert all(a >= b - 1e-9 for a, b in zip(finite, finite[1:]))
    values_q = [zp_hull.min_e(0.2, Q) for Q in np.linspace(0.25, 0.65, 8)]
    finite = [v for v in values_q if v is not None]
    assert all(a >= b - 1e-9 for a, b in zip(finite, finite[1:]))


def test_low_entanglement_cell_covered(zp_hull, zp_curves):
    for R in (0.1, 0.4, 0.7):
        q_curve = zp_curves.qct.value(R)
        Q = 0.75 * q_curve
        assert zp_hull.min_e(R, Q) == pytest.approx(q_curve - Q, abs=2e-2)


def test_ebit_points_convert_back_to_qubit_points(zp_hull, zp_curves):
    stats = zp_curves.stats
    for r in np.linspace(stats.chi + 0.02, stats.H, 6):
        e = zp_curves.rsp.value(float(r))
        cost = zp_hull.min_e(float(r) - e + stats.Sbar, e)
        assert cost is not None and cost <= 2e-2


def test_strictly_forbidden_cells_uncovered(zp_hull):
    chi = zp_hull.chi
    assert zp_hull.min_e(0.0, 0.1 * chi) is None
    assert zp_hull.min_e(0.2 * chi, 0.0) is None


# Teleport, SuperdenseCbits and QubitsToEbits, per unit of flow.
CONVERSION_DIRECTIONS = ((2.0, -1.0, 1.0), (-1.0, 0.5, 0.5), (0.0, 1.0, -1.0))


def _min_e_over_all_bases(arr, R, Q, tol=COVER_TOL):
    """Cheapest cover by enumerating every basis of the six-row program.

    Rows: the R and Q totals at most the cell (with slacks), the E, R and Q
    totals at least zero (with surpluses), and unit total weight.  Columns:
    one weight per cloud point, one flow per conversion, then the five
    slacks and surpluses.  Every vertex of the program is the solution of
    some nonsingular 6x6 basis, and the optimum is attained at a vertex
    because the E total is bounded below.
    """
    points = [(r, q, e, r, q, 1.0) for r, q, e in arr]
    flows = [(r, q, e, r, q, 0.0) for r, q, e in CONVERSION_DIRECTIONS]
    slacks = np.diag([1.0, 1.0, -1.0, -1.0, -1.0, 0.0])[:5]
    cols = np.vstack([points, flows, slacks]).T
    cost = np.concatenate([arr[:, 2], [e for _, _, e in CONVERSION_DIRECTIONS],
                           np.zeros(5)])
    rhs = np.array([R + tol, Q + tol, 0.0, 0.0, 0.0, 1.0])
    bases = np.array(list(itertools.combinations(range(cols.shape[1]), 6)))
    B = cols[:, bases].transpose(1, 0, 2)
    nonsingular = np.abs(np.linalg.det(B)) > 1e-12
    B, bases = B[nonsingular], bases[nonsingular]
    x = np.linalg.solve(B, rhs[None, :, None])[..., 0]
    feasible = x.min(axis=1) >= -1e-12
    if not feasible.any():
        return None
    return float((cost[bases[feasible]] * x[feasible]).sum(axis=1).min())


@pytest.mark.parametrize("seed", range(6))
def test_min_e_is_exact_convex_closure(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5, 7):
        arr = rng.uniform(0.0, 2.0, size=(n, 3))
        hull = AchievableHull(points=tuple(RateTriple(*p) for p in arr),
                              chi=0.0)
        lowest = arr[:, :2].min(axis=0)
        queries = list(rng.uniform(0.0, 2.2, size=(25, 2)))
        queries.append(0.5 * lowest)  # below every point: uncovered
        for R, Q in queries:
            expected = _min_e_over_all_bases(arr, R, Q)
            got = hull.min_e(float(R), float(Q))
            assert (got is None) == (expected is None), (arr, R, Q)
            if got is not None:
                assert got == pytest.approx(expected, abs=1e-9), (arr, R, Q)


@pytest.mark.parametrize("name", ["zp", "ortho"])
def test_vertex_primitives_match_sampled_closure(name, request):
    # Every sampled curve point is a time-share of two vertices, so the
    # vertex primitives close to the same set as 128 samples per family.
    curves = request.getfixturevalue(f"{name}_curves")
    vertices = achievable_hull(curves)
    sampled = AchievableHull(points=sampled_primitive_points(curves, 128),
                             chi=curves.stats.chi)
    assert vertices.size < sampled.size
    stats = curves.stats
    r_max, q_max = stats.H + 0.1, stats.S + 0.1
    rng = np.random.default_rng(0)
    queries = [(float(R), float(Q))
               for R in np.linspace(0.0, r_max, 12)
               for Q in np.linspace(0.0, q_max, 12)]
    queries += [tuple(map(float, rq))
                for rq in rng.uniform(0.0, 1.0, size=(100, 2)) * (r_max, q_max)]
    queries += [(float(R), 0.0) for R in np.linspace(0.0, r_max, 25)]
    queries += [(0.0, float(Q)) for Q in np.linspace(0.0, q_max, 25)]
    for R, Q in queries:
        expected = sampled.min_e(R, Q)
        got = vertices.min_e(R, Q)
        assert (got is None) == (expected is None), (R, Q)
        if got is not None:
            assert got == pytest.approx(expected, abs=1e-12), (R, Q)


def test_verify_surface_orthonormal(ortho, ortho_curves, ortho_hull):
    grid = surface_grid(ortho, 10, 10, curves=ortho_curves)
    report = verify_surface(grid, ortho_hull)
    assert report["violations"] == []
    assert report["forbidden_covered"] == 0
    assert report["max_abs_gap"] <= 1e-2
    assert report["mixing"] == "exact"
    assert sum(entry["cells"] for entry in report["regions"].values()) == 100
    assert report["cloud_points"] == ortho_hull.size
    assert report["provenance_samples"]


def test_verify_surface_flags_formula_errors(ortho, ortho_curves, ortho_hull):
    grid = surface_grid(ortho, 6, 6, curves=ortho_curves)
    doctored = grid.E.copy()
    finite = np.isfinite(doctored)
    doctored[finite] += 0.2  # formula now claims too much entanglement
    fake = type(grid)(Rs=grid.Rs, Qs=grid.Qs, E=doctored, region=grid.region,
                      curves=grid.curves, boundary_cells=grid.boundary_cells,
                      diagnostics=grid.diagnostics)
    report = verify_surface(fake, ortho_hull)
    assert any(v["kind"] == "optimality" for v in report["violations"])


def test_classical_quantum_information_dimension_bound():
    # S(X:A|B) on a classical-quantum state can exceed neither the label
    # entropy budget log2(m) nor twice the quantum budget log2(dimA).
    rng = np.random.default_rng(1234)
    for _ in range(500):
        m = int(rng.integers(2, 5))
        dimA = int(rng.integers(2, 4))
        dimB = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(m))
        blocks = [random_density(rng, dimA * dimB) for _ in range(m)]
        value = conditional_mutual_information_xa_b(probs, blocks, dimA, dimB)
        assert value <= min(np.log2(m), 2.0 * np.log2(dimA)) + 1e-9
