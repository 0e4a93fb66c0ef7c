import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conditional_mutual_information_xa_b, random_density
from tradeoff.achievability import (
    COVER_TOL,
    AchievableHull,
    ConversionKind,
    RateTriple,
    achievable_hull,
    apply_conversion,
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


def test_conversion_examples():
    s = 0.75
    tele = apply_conversion(RateTriple(0.0, s, 0.0, "x"),
                            ConversionKind.TELEPORT)
    assert (tele.R, tele.Q, tele.E) == (2 * s, 0.0, s)
    dense = apply_conversion(RateTriple(1.0, 0.0, 0.0, "x"),
                             ConversionKind.SUPERDENSE_CBITS)
    assert (dense.R, dense.Q, dense.E) == (0.0, 0.5, 0.5)
    q2e = apply_conversion(RateTriple(0.3, 0.4, 0.2, "x"),
                           ConversionKind.QUBITS_TO_EBITS)
    assert (q2e.R, q2e.E) == (0.3, 0.0)
    assert q2e.Q == pytest.approx(0.6)


@settings(max_examples=200)
@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.lists(st.sampled_from(["T", "S", "Q"]), min_size=1, max_size=5))
def test_conversion_chains_are_exact(r, q, e, chain):
    t = RateTriple(r, q, e, "seed")
    for tag in chain:
        before = t
        if tag == "T":
            t = apply_conversion(t, ConversionKind.TELEPORT)
            assert abs(t.R - (before.R + 2 * before.Q)) <= 1e-12
            assert t.Q == 0.0
            assert abs(t.E - (before.E + before.Q)) <= 1e-12
        elif tag == "S":
            t = apply_conversion(t, ConversionKind.SUPERDENSE_CBITS)
            assert t.R == 0.0
            assert abs(t.Q - (before.Q + 0.5 * before.R)) <= 1e-12
            assert abs(t.E - (before.E + 0.5 * before.R)) <= 1e-12
        else:
            t = apply_conversion(t, ConversionKind.QUBITS_TO_EBITS)
            assert abs(t.Q - (before.Q + before.E)) <= 1e-12
            assert t.E == 0.0
        assert before.provenance in t.provenance
    assert t.provenance.count("(") == len(chain)


def test_primitive_point_families(zp_curves):
    stats = zp_curves.stats
    points = primitive_points(zp_curves)
    by_family = {}
    for p in points:
        by_family.setdefault(p.provenance.split("@")[0], []).append(p)
    assert set(by_family) == {"qct", "coherent", "qct-as-rsp", "rsp"}
    for p in by_family["qct"]:
        assert p.E == 0.0 and abs(p.Q - zp_curves.qct.value(p.R)) <= 1e-9
    for p in by_family["coherent"]:
        q = zp_curves.qct.value(p.R)
        assert abs(p.Q - 0.5 * (q - stats.Sbar)) <= 1e-9
        assert abs(p.E - 0.5 * (q + stats.Sbar)) <= 1e-9
    hc = zp_curves.critical.Hc
    for p in by_family["qct-as-rsp"]:
        assert p.Q == 0.0
        assert float(p.provenance.split("@")[1]) >= hc - 1e-6
    for p in by_family["rsp"]:
        assert p.Q == 0.0 and p.R >= stats.chi - 1e-9


def test_cloud_respects_causality(zp_hull):
    stats_chi = zp_hull.chi
    for p in zp_hull.points:
        assert stats_chi <= p.R + 2.0 * p.Q + 1e-9


def test_cloud_is_pareto_minimal(zp_hull):
    arr = np.array([(p.R, p.Q, p.E) for p in zp_hull.points])
    for i in range(len(arr)):
        le = np.all(arr <= arr[i] + 1e-12, axis=1)
        lt = np.any(arr < arr[i] - 1e-12, axis=1)
        assert not np.any(le & lt)


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


def _min_e_over_small_mixes(arr, R, Q, tol=COVER_TOL):
    """Cheapest covering mix by enumerating every basis of the three-row LP.

    Each basis pairs one to three cloud points with enough of the two cover
    slacks to make three columns, so this visits every vertex of the
    program, i.e. every mix of at most three points.
    """
    cols = [np.array([r, q, 1.0]) for r, q, _ in arr]
    cols += [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    cost = list(arr[:, 2]) + [0.0, 0.0]
    rhs = np.array([R + tol, Q + tol, 1.0])
    best = None
    for basis in itertools.combinations(range(len(cols)), 3):
        B = np.column_stack([cols[k] for k in basis])
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        x = np.linalg.solve(B, rhs)
        if x.min() < -1e-12:
            continue
        value = sum(cost[k] * xk for k, xk in zip(basis, x))
        best = value if best is None else min(best, value)
    return best


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
            expected = _min_e_over_small_mixes(arr, R, Q)
            got = hull.min_e(float(R), float(Q))
            assert (got is None) == (expected is None), (arr, R, Q)
            if got is not None:
                assert got == pytest.approx(expected, abs=1e-9), (arr, R, Q)


def test_hull_depth_validation(zp_curves):
    with pytest.raises(ValueError):
        achievable_hull(zp_curves, 0)


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
