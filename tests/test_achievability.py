import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    conditional_mutual_information_xa_b,
    random_density,
    sampled_primitive_points,
)
from tradeoff import achievability
from tradeoff.achievability import (
    COVER_TOL,
    SIMPLEX_EPS,
    AchievableHull,
    RateTriple,
    _Basis,
    _rhs,
    _simplex,
    achievable_hull,
    primitive_points,
    verify_surface,
)
from tradeoff.cli import main
from tradeoff.ensembles import builtin_ensemble
from tradeoff.export import write_verification_report
from tradeoff.optimizer import compute_curves
from tradeoff.surface import surface_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_text() -> str:
    return " ".join(README.read_text(encoding="utf-8").split())


@pytest.fixture(scope="module")
def bb84_grid():
    # The bb84-oracle benchmark workload's settings.
    bb84 = builtin_ensemble("bb84")
    curves = compute_curves(bb84, 40, multistarts=8, seed=0)
    return surface_grid(bb84, 32, 32, curves=curves)


@pytest.fixture(scope="module")
def zp_fast_grid(zero_plus):
    # The CLI tests' fast solver settings.
    curves = compute_curves(zero_plus, 10, multistarts=4, seed=0)
    return surface_grid(zero_plus, 16, 16, curves=curves)


@pytest.fixture(scope="module")
def zp_grid(zero_plus, zp_curves):
    # The zp-cli benchmark workload's settings.
    return surface_grid(zero_plus, 16, 16, curves=zp_curves)


def test_rate_triple_validation():
    with pytest.raises(ValueError):
        RateTriple(1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        RateTriple(float("inf"), 0.0, 0.0)
    with pytest.raises(ValueError, match="R=True"):
        RateTriple(True, 0.0, 0.0)  # a bool is not a rate
    clamped = RateTriple(-1e-13, 0.2, 0.3)  # numerical dust only
    assert clamped.R == 0.0


def _one_point_hull(r, q, e):
    return AchievableHull(points=(RateTriple(r, q, e),))


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
    # One coherent point per qubit-curve vertex generates the closure.
    sbar = zp_curves.stats.Sbar
    points = primitive_points(zp_curves)
    assert len(points) == len(zp_curves.qct.samples)
    for p, (R, q) in zip(points, zp_curves.qct.samples):
        assert p.provenance == f"coherent@{R:.6g}"
        assert p.R == R
        assert abs(p.Q - 0.5 * (q - sbar)) <= 1e-9
        assert abs(p.E - 0.5 * (q + sbar)) <= 1e-9
    # QubitsToEbits reaches every qubit-curve vertex, and Teleport every
    # ebit-curve vertex.
    for R, q in zp_curves.qct.samples:
        assert zp_hull.min_e(R, q) <= 1e-9
    for R, e in zp_curves.rsp.samples:
        assert zp_hull.min_e(R, 0.0) <= e + 1e-9


def test_oracle_does_not_read_the_ebit_curve(zp_curves, zp_hull):
    # Lower the interior ebit-curve vertices by a parabola that is zero at
    # both ends: subtracting a concave function keeps the curve convex, and
    # this one is small enough to keep it non-increasing.
    rsp = zp_curves.rsp
    lo, hi = rsp.rates[0], rsp.rates[-1]
    drop = 0.04 * (rsp.rates - lo) * (hi - rsp.rates) / (hi - lo) ** 2
    lowered = dataclasses.replace(
        rsp, samples=tuple(zip(rsp.rates.tolist(),
                               (rsp.values - drop).tolist())))
    doctored = achievable_hull(dataclasses.replace(zp_curves, rsp=lowered))
    assert drop[1:-1].min() > 0.0 and drop.max() > 5e-3
    for R, e in lowered.samples:
        assert doctored.min_e(R, 0.0) == pytest.approx(zp_hull.min_e(R, 0.0),
                                                       abs=1e-12)
    # So verify flags an ebit curve that claims too little entanglement.
    assert max(doctored.min_e(R, 0.0) - e for R, e in lowered.samples) > 5e-3


def test_cloud_respects_causality(zp_hull, zp_curves):
    chi = zp_curves.stats.chi
    for p in zp_hull.points:
        assert chi <= p.R + 2.0 * p.Q + 1e-9


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


def test_strictly_forbidden_cells_uncovered(zp_hull, zp_curves):
    chi = zp_curves.stats.chi
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
        hull = AchievableHull(points=tuple(RateTriple(*p) for p in arr))
        lowest = arr[:, :2].min(axis=0)
        queries = list(rng.uniform(0.0, 2.2, size=(25, 2)))
        queries.append(0.5 * lowest)  # below every point: uncovered
        for R, Q in queries:
            expected = _min_e_over_all_bases(arr, R, Q)
            got = hull.min_e(float(R), float(Q))
            assert (got is None) == (expected is None), (arr, R, Q)
            if got is not None:
                assert got == pytest.approx(expected, abs=1e-9), (arr, R, Q)


# The coherent points of zero-plus at resolution 40, 16 starts and solver
# seed 6, when starts were drawn by numpy.  Points 1 and 2 lie 3.3e-6 apart
# in R, and 4e-9 under the chords of their neighbours.
NEAR_TWIN_POINTS = (
    (0.0, 0.3004380183464281, 0.3004380183464281),
    (0.16042722339262028, 0.25062839770016165, 0.25062839770016165),
    (0.16043053432488863, 0.25062737366213483, 0.25062737366213483),
    (0.3124514139512444, 0.20379993153947407, 0.20379993153947407),
    (0.42260594205586033, 0.1702039937881749, 0.1702039937881749),
    (0.5894679670648961, 0.11964650557680453, 0.11964650557680453),
    (0.715252228050149, 0.08209770791083121, 0.08209770791083121),
    (0.8286085109185994, 0.048762124205286, 0.048762124205286),
    (0.9281449225913196, 0.02006418627936884, 0.02006418627936884),
    (1.0, 0.0, 0.0),
)


def test_empty_hull_rejected():
    # Without the check, numpy failed to stack the constraint columns.
    with pytest.raises(ValueError, match="hull needs at least one point"):
        AchievableHull(points=())


def test_near_twin_vertices_solve_exactly():
    # Pricing the E total per column, phase two reached the optimal face
    # E = 0 through bases holding points 1, 2 and 3 (condition number 5e8),
    # whose reduced costs, exactly zero there, rounded to +-1e-9; it then
    # pivoted among four of them for more than 120 s on the first query, an
    # RSP curve point of that solve.  Pricing the E surplus, it stops at
    # the optimum of each query, to the basis enumeration's value.
    arr = np.array(NEAR_TWIN_POINTS)
    hull = AchievableHull(points=tuple(RateTriple(*p) for p in arr))
    queries = [(0.2516325146557455, 0.4450683146985394)]
    queries += [(R, 2.0 * q) for R, q, _ in NEAR_TWIN_POINTS]
    queries += [(R, 0.0) for R, _, _ in NEAR_TWIN_POINTS]
    for R, Q in queries:
        expected = _min_e_over_all_bases(arr, R, Q)
        got = hull.min_e(R, Q)
        assert (got is None) == (expected is None), (R, Q)
        if got is not None:
            assert got == pytest.approx(expected, abs=1e-12), (R, Q)


def test_pivot_cap_stops_the_solve(ortho_curves, tmp_path, capsys,
                                   monkeypatch):
    # A phase that reaches MAX_PIVOTS, the README's count, raises instead of
    # looping, and a verify run whose solve does so stops with exit code 1.
    claim = re.search(r"A phase that reaches (\d+) pivots raises "
                      r"`PivotCapReached`, a `ValueError`, so the command "
                      r"stops with exit code 1\.", _readme_text())
    assert int(claim.group(1)) == achievability.MAX_PIVOTS
    monkeypatch.setattr(achievability, "MAX_PIVOTS", 1)
    with pytest.raises(achievability.PivotCapReached, match="1 pivots"):
        achievable_hull(ortho_curves).min_e(1.0, 0.5)
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "orthonormal-pair", "--grid", "4x4",
                 "--resolution", "10", "--multistarts", "4", "--out",
                 str(out)])
    assert code == 1
    assert "error: no optimum within 1 pivots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["zp", "ortho"])
def test_vertex_primitives_match_sampled_closure(name, request):
    # Every sampled curve point is a time-share of two vertices, so the
    # vertex primitives close to the same set as 128 samples per family.
    curves = request.getfixturevalue(f"{name}_curves")
    vertices = achievable_hull(curves)
    sampled = AchievableHull(points=sampled_primitive_points(curves, 128))
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
    with pytest.raises(ValueError, match="tolerance=True"):
        verify_surface(grid, ortho_hull, tolerance=True)


def test_verify_surface_flags_formula_errors(ortho, ortho_curves, ortho_hull):
    grid = surface_grid(ortho, 6, 6, curves=ortho_curves)
    doctored = grid.E.copy()
    finite = np.isfinite(doctored)
    doctored[finite] += 0.2  # formula now claims too much entanglement
    report = verify_surface(dataclasses.replace(grid, E=doctored), ortho_hull)
    assert any(v["kind"] == "optimality" for v in report["violations"])
    # Each violation names the cover that answered its cell.
    names = [p.provenance for p in ortho_hull.points]
    for violation in report["violations"]:
        assert any(name in violation["basis"] for name in names), violation


def _cells(grid):
    return [(float(R), float(Q)) for R in grid.Rs for Q in grid.Qs]


@pytest.mark.parametrize("name", ["bb84_grid", "zp_fast_grid"])
def test_grid_answers_match_per_cell_min_e(name, request):
    grid = request.getfixturevalue(name)
    R, Q = np.array(_cells(grid)).T
    values, _, _ = achievable_hull(grid.curves)._grid_min_e(R, Q)
    reference = achievable_hull(grid.curves)
    for (r, q), value in zip(_cells(grid), values):
        expected = reference.min_e(r, q)
        assert (expected is None) == np.isnan(value), (r, q)
        if expected is not None:
            assert value == pytest.approx(expected, abs=1e-12), (r, q)


def _covers(basis: _Basis, b: np.ndarray) -> np.ndarray:
    """Whether basis answers each column of b: primal feasible there and, for
    a phase-one proof, with a positive phase-one objective."""
    x = basis.inverse @ b
    feasible = (x >= -SIMPLEX_EPS).all(axis=0)
    if basis.optimum:
        return feasible
    return feasible & (basis.costs @ np.where(x > SIMPLEX_EPS, x, 0.0)
                       > SIMPLEX_EPS)


@pytest.mark.parametrize("name", ["bb84_grid", "zp_grid"])
def test_each_cell_answered_by_first_covering_basis(name, request):
    # Bases are numbered in the order solved; a violation names the basis
    # that answered its cell, which must be the first that covers it.
    grid = request.getfixturevalue(name)
    R, Q = np.array(_cells(grid)).T
    _, source, bases = achievable_hull(grid.curves)._grid_min_e(R, Q)
    covers = np.array([_covers(basis, _rhs(R, Q)) for basis in bases])
    assert covers.any(axis=0).all()
    assert np.array_equal(source, covers.argmax(axis=0))


def test_uncovered_proof_stops_at_the_cover_boundary():
    # The phase-one basis proving (0.5, 0.5) uncovered stays feasible at the
    # corner the point just covers, but its objective there is zero, so the
    # corner takes a solve of its own.
    hull = _one_point_hull(1.0, 1.0, 0.0)
    rates = np.array([0.5, 1.0 - COVER_TOL])
    values, source, _ = hull._grid_min_e(rates, rates)
    assert np.isnan(values[0]) and values[1] == 0.0
    assert list(source) == [0, 1]


def test_drifted_inverse_is_refreshed_once(zp_hull, monkeypatch):
    # The product-form inverse is checked once nothing prices out: a slack
    # inverse off by 1e-6 takes one fresh inversion, after which the solve
    # ends where the exact one does.  (0.2, 0.1) lies below the zero-plus
    # cover, so its phase-one optimum is positive and unique.
    A, _ = zp_hull._lp
    b = _rhs(0.2, 0.1)
    phase_one = np.zeros(A.shape[1])
    phase_one[-1] = 1.0
    slacks = np.arange(A.shape[1] - 4, A.shape[1])
    exact = slacks.copy()
    _, x_exact = _simplex(A, b, phase_one, exact, A[:, slacks])
    assert phase_one[exact] @ x_exact > 0.0
    assert not np.isin(exact, slacks).all()  # it pivoted
    calls = []
    inv = np.linalg.inv

    def counted(M):
        calls.append(M)
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", counted)
    drifted = slacks.copy()
    _, x_drifted = _simplex(A, b, phase_one, drifted,
                            A[:, slacks] + np.full((4, 4), 1e-6))
    assert len(calls) == 1
    assert list(drifted) == list(exact)
    assert x_drifted == pytest.approx(x_exact, abs=1e-12)


def test_grid_reuses_bases(bb84_grid, monkeypatch):
    # The README counts the cells that a bb84 grid solves, at the fixture's
    # settings; every other cell is answered by a basis already solved.
    claim = re.search(r"\((\d+) of the (\d+) cells of a (\d+)x(\d+) bb84 "
                      r"grid\)", _readme_text())
    solved, cells, nR, nQ = map(int, claim.groups())
    assert bb84_grid.E.shape == (nR, nQ) and cells == nR * nQ
    calls = []
    solve = AchievableHull.min_e

    def counted(self, R, Q, **kwargs):
        calls.append((R, Q))
        return solve(self, R, Q, **kwargs)

    monkeypatch.setattr(AchievableHull, "min_e", counted)
    report = verify_surface(bb84_grid, achievable_hull(bb84_grid.curves))
    assert report["violations"] == []
    assert len(calls) == solved


RESIDUAL_RUNS = {"zero-plus": (16, 16), "bb84": (8, 32),
                 "uniform-qubit-24": (4, 20)}  # starts, grid side


def test_readme_inverse_residual(monkeypatch):
    # The README bounds how far A_B B^-1 ends from the identity on three
    # verify runs at resolution 40 and seed 0; none may refresh B^-1, which
    # would hide the product-form drift the bound is about.
    claim = re.search(r"`A_B B\^-1` ends more than the cover tolerance (\S+) "
                      r"from the identity; on the ([^.]*) verify runs "
                      r"measured, it ended within (\S+)\.", _readme_text())
    assert float(claim.group(1)) == COVER_TOL
    names = re.split(r", | and ", claim.group(2))
    assert sorted(names) == sorted(RESIDUAL_RUNS)
    bound = float(claim.group(3))
    simplex, inv = _simplex, np.linalg.inv
    residuals, inverses = [], []

    def recorded(A, b, c, basis, B_inv):
        B_inv, x_B = simplex(A, b, c, basis, B_inv)
        residuals.append(np.abs(A[:, basis] @ B_inv - np.eye(len(b))).max())
        return B_inv, x_B

    for name, (multistarts, side) in RESIDUAL_RUNS.items():
        ensemble = builtin_ensemble(name)
        curves = compute_curves(ensemble, 40, multistarts=multistarts, seed=0)
        grid = surface_grid(ensemble, side, side, curves=curves)
        with monkeypatch.context() as patch:
            patch.setattr(achievability, "_simplex", recorded)
            patch.setattr(np.linalg, "inv",
                          lambda M: inverses.append(M) or inv(M))
            verify_surface(grid, achievable_hull(curves))
        assert residuals and max(residuals) <= bound, name
        assert not inverses, name
        residuals.clear()


def test_used_hull_verifies_like_a_fresh_one(zp_fast_grid):
    doctored = zp_fast_grid.E.copy()
    doctored[np.isfinite(doctored)] += 0.2
    grid = dataclasses.replace(zp_fast_grid, E=doctored)
    used = achievable_hull(grid.curves)
    rng = np.random.default_rng(3)
    for R, Q in rng.uniform(0.0, 1.2, size=(40, 2)):
        used.min_e(float(R), float(Q))
    fresh = verify_surface(grid, achievable_hull(grid.curves))
    assert fresh["violations"]
    assert verify_surface(grid, used) == fresh


def test_report_depends_only_on_inputs(zero_plus, zp_curves, tmp_path):
    # Bases that earlier queries solved used to answer the grid's cells too,
    # which moved the report's gaps in their last digits: HighEntanglement's
    # max_gap read -5.086032997536627e-09 here, -5.086033011414415e-09 fresh.
    grid = surface_grid(zero_plus, 16, 16, curves=zp_curves)
    used = achievable_hull(zp_curves)
    stats = zp_curves.stats
    rng = np.random.default_rng(1)
    for R, Q in rng.uniform(0.0, (stats.H, stats.S), size=(200, 2)):
        used.min_e(float(R), float(Q))
    for name, hull in (("fresh", achievable_hull(zp_curves)), ("used", used)):
        write_verification_report(verify_surface(grid, hull),
                                  tmp_path / f"{name}.json")
    assert ((tmp_path / "used.json").read_bytes()
            == (tmp_path / "fresh.json").read_bytes())


def _held_bases(hull) -> int:
    """The solved bases a hull holds, alone or in a list or tuple."""
    held = 0
    for value in vars(hull).values():
        if isinstance(value, _Basis):
            held += 1
        elif isinstance(value, (list, tuple)):
            held += sum(isinstance(item, _Basis) for item in value)
    return held


def test_hull_keeps_at_most_one_basis(zp_curves):
    hull = achievable_hull(zp_curves)
    rng = np.random.default_rng(1)
    for R, Q in rng.uniform(0.0, 1.2, size=(1000, 2)):
        hull.min_e(float(R), float(Q))
    assert _held_bases(hull) <= 1


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
