import numpy as np
import pytest

from tradeoff.ensembles import builtin_ensemble
from tradeoff.optimizer import compute_curves
from tradeoff.states import BipartitePureState, Ensemble
from tradeoff.surface import RegionLabel, classify_region, e_star, surface_grid


def test_region_examples(zp_curves):
    stats = zp_curves.stats
    assert classify_region(0.0, stats.S + 0.1, zp_curves) is RegionLabel.QCT
    assert (classify_region(0.0, 0.4 * stats.chi, zp_curves)
            is RegionLabel.FORBIDDEN)
    assert (classify_region(0.0, 0.9 * stats.S, zp_curves)
            is RegionLabel.LOW_ENTANGLEMENT)
    # Wedge between the causality line and half the qubit curve; it only
    # opens past the critical rate, where the curve slope is above -1.
    assert (classify_region(0.3, 0.5 * (stats.chi - 0.3) + 1e-4, zp_curves)
            is RegionLabel.HIGH_ENTANGLEMENT)


def test_negative_rates_rejected(zp_curves, zp_hull):
    with pytest.raises(ValueError):
        classify_region(-0.1, 0.5, zp_curves)
    with pytest.raises(ValueError):
        e_star(0.1, -0.5, zp_curves)
    # Phase one of the oracle would clamp a negative cover slack to zero
    # and answer as if the rate were 0.
    for R, Q in ((-0.5, 2.0), (5.0, -0.1)):
        with pytest.raises(ValueError, match="nonnegative"):
            zp_hull.min_e(R, Q)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("query, named", [
    (lambda curves, hull: curves.qct.value(NAN), "R=nan"),
    (lambda curves, hull: curves.rsp.value(NAN), "R=nan"),
    (lambda curves, hull: e_star(NAN, 0.5, curves), "R=nan"),
    (lambda curves, hull: e_star(0.5, NAN, curves), "Q=nan"),
    (lambda curves, hull: classify_region(NAN, 0.5, curves), "R=nan"),
    (lambda curves, hull: hull.min_e(NAN, 0.5), "R=nan"),
    (lambda curves, hull: hull.min_e(0.5, NAN), "Q=nan"),
    (lambda curves, hull: hull.min_e(INF, 0.5), "R=inf"),
    (lambda curves, hull: hull.min_e(0.5, -INF), "Q=-inf"),
    (lambda curves, hull: e_star(INF, 0.1, curves), "R=inf"),
    (lambda curves, hull: classify_region(0.1, INF, curves), "Q=inf"),
    (lambda curves, hull: e_star(True, 0.5, curves), "R=True"),
    (lambda curves, hull: classify_region(True, 0.5, curves), "R=True"),
    (lambda curves, hull: hull.min_e(True, 0.5), "R=True"),
    (lambda curves, hull: curves.qct.value(True), "R=True"),
    (lambda curves, hull: curves.qct.value(INF), "R=inf"),
    (lambda curves, hull: curves.rsp.value(-INF), "R=-inf"),
    (lambda curves, hull: hull.min_e(10 ** 400, 0.5), "R=1000"),
], ids=["qct.value", "rsp.value", "e_star-R", "e_star-Q", "classify_region",
        "min_e-R", "min_e-Q", "min_e-inf", "min_e-neg-inf", "e_star-inf",
        "classify_region-inf", "e_star-bool", "classify_region-bool",
        "min_e-bool", "qct.value-bool", "qct.value-inf", "rsp.value-neg-inf",
        "min_e-huge"])
def test_non_finite_rates_rejected(query, named, zp_curves, zp_hull):
    # A NaN rate must not read as unachievable, nor reach the oracle's LP,
    # and a bool is not a rate.  Unchecked, value(True) and value(inf)
    # would read the curve at R = 1 and on its flat tail; a finite negative
    # rate reads None (test_value_outside_domain).  The message stays short
    # even for an integer of 401 digits.
    with pytest.raises(ValueError, match=named) as raised:
        query(zp_curves, zp_hull)
    assert len(str(raised.value)) < 120


def test_orthonormal_has_no_high_entanglement_region(ortho_curves):
    # With Sbar = 0 and Q*(R) = chi - R the two boundaries coincide, so the
    # wedge between them is empty.
    for R in np.linspace(0.0, 1.0, 21):
        for Q in np.linspace(0.0, 1.0, 21):
            label = classify_region(float(R), float(Q), ortho_curves)
            assert label is not RegionLabel.HIGH_ENTANGLEMENT


def test_no_entanglement_needed_on_qubit_curve(zp_curves):
    for R in np.linspace(0.0, zp_curves.stats.H, 9):
        q = zp_curves.qct.value(float(R))
        assert e_star(float(R), q, zp_curves) <= 1e-6
        assert e_star(float(R), q + 0.05, zp_curves) == 0.0


def test_cells_on_qubit_curve_are_qct(zp_curves):
    # Within REGION_EPS of Q*(R), above or below, a cell is QCT and costs
    # no entanglement, at a vertex and in the middle of a segment alike.
    rates = zp_curves.qct.rates
    for R in (float(rates[5]), 0.5 * float(rates[5] + rates[6])):
        q = zp_curves.qct.value(R)
        for Q in (q - 1e-12, q, q + 1e-12):
            assert classify_region(R, Q, zp_curves) is RegionLabel.QCT
            assert e_star(R, Q, zp_curves) == 0.0


def test_zero_cbit_slice_is_linear(zp_curves):
    # At R = 0 the low-entanglement rule gives E = S - Q down to Q = chi/2.
    stats = zp_curves.stats
    for Q in np.linspace(0.5 * stats.chi, stats.S, 10):
        e = e_star(0.0, float(Q), zp_curves)
        assert e == pytest.approx(stats.S - float(Q), abs=2e-2)


def test_region_seams_are_continuous(zp_curves):
    stats, hc = zp_curves.stats, zp_curves.critical.Hc
    eps = 1e-6
    for R in np.linspace(0.0, stats.H * 0.95, 10):
        q_top = zp_curves.qct.value(float(R))
        assert abs(e_star(float(R), q_top - eps, zp_curves)) <= 2e-2
    for R in np.linspace(hc + 1e-3, stats.H * 0.95, 10):
        q_mid = 0.5 * (zp_curves.qct.value(float(R)) - stats.Sbar)
        above = e_star(float(R), q_mid + eps, zp_curves)
        below = e_star(float(R), q_mid - eps, zp_curves)
        if below is None:
            continue  # wedge already empty at this rate
        assert abs(above - below) <= 2e-2


def test_finiteness_flips_across_causality_line(zp_curves):
    stats = zp_curves.stats
    eps = 1e-3
    for R in np.linspace(0.0, stats.chi * 0.9, 7):
        q_line = 0.5 * (stats.chi - float(R))
        assert e_star(float(R), q_line + eps, zp_curves) is not None
        assert e_star(float(R), q_line - eps, zp_curves) is None


def test_high_entanglement_values_decompose(zp_curves):
    # In the wedge, E = E*(R + 2Q) - Q with the combined rate past the kink:
    # the implied coherent point must sit back on the qubit curve.
    stats, hc = zp_curves.stats, zp_curves.critical.Hc
    checked = 0
    for R in np.linspace(0.0, stats.H, 25):
        for Q in np.linspace(0.0, stats.S, 25):
            if (classify_region(float(R), float(Q), zp_curves)
                    is not RegionLabel.HIGH_ENTANGLEMENT):
                continue
            e = e_star(float(R), float(Q), zp_curves)
            combined = float(R) + 2.0 * float(Q)
            ec = zp_curves.rsp.value(combined)
            assert abs(e - (ec - float(Q))) <= 1e-9
            # Undo the qubit->cbit conversion: the residual point must sit
            # back on the qubit curve past the critical rate.
            r1 = combined - ec + stats.Sbar
            r2 = ec - 2.0 * float(Q)
            assert r1 >= hc - 2e-2
            q1 = zp_curves.qct.value(min(r1, stats.H))
            assert abs(float(Q) - 0.5 * (q1 - r2)) <= 2e-2
            checked += 1
    assert checked > 0


def test_surface_grid_shapes_and_monotonicity(zp_curves, zero_plus):
    grid = surface_grid(zero_plus, 12, 12, curves=zp_curves)
    assert grid.E.shape == (12, 12)
    finite = np.isfinite(grid.E)
    # E never increases along either axis direction of increasing rates.
    for i in range(12):
        row = grid.E[i, :]
        assert np.all(np.diff(row[np.isfinite(row)]) <= 1e-6)
    for j in range(12):
        col = grid.E[:, j]
        assert np.all(np.diff(col[np.isfinite(col)]) <= 1e-6)
    # QCT cells are exactly zero, forbidden cells exactly inf.
    for i in range(12):
        for j in range(12):
            if grid.region[i, j] is RegionLabel.QCT:
                assert grid.E[i, j] == 0.0
            if grid.region[i, j] is RegionLabel.FORBIDDEN:
                assert not finite[i, j]


def test_surface_grid_convex_along_lines(zp_curves, zero_plus):
    grid = surface_grid(zero_plus, 16, 16, curves=zp_curves)
    for axis in (0, 1):
        arr = grid.E if axis == 0 else grid.E.T
        for line in arr:
            vals = line[np.isfinite(line)]
            if vals.size < 3:
                continue
            second = np.diff(vals, 2)
            assert second.min() >= -2e-2


def test_orthonormal_surface_closed_form(ortho_curves, ortho):
    grid = surface_grid(ortho, 20, 20, curves=ortho_curves)
    for i, R in enumerate(grid.Rs):
        for j, Q in enumerate(grid.Qs):
            expected = max(1.0 - R - Q, 0.0)
            if np.isfinite(grid.E[i, j]):
                assert abs(grid.E[i, j] - expected) <= 1e-2
            else:
                assert R + 2 * Q < 1.0 - 1e-12


def test_boundary_cells_sit_on_causality_line(ortho_curves, ortho):
    grid = surface_grid(ortho, 21, 21, curves=ortho_curves)
    chi = ortho_curves.stats.chi
    on_line = np.abs(grid.Qs[None, :] - 0.5 * (chi - grid.Rs[:, None])) <= 1e-9
    assert on_line.any()
    assert np.isfinite(grid.E[on_line]).all()


@pytest.mark.parametrize("name, fixture", [("zero-plus", "zp_curves"),
                                           ("orthonormal-pair", "ortho_curves"),
                                           ("bb84", None)])
def test_grid_matches_single_cell_queries(name, fixture, request):
    # The array pass over the grid and the single-point queries must agree
    # bit for bit on every cell, inf matching None.
    ensemble = builtin_ensemble(name)
    curves = (request.getfixturevalue(fixture) if fixture
              else compute_curves(ensemble, 8, multistarts=2, seed=0))
    grid = surface_grid(ensemble, 21, 21, curves=curves)
    for i, R in enumerate(grid.Rs.tolist()):
        for j, Q in enumerate(grid.Qs.tolist()):
            value = e_star(R, Q, curves)
            assert grid.E[i, j] == (np.inf if value is None else value)
            assert grid.region[i, j] is classify_region(R, Q, curves)


def test_single_product_state_surface_is_zero():
    psi = BipartitePureState(1, 2, np.array([1.0, 0.0]))
    e = Ensemble(states=(psi,), probs=np.array([1.0]))
    curves = compute_curves(e, 8, multistarts=4, seed=0)
    for R in (0.0, 0.3, 1.0):
        for Q in (0.0, 0.2):
            assert e_star(R, Q, curves) == pytest.approx(0.0, abs=1e-9)


def test_single_entangled_state_needs_its_entanglement():
    bell = BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    e = Ensemble(states=(bell,), probs=np.array([1.0]))
    curves = compute_curves(e, 8, multistarts=4, seed=0)
    # chi = 0: everything is achievable and E = (Sbar - Q)+ at every R.
    for R in (0.0, 0.5):
        for Q in (0.0, 0.4, 1.0, 1.5):
            assert e_star(R, Q, curves) == pytest.approx(max(1.0 - Q, 0.0),
                                                         abs=1e-9)


def test_grid_validation(zero_plus, zp_curves):
    with pytest.raises(ValueError):
        surface_grid(zero_plus, 1, 8, curves=zp_curves)
    with pytest.raises(ValueError):
        surface_grid(zero_plus, 8, 1, curves=zp_curves)
    # Counts follow compute_curves' rule: 2.5 must not reach np.linspace,
    # and True is not a count.
    for nR, nQ in ((2.5, 3), (3, 2.5), (True, 3), (3, np.float64(4.0))):
        with pytest.raises(ValueError, match="must be an integer"):
            surface_grid(zero_plus, nR, nQ, curves=zp_curves)
