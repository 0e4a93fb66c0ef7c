"""Acceptance gate: one test per release criterion.

Each test certifies one end-to-end behavior of the package at production
solver settings (resolution 40, 32 multistarts, seed 0) and enforces its
runtime budget.  `pytest -v tests/test_acceptance.py` emits one pass/fail
line per criterion.
"""

import time

import numpy as np
import pytest

from helpers import (
    conditional_mutual_information_xa_b,
    entropic_profile_dense,
    random_channel,
    random_density,
    random_ensemble,
)
from tradeoff.achievability import achievable_hull, verify_surface
from tradeoff.ensembles import builtin_ensemble
from tradeoff.optimizer import compute_curves
from tradeoff.profiles import entropic_profile
from tradeoff.states import ensemble_stats
from tradeoff.surface import classify_region, e_star, surface_grid


@pytest.fixture(scope="module")
def ortho_production():
    ensemble = builtin_ensemble("orthonormal-pair")
    return ensemble, compute_curves(ensemble, 40, multistarts=32, seed=0)


@pytest.fixture(scope="module")
def zp_production():
    ensemble = builtin_ensemble("zero-plus")
    return ensemble, compute_curves(ensemble, 40, multistarts=32, seed=0)


def test_criterion_1_conditional_information_identity():
    # On every label/quantum/output state the identity
    # S(X:B|C) = S(B|C) - Sbar holds, and the closed-form profile agrees
    # with entropies of the literal three-register matrix.
    start = time.monotonic()
    rng = np.random.default_rng(20260815)
    worst_identity = worst_match = 0.0
    for _ in range(1000):
        e = random_ensemble(rng, int(rng.integers(2, 5)),
                            int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        ch = random_channel(rng, e.m, int(rng.integers(1, e.m + 2)))
        stats = ensemble_stats(e)
        dense = entropic_profile_dense(e, ch)
        worst_identity = max(worst_identity,
                             abs(dense.SXBgC - (dense.SBgC - stats.Sbar)))
        fast = entropic_profile(e, ch)
        for name in ("SXC", "SBgC", "SXBgC", "SXBC"):
            worst_match = max(worst_match,
                              abs(getattr(fast, name) - getattr(dense, name)))
    assert worst_identity <= 1e-9
    assert worst_match <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1: PASS ({elapsed:.1f}s, identity residual "
          f"{worst_identity:.2e}, dense match {worst_match:.2e})")


def test_criterion_2_orthonormal_pair_exact_surface(ortho_production):
    start = time.monotonic()
    ensemble, curves = ortho_production
    assert curves.qct.value(0.0) == pytest.approx(1.0, abs=1e-3)
    assert curves.qct.value(1.0) == pytest.approx(0.0, abs=1e-3)
    assert curves.rsp.value(1.0) == pytest.approx(0.0, abs=1e-3)
    assert curves.critical.Hc == pytest.approx(1.0, abs=1e-2)
    grid = surface_grid(ensemble, 20, 20, curves=curves)
    worst = 0.0
    for i, R in enumerate(grid.Rs):
        for j, Q in enumerate(grid.Qs):
            if np.isfinite(grid.E[i, j]):
                worst = max(worst,
                            abs(grid.E[i, j] - max(1.0 - R - Q, 0.0)))
    assert worst <= 1e-2
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 2: PASS ({elapsed:.1f}s, worst cell error {worst:.2e})")


def test_criterion_3_zero_cbit_line(zp_production):
    # With no classical channel the cost is linear: E*(0, Q) = S - Q for
    # Q between chi/2 and S, by both the surface formula and the
    # independently constructed achievable cloud.
    start = time.monotonic()
    ensemble, curves = zp_production
    stats = curves.stats
    hull = achievable_hull(curves)
    worst_formula = worst_oracle = 0.0
    for Q in np.linspace(0.5 * stats.chi, stats.S, 10):
        expected = stats.S - float(Q)
        formula = e_star(0.0, float(Q), curves)
        oracle = hull.min_e(0.0, float(Q))
        assert formula is not None and oracle is not None
        worst_formula = max(worst_formula, abs(formula - expected))
        worst_oracle = max(worst_oracle, abs(oracle - expected))
    assert worst_formula <= 2e-2
    assert worst_oracle <= 2e-2
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 3: PASS ({elapsed:.1f}s, formula {worst_formula:.2e}, "
          f"oracle {worst_oracle:.2e})")


def test_criterion_4_curve_mirror_identities(zp_production):
    # Trading the quantum register against entanglement maps each curve
    # onto the other: E*(R + Q*(R) - Sbar) = Q*(R) past the critical rate,
    # and Q*(R - E*(R) + Sbar) = E*(R) past chi.
    start = time.monotonic()
    _, curves = zp_production
    stats, hc = curves.stats, curves.critical.Hc
    worst_fwd = worst_back = 0.0
    for R in np.linspace(hc, stats.H, 10):
        q = curves.qct.value(float(R))
        e = curves.rsp.value(float(R) + q - stats.Sbar)
        assert e is not None
        worst_fwd = max(worst_fwd, abs(e - q))
    for R in np.linspace(stats.chi, stats.H, 10):
        e = curves.rsp.value(float(R))
        q = curves.qct.value(float(R) - e + stats.Sbar)
        assert q is not None
        worst_back = max(worst_back, abs(q - e))
    assert worst_fwd <= 2e-2
    assert worst_back <= 2e-2
    elapsed = time.monotonic() - start
    print(f"criterion 4: PASS ({elapsed:.1f}s, forward {worst_fwd:.2e}, "
          f"backward {worst_back:.2e})")


def test_criterion_5_region_boundaries(zp_production):
    # The surface is continuous across the region seams, and achievability
    # flips exactly at the causality line chi = R + 2Q.
    start = time.monotonic()
    _, curves = zp_production
    stats, hc = curves.stats, curves.critical.Hc
    eps = 1e-6
    for R in np.linspace(0.0, 0.95 * stats.H, 10):
        q_top = curves.qct.value(float(R))
        inside = e_star(float(R), max(q_top - eps, 0.0), curves)
        assert abs(inside - 0.0) <= 2e-2  # matches E = 0 in the QCT region
    for R in np.linspace(hc + 1e-3, 0.95 * stats.H, 10):
        q_mid = 0.5 * (curves.qct.value(float(R)) - stats.Sbar)
        above = e_star(float(R), q_mid + eps, curves)
        below = e_star(float(R), max(q_mid - eps, 0.0), curves)
        if below is None:
            continue  # the high-entanglement wedge is empty at this rate
        assert abs(above - below) <= 2e-2
    flip = 1e-3
    for R in np.linspace(0.0, 0.9 * stats.chi, 10):
        q_line = 0.5 * (stats.chi - float(R))
        assert e_star(float(R), q_line + flip, curves) is not None
        assert e_star(float(R), max(q_line - flip, 0.0), curves) is None
    elapsed = time.monotonic() - start
    print(f"criterion 5: PASS ({elapsed:.1f}s)")


def test_criterion_6_surface_matches_achievable_cloud(zp_production):
    start = time.monotonic()
    ensemble, curves = zp_production
    grid = surface_grid(ensemble, 8, 8, curves=curves)
    hull = achievable_hull(curves)
    for p in hull.points:
        assert curves.stats.chi <= p.R + 2.0 * p.Q + 1e-9
    report = verify_surface(grid, hull, tolerance=2e-2)
    assert report["max_abs_gap"] <= 2e-2
    assert report["violations"] == []
    assert report["forbidden_covered"] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 6: PASS ({elapsed:.1f}s, max |gap| "
          f"{report['max_abs_gap']:.2e} over {hull.size} cloud points)")


def test_criterion_7_curve_shape(ortho_production, zp_production):
    # Both curves are convex, non-increasing, floored at Sbar, and hug the
    # slope -1 line Q = S - R up to the critical rate.  Convexity and the
    # line agreement are checked in value units: vertices may sit arbitrarily
    # close together, so slope-unit checks would amplify float noise.
    start = time.monotonic()
    for _, curves in (ortho_production, zp_production):
        stats, hc = curves.stats, curves.critical.Hc
        for curve in (curves.qct, curves.rsp):
            xs, ys = curve.rates, curve.values
            assert np.all(np.diff(ys) <= 1e-6)
            assert np.all(ys >= stats.Sbar - 1e-9)
            if curve is curves.qct:
                # R + Q >= S by data processing: no slope below -1.
                assert np.all(xs + ys >= stats.S - 1e-9)
            for i in range(1, xs.size - 1):
                width = xs[i + 1] - xs[i - 1]
                if width <= 1e-12:
                    continue
                t = (xs[i] - xs[i - 1]) / width
                chord = (1.0 - t) * ys[i - 1] + t * ys[i + 1]
                assert ys[i] <= chord + 1e-6
        if hc > 0.0:
            deviation = max(
                abs(curves.qct.value(float(r)) - (stats.S - float(r)))
                for r in np.linspace(0.0, hc, 64)
            )
            assert deviation <= 5e-2
    elapsed = time.monotonic() - start
    print(f"criterion 7: PASS ({elapsed:.1f}s)")


def test_criterion_8_information_dimension_bound():
    # On 500 random label-classical states, S(X:A|B) never exceeds the
    # label budget log2 |X| or the quantum budget 2 log2 dim A.
    start = time.monotonic()
    rng = np.random.default_rng(877)
    worst_margin = -np.inf
    for _ in range(500):
        m = int(rng.integers(2, 5))
        dimA = int(rng.integers(2, 4))
        dimB = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(m))
        blocks = [random_density(rng, dimA * dimB) for _ in range(m)]
        value = conditional_mutual_information_xa_b(probs, blocks, dimA, dimB)
        bound = min(np.log2(m), 2.0 * np.log2(dimA))
        assert value <= bound + 1e-9
        worst_margin = max(worst_margin, value - bound)
    elapsed = time.monotonic() - start
    print(f"criterion 8: PASS ({elapsed:.1f}s, tightest margin "
          f"{worst_margin:.2e})")


def test_criterion_9_uniform_qubit_24():
    start = time.monotonic()
    ensemble = builtin_ensemble("uniform-qubit-24")
    curves = compute_curves(ensemble, 40, multistarts=32, seed=0)
    stats = curves.stats
    # A nearly uniform Bloch-sphere ensemble: sending one cbit buys one
    # ebit, and half a qubit plus half an ebit suffice with no cbits.
    assert e_star(1.0, 0.0, curves) == pytest.approx(1.0, abs=5e-2)
    assert e_star(0.0, 0.5, curves) == pytest.approx(0.5, abs=5e-2)
    # The low-entanglement band is exactly linear in Q at fixed R.
    for R in (0.5, 1.5, 3.0):
        q_top = curves.qct.value(R)
        q_bot = 0.5 * (q_top - stats.Sbar)
        qs = np.linspace(q_bot, q_top, 9)
        es = np.array([e_star(R, float(q), curves) for q in qs])
        chord = es[0] + (es[-1] - es[0]) * (qs - qs[0]) / (qs[-1] - qs[0])
        assert np.abs(es - chord).max() <= 2e-2
    elapsed = time.monotonic() - start
    assert elapsed < 1200.0
    print(f"criterion 9: PASS ({elapsed:.1f}s)")
