import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (blahut_arimoto_map, blahut_arimoto_step,
                     fixed_point_one_start, random_ensemble, seeded_channels,
                     traced_peak)
from tradeoff import optimizer
from tradeoff.achievability import primitive_points
from tradeoff.ensembles import builtin_ensemble
from tradeoff.optimizer import (
    LINE_TOL,
    MAX_ITER,
    TradeoffCurve,
    _fixed_point,
    _logits,
    _softmax_rows,
    _start_points,
    _sweep,
    compute_curves,
    critical_rate,
    minimize_profile,
    qct_curve,
    rsp_curve,
)
from tradeoff.profiles import (ZERO_OUTPUT, ClassicalChannel, entropic_profile,
                               stack_entropies)
from tradeoff.states import ensemble_stats

# Pinned outputs of deterministic runs on the |0>/|+> pair (multistarts=16,
# seed=0, resolution=40); cross-checked against the exhaustive channel grid.
FROZEN_OBJECTIVE_XC = {0.5: 0.5000000000069709, 1.0: 0.6008760366928562,
                       2.0: 0.6008760366928561}
FROZEN_OBJECTIVE_XBC = {1.0: 0.9999999999987366}
FROZEN_QCT = {0.25: 0.4460719628466642, 0.5: 0.2938365879293,
              0.75: 0.1439357476715407}
FROZEN_RSP = {0.7: 0.4397629726817988, 0.85: 0.2078234995704327}
FROZEN_HC = 0.0

README = Path(__file__).resolve().parents[1] / "README.md"


def test_mu_zero_answered_analytically(zero_plus):
    stats = ensemble_stats(zero_plus)
    channel, prof = minimize_profile(zero_plus, 0.0)
    np.testing.assert_allclose(channel.matrix[:, :2], np.eye(2))
    assert prof.SBgC == pytest.approx(stats.Sbar, abs=1e-12)
    assert prof.SXC == pytest.approx(stats.H, abs=1e-12)


def test_scalarized_minimum_pinned(zero_plus):
    for mu, expected in FROZEN_OBJECTIVE_XC.items():
        _, prof = minimize_profile(zero_plus, mu, "XC", multistarts=16, seed=0)
        assert prof.SBgC + mu * prof.SXC == pytest.approx(expected, abs=1e-9)
    for mu, expected in FROZEN_OBJECTIVE_XBC.items():
        _, prof = minimize_profile(zero_plus, mu, "XBC", multistarts=16, seed=0)
        assert prof.SBgC + mu * prof.SXBC == pytest.approx(expected, abs=1e-9)


def test_minimize_profile_validation(zero_plus):
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, -0.5)
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, float("nan"))
    with pytest.raises(ValueError, match="mu=True"):
        minimize_profile(zero_plus, True)
    with pytest.raises(ValueError,
                       match="mu must be a real number, got mu='0.5'"):
        minimize_profile(zero_plus, "0.5")
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, 1.0, kind="XB")
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, 1.0, multistarts=0)


def test_negative_seed_names_seed(zero_plus):
    # The start stream would take a negative seed's text without complaint,
    # so only this check rejects it, by name.
    with pytest.raises(ValueError, match="seed"):
        minimize_profile(zero_plus, 1.0, multistarts=2, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        compute_curves(zero_plus, 4, multistarts=2, seed=-1)


def test_frozen_curve_values(zp_curves):
    for R, expected in FROZEN_QCT.items():
        assert zp_curves.qct.value(R) == pytest.approx(expected, abs=1e-3)
    for R, expected in FROZEN_RSP.items():
        assert zp_curves.rsp.value(R) == pytest.approx(expected, abs=1e-3)


def test_curves_match_exhaustive_channel_grid(zp_curves, zp_oracle):
    # Both the solver and the grid give upper bounds on the true curves, so
    # they must agree within the combined discretization error.
    for R in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert abs(zp_curves.qct.value(R) - zp_oracle.qct_value(R)) <= 8e-3
    for R in (0.65, 0.75, 0.85, 0.95):
        assert abs(zp_curves.rsp.value(R) - zp_oracle.rsp_value(R)) <= 8e-3


def test_curve_endpoints(zp_curves):
    stats = zp_curves.stats
    assert zp_curves.qct.domain == (0.0, pytest.approx(stats.H))
    assert zp_curves.qct.value(0.0) == pytest.approx(stats.S, abs=1e-9)
    assert zp_curves.qct.value(stats.H) == pytest.approx(stats.Sbar, abs=1e-9)
    assert zp_curves.rsp.domain[0] == pytest.approx(stats.chi)
    assert zp_curves.rsp.value(stats.chi) == pytest.approx(stats.S, abs=1e-6)
    assert zp_curves.rsp.value(stats.H) == pytest.approx(stats.Sbar, abs=1e-9)


@pytest.mark.parametrize("name", ["orthonormal-pair", "bb84", "zero-plus",
                                  "single-entangled", "uniform-qubit-24"])
def test_domain_spans_the_vertices(name):
    # At the bench workloads' settings (16, 8 and 4 starts, resolution 40,
    # seed 0) each curve's domain is its vertices' span, and that span is
    # exactly [0, H] for Q* and [chi, H] for E*: the shear clips the first
    # RSP vertex to chi (to H where chi exceeds H by rounding) and maps
    # (H, Sbar) to H itself.
    ensemble = builtin_ensemble(name)
    for multistarts in (16, 8, 4):
        curves = compute_curves(ensemble, 40, multistarts=multistarts, seed=0)
        stats = curves.stats
        for curve in (curves.qct, curves.rsp):
            assert curve.domain == (curve.rates[0], curve.rates[-1])
        assert curves.qct.domain == (0.0, stats.H)
        assert curves.rsp.domain == (min(stats.chi, stats.H), stats.H)


def test_analytic_endpoints_are_exact(zp_curves, ortho_curves):
    # Solver points within SNAP of an endpoint are dropped, so the exact
    # endpoints (0, S) and (H, Sbar) are the first and last QCT vertices and
    # no rounding twin sits next to either end of either curve.
    bb84_curves = compute_curves(builtin_ensemble("bb84"), 40, multistarts=8,
                                 seed=0)
    for curves in (zp_curves, ortho_curves, bb84_curves):
        stats = curves.stats
        assert curves.qct.samples[0] == (0.0, stats.S)
        assert curves.qct.samples[-1] == (stats.H, stats.Sbar)
        last_r, last_e = curves.rsp.samples[-1]
        assert abs(last_r - stats.H) <= 1e-15
        assert abs(last_e - stats.Sbar) <= 1e-15
        for curve in (curves.qct, curves.rsp):
            lo, hi = curve.domain
            for r in curve.rates[1:-1]:
                assert lo + 1e-9 < r < hi - 1e-9


def test_value_outside_domain(zp_curves):
    stats = zp_curves.stats
    assert zp_curves.rsp.value(0.0) is None
    assert zp_curves.rsp.value(stats.chi - 1.0) is None
    assert zp_curves.qct.value(stats.H + 5.0) == pytest.approx(stats.Sbar)
    # An integer beyond numpy's int64 is still a rate.
    assert zp_curves.qct.value(2 ** 64) == pytest.approx(stats.Sbar)
    assert zp_curves.qct.value(-1.0) is None


def test_vertex_channels_reproduce_their_rates(zp_curves, zero_plus):
    # Every stored vertex channel must spend its classical budget: the
    # recomputed constraint matches the vertex rate on the decreasing part.
    stats = zp_curves.stats
    for curve, attr in ((zp_curves.qct, "SXC"), (zp_curves.rsp, "SXBC")):
        for (R, value), channel in zip(curve.samples, curve.channels):
            prof = entropic_profile(zero_plus, channel)
            constraint = min(max(getattr(prof, attr), curve.domain[0]), stats.H)
            assert abs(constraint - R) <= 1e-2
            assert abs(prof.SBgC - value) <= 1e-2


@pytest.fixture(scope="module")
def mirror_inputs(zp_curves):
    return (zp_curves, compute_curves(builtin_ensemble("uniform-qubit-5"), 10,
                                      multistarts=4, seed=0))


def test_qubit_rate_reachable_on_ebit_curve(mirror_inputs):
    # Trading the quantum register for entanglement: the point
    # (R + Q*(R) - Sbar, Q*(R)) lies on the ebit curve past the kink.  The
    # ebit curve is the shear of the points of the qubit curve's solve, so
    # this holds to rounding, at the vertices too.
    for curves in mirror_inputs:
        stats, hc = curves.stats, curves.critical.Hc
        rates = np.concatenate([np.linspace(hc, stats.H, 10),
                                curves.qct.rates[curves.qct.rates >= hc]])
        for R in rates:
            q = curves.qct.value(float(R))
            e = curves.rsp.value(float(R) + q - stats.Sbar)
            assert e is not None and abs(e - q) <= 1e-9


def test_ebit_rate_reachable_on_qubit_curve(mirror_inputs):
    for curves in mirror_inputs:
        stats = curves.stats
        rates = np.concatenate([np.linspace(stats.chi, stats.H, 10),
                                curves.rsp.rates])
        for R in rates:
            e = curves.rsp.value(float(R))
            q = curves.qct.value(float(R) - e + stats.Sbar)
            assert q is not None and abs(q - e) <= 1e-9


def test_critical_rate_orthonormal(ortho_curves):
    # Q* runs down the line R + Q = S all the way to (H, Sbar) = (1, 0).
    assert ortho_curves.critical.Hc == 1.0


def test_critical_rate_zero_plus(zp_curves):
    assert zp_curves.critical.Hc == FROZEN_HC


@pytest.mark.parametrize("name, multistarts", [("bb84", 8),
                                               ("uniform-qubit-24", 4)])
def test_critical_rate_is_zero_off_the_line(name, multistarts):
    # Q* leaves the line R + Q = S at R = 0: the second QCT vertex lies far
    # more than REFINE_TARGET above it.
    curves = compute_curves(builtin_ensemble(name), 40,
                            multistarts=multistarts, seed=0)
    (r, q), S = curves.qct.samples[1], curves.stats.S
    assert r + q - S > 10 * optimizer.REFINE_TARGET
    assert curves.critical.Hc == 0.0


def test_critical_rate_requires_qct(zp_curves):
    with pytest.raises(ValueError):
        critical_rate(zp_curves.rsp)


def test_critical_rate_without_plateau():
    # No vertex past R = 0 lies on the line R + Q = S through the first.
    curve = TradeoffCurve(kind="QCT", samples=((0.0, 0.9), (1.0, 0.0)),
                          channels=(None, None))
    assert critical_rate(curve).Hc == 0.0


def test_critical_rate_is_last_vertex_on_line():
    # S is the value at R = 0.  The vertex at 0.3 is on the line and the one
    # at 0.6 is 0.05 above it, so Hc is 0.3: the chord between them is not
    # searched for a crossing.
    curve = TradeoffCurve(kind="QCT", samples=((0.0, 1.0), (0.3, 0.7),
                                               (0.6, 0.45), (1.0, 0.3)),
                          channels=(None,) * 4)
    assert critical_rate(curve).Hc == 0.3


def test_critical_rate_matches_oracle_departure(zp_curves, zp_oracle):
    # Cross-check against the brute-force grid: Hc must sit within 5e-2 of
    # the rate where the oracle curve departs the slope -1 line Q = S - R.
    stats = zp_curves.stats
    grid = np.linspace(0.0, stats.H, 101)
    departure = 0.0
    for r in grid:
        if abs(zp_oracle.qct_value(float(r)) - (stats.S - float(r))) > 5e-3:
            break
        departure = float(r)
    assert abs(zp_curves.critical.Hc - departure) <= 5e-2


def test_curve_constructor_validation():
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=(), channels=())
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 1.0), (0.0, 0.5)),
                      channels=(None, None))
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 0.2), (1.0, 0.8)),
                      channels=(None, None))
    with pytest.raises(ValueError):  # concave kink
        TradeoffCurve(kind="QCT",
                      samples=((0.0, 1.0), (0.5, 0.9), (1.0, 0.0)),
                      channels=(None, None, None))


@pytest.mark.parametrize("samples", [((0.0, math.nan),),
                                     ((0.0, 1.0), (1.0, math.inf)),
                                     ((0.0, 1.0), (math.nan, 0.5)),
                                     ((-math.inf, 1.0), (1.0, 0.5))])
def test_curve_rejects_non_finite_samples(samples):
    with pytest.raises(ValueError, match="finite"):
        TradeoffCurve(kind="QCT", samples=samples,
                      channels=(None,) * len(samples))


@pytest.mark.parametrize("domain", [(math.nan, 1.0), (0.0, math.inf),
                                    (2.0, 1.0)])
def test_curve_rejects_bad_domain(domain):
    # The domain is read off the first and last vertices, so a curve whose
    # domain is not a finite interval fails the vertex checks.  With a NaN
    # lower bound every rate would lie inside the domain, and value(-5.0)
    # would read 1.0 instead of None.
    lo, hi = domain
    named = "strictly increasing" if np.isfinite(domain).all() else "finite"
    with pytest.raises(ValueError, match=named):
        TradeoffCurve(kind="QCT", samples=((lo, 1.0), (hi, 0.5)),
                      channels=(None, None))


@pytest.mark.parametrize("count", [0, 1, 3])
def test_curve_needs_one_channel_per_sample(count):
    with pytest.raises(ValueError, match="one channel per sample"):
        TradeoffCurve(kind="QCT", samples=((0.0, 1.0), (1.0, 0.5)),
                      channels=(None,) * count)


@pytest.mark.parametrize("x1, mu0, mu1, bound", [
    (2.0, 3.0, 0.5, 2.0 * 0.5 * 2.0 / 2.5),  # both lines: a*b*w/(a + b)
    (2.0, math.nan, 0.5, 0.5 * 2.0),         # right line only: b*w
    (2.0, 3.0, math.nan, 2.0 * 2.0),         # left line only: a*w
    (2.0, 1.0, 1.0, 0.0),                    # the chord lies on both lines
])
def test_segment_bound(x1, mu0, mu1, bound):
    # The chord from (0, 2) to (2, 0) has slope -1, so the left line of
    # slope -3 through (0, 2) falls short of it by a = 2 and the right line
    # of slope -0.5 through (2, 0) exceeds it by b = 0.5, over the width
    # w = 2.  The exact gap over the two lines is a*b*w/(a + b), at the
    # point where they meet; over one line alone it is at the other end.  A
    # NaN slope leaves that end's line out.
    lines = [(mu, y + mu * x) for mu, x, y in ((mu0, 0.0, 2.0), (mu1, x1, 0.0))
             if not math.isnan(mu)]
    slopes, intercepts = np.array(lines).T
    gaps = optimizer._segment_gaps(np.array([0.0, x1]), np.array([2.0, 0.0]),
                                   slopes, intercepts)
    assert gaps.tolist() == [pytest.approx(bound)]


def test_segment_gaps_match_dense_sample():
    # On random vertex chains and line sets, the exact gap of each segment
    # equals the largest chord - L over 4001 evenly spaced points of it, to
    # within what that spacing can miss of a concave piecewise-linear
    # function, and is never below it.
    rng = np.random.default_rng(17)
    for _ in range(40):
        xs = np.cumsum(rng.uniform(0.05, 1.0, int(rng.integers(2, 7))))
        ys = rng.uniform(-1.0, 1.0, xs.size)
        slopes = rng.uniform(-2.0, 2.0, int(rng.integers(1, 9)))
        touch = rng.uniform(xs[0], xs[-1], slopes.size)
        intercepts = (np.interp(touch, xs, ys) + slopes * touch
                      - rng.uniform(0.0, 0.5, slopes.size))
        gaps = optimizer._segment_gaps(xs, ys, slopes, intercepts)
        for i, gap in enumerate(gaps):
            x = np.linspace(xs[i], xs[i + 1], 4001)
            chord = np.interp(x, xs[i:i + 2], ys[i:i + 2])
            dense = (chord - (intercepts - np.multiply.outer(x, slopes))
                     .max(axis=1)).max()
            lipschitz = (abs(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                         + np.abs(slopes).max())
            assert dense - 1e-12 <= gap
            assert gap <= dense + lipschitz * (xs[i + 1] - xs[i]) / 4000


def test_resolution_validation(zero_plus):
    with pytest.raises(ValueError):
        qct_curve(zero_plus, resolution=1)
    with pytest.raises(ValueError):
        qct_curve(zero_plus, multistarts=0)
    # Two of a request's starts are continuation starts, so a solve needs
    # two; minimize_profile, which has none, takes one.
    with pytest.raises(ValueError, match="multistarts must be at least 2"):
        compute_curves(zero_plus, multistarts=1)
    minimize_profile(zero_plus, 0.5, multistarts=1)


@pytest.mark.parametrize("name, value", [("resolution", 2.5),
                                         ("multistarts", 2.5), ("seed", 1.5),
                                         ("multistarts", True)])
def test_solver_integers_validated(zero_plus, name, value):
    # A fractional count would fail with a TypeError from inside numpy.
    settings = {"resolution": 4, "multistarts": 2, "seed": 0, name: value}
    with pytest.raises(ValueError, match=name):
        compute_curves(zero_plus, **settings)
    if name != "resolution":
        del settings["resolution"]
        with pytest.raises(ValueError, match=name):
            minimize_profile(zero_plus, 0.5, **settings)


def test_iteration_cap_reported(zero_plus, monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITER", 1)
    curves = compute_curves(zero_plus, resolution=5, multistarts=2)
    assert curves.diagnostics
    assert "map evaluations" in curves.diagnostics[0]


def test_seed_determinism(zero_plus):
    a = compute_curves(zero_plus, resolution=8, multistarts=4, seed=3)
    b = compute_curves(zero_plus, resolution=8, multistarts=4, seed=3)
    assert a.qct.samples == b.qct.samples
    assert a.rsp.samples == b.rsp.samples
    other = compute_curves(zero_plus, resolution=8, multistarts=4, seed=4)
    assert a.qct.samples != other.qct.samples


@pytest.mark.parametrize("name, ratio", [("zero-plus", 1.0 / 0.62),
                                         ("uniform-qubit-5", 4.0),
                                         ("qutrit-3", 2.0)],
                         ids=["zero-plus-critical", "uniform-qubit-5",
                              "qutrit-3"])
def test_fixed_point_rows_independent(name, ratio, monkeypatch):
    # The lockstep solve must give each start exactly what a solve of that
    # start alone gives, whether it converges early, never, or starts from
    # the constant channel whose unused outputs are dead from the first step,
    # and whether the stack shares one ratio or mixes one per start.  The
    # eigh log step, which qubit stacks take only when patched in, tracks the
    # eigh-based per-start loop of the same extrapolation cycle by the rule
    # of `_assert_tracks`.  The qubit closed form agrees with that loop to
    # rounding too, except for a row at the zero-plus critical ratio once it
    # has extrapolated (from the third map evaluation on): its step t is
    # several hundred, and t^2 v carries one-ulp differences to 2e-11 at once
    # and 8e-11 by the 60th evaluation.
    ensemble = (random_ensemble(np.random.default_rng(7), 3, 1, 3)
                if name == "qutrit-3" else builtin_ensemble(name))
    b, p = ensemble.reduced_b, ensemble.probs
    starts = seeded_channels(ensemble.m, ensemble.m + 1, 6, [0, 0, 0])
    starts[2] = ClassicalChannel.constant(ensemble.m).matrix
    mixed = np.resize([ratio, 2.0 * ratio, ratio / 3.0], len(starts))
    amplified = set()
    for max_iter in (0, 1, 10, 60):
        for ratios in (ratio, mixed):
            channels, converged = _solve(b, p, ratios, starts, max_iter)
            dense, dense_flags = _dense_fixed_point(monkeypatch, b, p, ratios,
                                                    starts, max_iter)
            row_ratios = np.broadcast_to(ratios, len(starts)).tolist()
            for row, (start, row_ratio) in enumerate(zip(starts, row_ratios)):
                alone, alone_flag = _solve(b, p, row_ratio, start[None],
                                           max_iter)
                loop, loop_flag, loop_count = fixed_point_one_start(
                    b, p, row_ratio, start, max_iter)
                assert np.array_equal(channels[row], alone[0])
                assert converged[row] == alone_flag[0] == loop_flag
                assert dense_flags[row] == loop_flag
                dense_alone, _, points, steps = _recorded_fixed_point(
                    monkeypatch, (b, p), row_ratio, start[None], max_iter)
                assert np.array_equal(dense[row], dense_alone[0])
                if not _assert_tracks(
                        points, lambda x: _map_image(monkeypatch, (b, p), x,
                                                     row_ratio, eigh=True),
                        lambda x: blahut_arimoto_map(b, p, row_ratio, x),
                        steps, (dense[row], loop),
                        (_counts(points), [1] * loop_count), 1e-12):
                    amplified.add((max_iter, row_ratio))
                critical = (name == "zero-plus" and row_ratio == ratio
                            and max_iter >= 3)
                if ensemble.dimB == 2 and not critical:
                    np.testing.assert_allclose(channels[row], loop, rtol=0,
                                               atol=1e-12)
            if max_iter == 10 and ratios is ratio:
                # some starts converged and some hit the cap
                assert 0 < converged.sum() < len(starts)
    # Only rows at the zero-plus critical ratio may have gone unchecked.
    assert amplified <= ({(10, ratio), (60, ratio)} if name == "zero-plus"
                         else set())


def _accepted_steps(x0, x1, x2) -> list:
    """Each row's SQUAREM step t = max(|r|/|v|, 1), halved toward 1 while
    x0 + 2 t r + t^2 v has an entry <= 0, and how often it was halved."""
    steps = []
    for a, b, c in zip(x0, x1, x2):
        r, v = b - a, c - 2.0 * b + a
        norm_r, norm_v, halvings = np.linalg.norm(r), np.linalg.norm(v), 0
        t = max(norm_r / norm_v, 1.0) if norm_v > 0.0 else 1.0
        while t > 1.0 and (a + 2.0 * t * r + t ** 2 * v <= 0.0).any():
            t, halvings = max(t / 2.0, 1.0), halvings + 1
        steps.append((t, halvings))
    return steps


def test_extrapolation_keeps_to_the_interior():
    # A row whose full step x0 + 2 t r + t^2 v has an entry <= 0 takes the
    # largest t / 2^j >= 1 whose point is interior, and x2 only once t
    # reaches 1.  A point is never clipped, as the multiplicative update
    # would never revive an output clipped to zero.  Each row halves its own
    # step: at ratio 2 the stack has full steps and steps halved two or three
    # times, at ratio 5 steps that halve back to x2.
    ensemble = builtin_ensemble("zero-plus")
    b, p = ensemble.reduced_b, ensemble.probs
    ratio = np.repeat([2.0, 5.0], 8)
    x0 = np.concatenate([seeded_channels(ensemble.m, ensemble.m + 1, 8,
                                         [0, 0, 0])] * 2)
    x1, _ = _solve(b, p, ratio, x0, 1)
    x2, _ = _solve(b, p, ratio, x1, 1)
    point = optimizer._extrapolate(x0, x1.copy(), x2)
    kinds = set()
    for row, (t, halvings) in enumerate(_accepted_steps(x0, x1, x2)):
        if halvings and t == 1.0:
            kinds.add("x2")
            assert np.array_equal(point[row], x2[row])
        else:
            kinds.add("halved" if halvings else "full")
            r, v = x1[row] - x0[row], x2[row] - 2.0 * x1[row] + x0[row]
            assert (point[row] > 0.0).all()
            np.testing.assert_allclose(point[row],
                                       x0[row] + 2.0 * t * r + t ** 2 * v,
                                       rtol=0, atol=1e-12)
    assert kinds == {"full", "halved", "x2"}
    # The solve's third map evaluation is the image of that point, and no
    # output that is live in x2 is dead in it.
    x3, _ = _solve(b, p, ratio, x0, 3)
    _fixed_point(b, p, ratio, point, 1)
    assert np.array_equal(x3, point)
    live2, live3 = ((p[:, None] * x).sum(axis=1) > ZERO_OUTPUT
                    for x in (x2, x3))
    assert not (live2 & ~live3).any()


def test_fixed_point_peak_memory():
    # The part of a lockstep solve's peak that grows with its rows stays
    # under 7 stack sizes, 6.03 here (numpy 2.4.6): the cycle's three
    # iterates, v, the jump point and one product.  The solve writes each
    # start's final channel over its row, the jump reuses x1's buffer for r,
    # tries every row's full step before gathering the rows that leave, and
    # the change of a mapped jump point goes into its buffer; without these
    # reuses it holds 11.03.  Doubling the stack with a copy of each row
    # doubles only what scales with the rows, so the difference leaves out
    # allocations of fixed size, such as numpy's broadcasting buffer (about
    # 0.5 of this stack, whatever the rows).
    ensemble = builtin_ensemble("uniform-qubit-24")
    starts = seeded_channels(24, 25, 28, [0, 0, 0])
    args = ensemble.reduced_b, ensemble.probs, 2.0
    single, double = starts.copy(), np.concatenate([starts, starts])
    single_peak = traced_peak(_fixed_point, *args, single, 60)
    double_peak = traced_peak(_fixed_point, *args, double, 60)
    assert double_peak - single_peak < 7 * starts.nbytes
    # Both solves wrote over their starts, row by row alike.
    assert not np.array_equal(single, starts)
    assert np.array_equal(double, np.concatenate([single, single]))


def test_sweep_peak_memory_is_one_stack(monkeypatch):
    # A pass is one array, solved and scored in place stack by stack, so
    # what a sweep allocates above its starts is one stack's working set,
    # however many stacks the pass has: passes of 2 and 4 stacks of 28
    # uniform-qubit-24 starts peak within one stack size of each other (both
    # at 6.6 stack sizes, numpy 2.4.6).  When a pass was concatenated,
    # solved into a list of stack results, concatenated again and scored
    # whole, they peaked at 14.1 and 28.2.
    ensemble = builtin_ensemble("uniform-qubit-24")
    stack = seeded_channels(24, 25, 28, [0, 0, 0])
    monkeypatch.setattr(optimizer, "STACK_ELEMENTS", stack.size)
    peaks = []
    for stacks in (2, 4):
        points = np.concatenate([stack] * stacks)
        peaks.append(traced_peak(_sweep, ensemble, np.full(len(points), 0.5),
                                 points, 60))
    assert abs(peaks[1] - peaks[0]) < stack.nbytes


def test_fixed_point_converges_at_critical_slope(zero_plus):
    # At mu = 0.62 the plain map barely contracts: none of these 16 starts
    # converged within 500 map evaluations before extrapolation.  Now all
    # do, to the objective that 8000 plain updates reach.
    mu, multistarts = 0.62, 16
    channels = seeded_channels(zero_plus.m, zero_plus.m + 1, multistarts,
                               [0, 0, 0])
    SXC, SBgC, converged = _sweep(zero_plus, np.full(multistarts, mu),
                                  channels.copy(), 500)
    assert converged.all()
    best = (SBgC + mu * SXC).min()
    for _ in range(8000):
        channels = blahut_arimoto_map(zero_plus.reduced_b, zero_plus.probs,
                                      1.0 / mu, channels)
    SXC, SBgC = stack_entropies(zero_plus, channels)
    assert best == pytest.approx((SBgC + mu * SXC).min(), abs=1e-9)


def _record_flags(monkeypatch) -> list:
    """Record the converged flag of every start the solve runs."""
    flags = []

    def recording(*args):
        converged = _fixed_point(*args)
        flags.extend(converged.tolist())
        return converged

    monkeypatch.setattr(optimizer, "_fixed_point", recording)
    return flags


def test_zero_plus_starts_all_converge(zero_plus, monkeypatch):
    flags = _record_flags(monkeypatch)
    compute_curves(zero_plus, 40, multistarts=16, seed=0)
    assert flags and all(flags)


@pytest.mark.parametrize("name", ["zero-plus", "bb84", "uniform-qubit-24",
                                  "qutrit-3"])
def test_free_value_brackets_objective(name):
    # The free value L(x) = -mu sum_i p_i log2 Z_i of the stopping rule lies
    # between the objective J = S(B|C) + mu S(X:C) at x and at its image:
    # J(F(x)) <= L(x) <= J(x), along 30 plain updates from random starts at
    # four slopes.  The qutrit ensemble takes the eigh log step.
    ensemble = (random_ensemble(np.random.default_rng(7), 3, 1, 3)
                if name == "qutrit-3" else builtin_ensemble(name))
    b, p = ensemble.reduced_b, ensemble.probs
    for mu in (0.05, 0.3, 0.62, 0.9):
        channels = seeded_channels(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
        SXC, SBgC = stack_entropies(ensemble, channels)
        objective = SBgC + mu * SXC
        for _ in range(30):
            channels, value = blahut_arimoto_step(b, p, 1.0 / mu, channels)
            SXC, SBgC = stack_entropies(ensemble, channels)
            image = SBgC + mu * SXC
            assert (value <= objective + 1e-10).all()
            assert (image <= value + 1e-10).all()
            objective = image


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the free-value rule counts starts "
                          "that plain steps still lower as converged")
def test_converged_starts_are_stationary():
    # A start flagged converged is where plain updates leave it: 3000 more
    # map evaluations from its end point lower J = S(B|C) + mu S(X:C) by at
    # most LINE_TOL.  On uniform-qubit-24 at mu = 0.3 all 32 starts stop by
    # the free-value rule, and plain steps lower J by 2.3e-5 to 5.5e-4.
    ensemble, mu, count = builtin_ensemble("uniform-qubit-24"), 0.3, 32
    points = seeded_channels(ensemble.m, ensemble.m + 1, count, [0, 0, 7])
    SXC, SBgC, converged = _sweep(ensemble, np.full(count, mu), points,
                                  MAX_ITER)
    logits = _logits(ensemble.reduced_b, ensemble.probs)
    weight = np.full(count, 1.0 / mu)
    for _ in range(3000):
        points = logits(points, weight)
        _softmax_rows(points)
    SXC_end, SBgC_end = stack_entropies(ensemble, points)
    drop = (SBgC + mu * SXC) - (SBgC_end + mu * SXC_end)
    assert drop[converged].max(initial=0.0) <= LINE_TOL


def test_uniform_qubit_24_caps_no_start(monkeypatch):
    # Its starts at mu 0.18-0.33 drift along a nearly flat orbit of the
    # near-symmetric ensemble and used to run to the cap of 500 map
    # evaluations (25 of 64); the free-value rule stops each of them.
    flags = _record_flags(monkeypatch)
    compute_curves(builtin_ensemble("uniform-qubit-24"), 40, multistarts=4,
                   seed=0)
    assert len(flags) == 64 and all(flags)


def _count_map_evaluations(monkeypatch) -> list:
    """Count every map evaluation of every stack the solve runs, in a
    one-element list."""
    count, kernel = [0], optimizer._logits

    def counting(*args):
        logits = kernel(*args)

        def counted(*call_args):
            count[0] += 1
            return logits(*call_args)
        return counted
    monkeypatch.setattr(optimizer, "_logits", counting)
    return count


@pytest.mark.parametrize("name, multistarts, budget", [
    ("zero-plus", 16, 150), ("uniform-qubit-24", 4, 400)])
def test_halved_jumps_save_map_evaluations(name, multistarts, budget,
                                           monkeypatch):
    # At resolution 40, seed 0, these solves took 611 and 798 map
    # evaluations while a jump that left the simplex dropped to x2; halving
    # its step toward 1 keeps most of the acceleration.  The random starts
    # are pinned to seeded_channels, so that the bound checks the halving
    # and not the draw: these take 108 and 330 (105 and 345 from the
    # solve's own starts).
    monkeypatch.setattr(optimizer, "_start_points", seeded_channels)
    count = _count_map_evaluations(monkeypatch)
    compute_curves(builtin_ensemble(name), 40, multistarts=multistarts,
                   seed=0)
    assert 0 < count[0] <= budget


def test_bb84_stops_within_100_map_evaluations(monkeypatch):
    # On bb84's flat mu = 1/2 face one start used to reach the cap; now
    # every start stops within 100 map evaluations, so that cap gives the
    # same curves as the default one.
    ensemble = builtin_ensemble("bb84")
    flags = _record_flags(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "MAX_ITER", 100)
        capped = compute_curves(ensemble, 40, multistarts=8, seed=0)
    assert flags and all(flags)
    curves = compute_curves(ensemble, 40, multistarts=8, seed=0)
    assert capped.qct.samples == curves.qct.samples
    assert capped.rsp.samples == curves.rsp.samples


@pytest.mark.parametrize("name, multistarts", [("zero-plus", 16),
                                               ("uniform-qubit-24", 4)])
def test_no_near_twin_vertices(name, multistarts):
    # Every interior vertex of either curve lies more than LINE_TOL under
    # the chord of its neighbours: a continuation start that converges back
    # next to its segment end adds no vertex.
    curves = compute_curves(builtin_ensemble(name), 40,
                            multistarts=multistarts, seed=0)
    for curve in (curves.qct, curves.rsp):
        x, y = curve.rates, curve.values
        chord = y[:-2] + (y[2:] - y[:-2]) * (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
        assert (chord - y[1:-1] > optimizer.LINE_TOL).all()


def _record_certificates(monkeypatch) -> list:
    """Record every (vertices, values, slopes, intercepts) that the solve
    passes to _segment_gaps: the QCT and then the RSP certificate of each
    pass, the final ones last."""
    segment_gaps, calls = optimizer._segment_gaps, []

    def recording(*args):
        calls.append((*args, segment_gaps(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(optimizer, "_segment_gaps", recording)
    return calls


def test_lines_lie_below_every_point(monkeypatch):
    # Each solved multiplier's line runs through the lowest collected point
    # in its direction, so it lies on or below every point, the analytic
    # endpoints included, and touches one; on the RSP side, each sheared
    # line does so for the sheared points.  On uniform-qubit-24 the 4 starts
    # of the low multipliers miss the identity channel, so its endpoint is
    # the point that holds their lines down.
    ensemble = builtin_ensemble("uniform-qubit-24")
    sides, points = optimizer._sides, []

    def recording(xs, ys, mus, stats):
        points.append((xs, ys, mus))
        return sides(xs, ys, mus, stats)

    monkeypatch.setattr(optimizer, "_sides", recording)
    calls = _record_certificates(monkeypatch)
    stats = compute_curves(ensemble, 40, multistarts=4, seed=0).stats
    xs, ys, mus = points[-1]
    assert len(mus) > 2
    sheared = np.clip(xs + (ys - stats.Sbar), stats.chi, stats.H)
    for x, (_, _, slopes, intercepts, _) in zip((xs, sheared), calls[-2:]):
        above = intercepts - np.multiply.outer(x, slopes) - ys[:, None]
        assert above.max() <= 1e-12
        assert np.abs(above.max(axis=0)).max() <= 1e-12


def test_bb84_gap_is_closed(monkeypatch):
    # The bb84 curves are straight, and the one solved multiplier, mu = 1/2,
    # has the chord of either curve's one segment as its line, up to the
    # rounding of one point's entropies (7e-16 in its intercept), which the
    # shear multiplies by 1/(1 - mu).  The per-vertex bound of the old
    # ladder reported gaps of 0.5 and 1.0 here.
    calls = _record_certificates(monkeypatch)
    curves = compute_curves(builtin_ensemble("bb84"), 40, multistarts=8,
                            seed=0)
    assert len(curves.qct.samples) == len(curves.rsp.samples) == 2
    (*_, qct_gaps), (*_, rsp_gaps) = calls[-2:]
    assert qct_gaps.size == rsp_gaps.size == 1
    assert qct_gaps[0] < 1e-15
    assert rsp_gaps[0] < 1e-15 / (1.0 - 0.5)


def test_pure_ensembles_end_exactly():
    # Pure states have Sbar exactly 0, so both curves end exactly at
    # (H, Sbar) and bb84's primitive triples are distinct.
    for name, multistarts in (("bb84", 8), ("zero-plus", 16)):
        curves = compute_curves(builtin_ensemble(name), 40,
                                multistarts=multistarts, seed=0)
        stats = curves.stats
        assert stats.Sbar == 0.0
        assert curves.qct.samples[-1] == (stats.H, stats.Sbar)
        assert curves.rsp.samples[-1] == (stats.H, stats.Sbar)
        if name == "bb84":
            triples = np.array([(p.R, p.Q, p.E)
                                for p in primitive_points(curves)])
            apart = np.abs(triples[:, None] - triples[None]).max(axis=-1)
            np.fill_diagonal(apart, np.inf)
            assert apart.min() > 1e-12


def test_sweep_stacks_match_one_mu_sweeps(monkeypatch):
    # A sweep cuts the starts of all its multipliers into consecutive stacks
    # of at most STACK_ELEMENTS entries and scores each with one
    # stack_entropies call as soon as it is solved; a stack that mixes
    # multipliers, one of them with an extra start, changes no outcome.
    _check_sweep_stacks(monkeypatch, extra=1, cap_rows=2, mixing=2,
                        holding=1)


@pytest.mark.parametrize("extra, cap_rows, mixing, holding",
                         [(9, 2, 2, 2), (0, 0, 1, 3)],
                         ids=["over-the-cap", "one-row"])
def test_sweep_splits_a_multiplier_over_the_cap(extra, cap_rows, mixing,
                                                holding, monkeypatch):
    # The starts of one multiplier that exceed the cap are split across
    # stacks, and a cap below one start leaves one start per stack; neither
    # changes an outcome.
    _check_sweep_stacks(monkeypatch, extra, cap_rows, mixing, holding)


def _check_sweep_stacks(monkeypatch, extra, cap_rows, mixing, holding):
    """Sweep 7 multipliers of 3 starts, the fifth with `extra` more, under a
    cap of cap_rows * 3 starts (one entry where cap_rows is 0).  Every stack
    holds at most the cap or one start, at most `mixing` multipliers share a
    stack, the fifth's starts run in `holding` stacks, one stack_entropies
    call scores each stack right after its solve, and every output equals
    the one-mu sweeps'."""
    ensemble = builtin_ensemble("uniform-qubit-5")
    mus = np.geomspace(0.05, 20.0, 7).tolist()
    multistarts, first_index, max_iter = 3, 11, 80
    m, k = ensemble.m, ensemble.m + 1
    starts = [seeded_channels(m, k, multistarts + extra * (i == 4),
                              [0, 0, first_index + i])
              for i in range(len(mus))]
    singles = []
    for mu, start in zip(mus, starts):
        solved = start.copy()
        SXC, SBgC, converged = _sweep(ensemble, np.full(len(start), mu),
                                      solved, max_iter)
        singles.append((SXC, SBgC, solved, converged))
    cap = cap_rows * multistarts * m * k + 1
    monkeypatch.setattr(optimizer, "STACK_ELEMENTS", cap)

    stacks, events = [], []

    def recording(reduced_b, probs, ratio, channels, max_iter):
        stacks.append((channels.shape, np.asarray(ratio).tolist()))
        events.append(("solve", len(channels)))
        return _fixed_point(reduced_b, probs, ratio, channels, max_iter)

    def scoring(ensemble, channels):
        events.append(("score", len(channels)))
        return stack_entropies(ensemble, channels)

    monkeypatch.setattr(optimizer, "_fixed_point", recording)
    monkeypatch.setattr(optimizer, "stack_entropies", scoring)
    points = np.concatenate(starts)
    SXC, SBgC, converged = _sweep(ensemble,
                                  np.repeat(mus, list(map(len, starts))),
                                  points, max_iter)
    total = len(points)
    assert events == [(event, shape[0]) for shape, _ in stacks
                      for event in ("solve", "score")]
    assert sum(shape[0] for shape, _ in stacks) == total
    for (rows, m, k), _ in stacks:
        assert rows == 1 or rows * m * k <= cap
    assert len(stacks) == (total if cap_rows == 0
                           else -(-total // (cap_rows * multistarts)))
    assert max(len(set(ratios)) for _, ratios in stacks) == mixing
    assert sum(1.0 / mus[4] in ratios for _, ratios in stacks) == holding
    # Each output array (S(X:C), S(B|C), the solved channels and the
    # converged flags) holds the starts of every mu in order, as the one-mu
    # sweeps do.
    for grouped, alone in zip((SXC, SBgC, points, converged), zip(*singles)):
        assert len(grouped) == total
        assert [len(part) for part in alone] == list(map(len, starts))
        assert np.array_equal(grouped, np.concatenate(alone))


def _record_sweeps(monkeypatch) -> list:
    """Record every _sweep call as the multipliers of its requests and the
    starts of each: a request's rows are consecutive and share a multiplier
    that no other request of the pass has."""
    calls = []

    def recording(ensemble, mus, points, max_iter):
        cuts = np.flatnonzero(np.diff(mus)) + 1
        calls.append((mus[np.r_[0, cuts]].tolist(),
                      np.split(points.copy(), cuts)))
        return _sweep(ensemble, mus, points, max_iter)

    monkeypatch.setattr(optimizer, "_sweep", recording)
    return calls


def test_one_solve_serves_both_curves(zero_plus, monkeypatch):
    # compute_curves solves once, for both curves, and refines both within
    # one budget of `resolution` multipliers; qct_curve and rsp_curve return
    # the halves of that same solve.
    calls = _record_sweeps(monkeypatch)
    curves = compute_curves(zero_plus, 8, multistarts=2)
    stats = curves.stats
    # Pass 0 is the one chord from (0, S) to (H, Sbar), the same line on
    # both curves.
    assert calls[0][0] == [pytest.approx(stats.chi / stats.H, abs=1e-15)]
    assert 1 < len(calls) and sum(len(mus) for mus, _ in calls) <= 8
    assert all(0.0 < mu < 1.0 for mus, _ in calls for mu in mus)
    assert qct_curve(zero_plus, 8, multistarts=2).samples == curves.qct.samples
    assert rsp_curve(zero_plus, 8, multistarts=2).samples == curves.rsp.samples


def test_continuation_starts(zero_plus, monkeypatch):
    # Two of each request's starts are the channels at its segment's ends,
    # mixed 0.98/0.02 with the uniform channel, so no entry is zero: pass 0
    # continues from the constant and identity channels.
    calls = _record_sweeps(monkeypatch)
    compute_curves(zero_plus, 40, multistarts=4, seed=0)
    k = zero_plus.m + 1
    first = calls[0][1][0]
    for warm, channel in zip(first, (ClassicalChannel.constant(zero_plus.m),
                                     ClassicalChannel.identity(zero_plus.m))):
        np.testing.assert_allclose(warm, 0.98 * channel.matrix + 0.02 / k,
                                   rtol=0, atol=1e-15)
    for _, starts in calls:
        for request in starts:
            assert len(request) == 4
            assert (request > 0.0).all()


def test_request_seed_keys(zero_plus, monkeypatch):
    # Request j of the solve draws its random starts from (seed, 0, j).
    keys, start_points = [], optimizer._start_points

    def recording(m, k, count, seed_key):
        keys.append(list(seed_key))
        return start_points(m, k, count, seed_key)

    monkeypatch.setattr(optimizer, "_start_points", recording)
    calls = _record_sweeps(monkeypatch)
    compute_curves(zero_plus, 40, multistarts=4, seed=5)
    requests = sum(len(mus) for mus, _ in calls)
    assert requests > 1
    assert keys == [[5, 0, j] for j in range(requests)]


@pytest.mark.parametrize("seed", [0, 2 ** 80 + 7])
def test_start_uniforms_are_random_calls(seed):
    # The starts' uniforms are what successive random() calls of the key's
    # stream return, bit for bit, and their logits are those of
    # random.gauss(0, 2) calls, to the last bits of cos, sin and log; an odd
    # count of entries takes the first of a Box-Muller pair, as gauss does.
    key = [seed, 0, 3]
    stream = optimizer._stream(key)
    expected = [stream.random() for _ in range(1001)]
    uniforms = optimizer._uniforms(optimizer._stream(key), 1001)
    assert uniforms.tolist() == expected
    for m, k, count in ((3, 4, 5), (3, 3, 1)):
        stream = optimizer._stream(key)
        logits = np.array([stream.gauss(0.0, 2.0)
                           for _ in range(m * k * count)])
        logits = logits.reshape(count, m, k)
        _softmax_rows(logits)
        np.testing.assert_allclose(_start_points(m, k, count, key), logits,
                                   rtol=1e-13, atol=0)


def test_starts_ignore_the_hash_seed():
    # The stream is seeded by the key's text, which Python turns into a
    # seed without hash(), so processes with other hash seeds draw the
    # same starts.
    code = ("from tradeoff.optimizer import _start_points; "
            "print(_start_points(3, 4, 5, [7, 0, 2]).tobytes().hex())")
    drawn = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONHASHSEED": hash_seed}
                            ).stdout.strip()
             for hash_seed in ("0", "4242")}
    assert drawn == {_start_points(3, 4, 5, [7, 0, 2]).tobytes().hex()}


def test_beaten_solve_is_re_solved(zero_plus, monkeypatch):
    # With two map evaluations per start, the starts of a multiplier can
    # lose to a point from another request.  The multiplier is then
    # re-solved once, within the budget, with that point's channel as an
    # extra start, and the diagnostics name it.
    calls = _record_sweeps(monkeypatch)
    monkeypatch.setattr(optimizer, "MAX_ITER", 2)
    curves = compute_curves(zero_plus, 12, multistarts=4, seed=0)
    requests = [(mu, len(starts)) for mus, batch in calls
                for mu, starts in zip(mus, batch)]
    assert len(requests) <= 12
    again = [mu for mu, count in requests if count == 5]
    notes = [d for d in curves.diagnostics if "lost to another" in d]
    assert again and len(notes) == 1
    for mu in again:
        assert (mu, 4) in requests[:requests.index((mu, 5))]
        assert f"{mu:.6g}" in notes[0]


def _solve(reduced_b, probs, ratio, starts, max_iter) -> tuple:
    """`_fixed_point` on a copy of starts, which is left as it was: the
    solved copy and the converged flags."""
    channels = starts.copy()
    return channels, _fixed_point(reduced_b, probs, ratio, channels, max_iter)


def _dense_fixed_point(monkeypatch, *args):
    """`_solve` with the eigh log step for every dimB."""
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_bloch_log", optimizer._eigh_log)
        return _solve(*args)


def _recorded_fixed_point(monkeypatch, args, ratio, starts, max_iter,
                          eigh=True):
    """`_dense_fixed_point` from starts, or `_solve` unless eigh, with the
    points it maps and the largest step t of each of its jumps."""
    kernel, extrapolate = optimizer._logits, optimizer._extrapolate
    points, steps = [], []

    def recording_kernel(*kernel_args):
        logits = kernel(*kernel_args)

        def recorded(point, weight):
            points.append(point.copy())
            return logits(point, weight)
        return recorded

    def recording_jump(x0, x1, x2):
        steps.append(max(t for t, _ in _accepted_steps(x0, x1, x2)))
        return extrapolate(x0, x1, x2)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_logits", recording_kernel)
        patch.setattr(optimizer, "_extrapolate", recording_jump)
        if eigh:
            patch.setattr(optimizer, "_bloch_log", optimizer._eigh_log)
        channels, flags = _solve(*args, ratio, starts, max_iter)
    return channels, flags, points, steps


def _counts(points) -> list:
    """How many starts each map evaluation of a run took."""
    return [len(point) for point in points]


def _map_image(monkeypatch, args, point, ratio, eigh=False):
    """One map evaluation of the solver's kernel at a stack of channels, with
    the eigh log step for every dimB if eigh."""
    with monkeypatch.context() as patch:
        if eigh:
            patch.setattr(optimizer, "_bloch_log", optimizer._eigh_log)
        image = optimizer._logits(*args)(point, np.full(len(point), ratio))
    _softmax_rows(image)
    return image


def _assert_tracks(points, image, reference, steps, ends, counts,
                   atol) -> bool:
    """Assert that one map evaluation agrees with the reference map to
    1e-12 at every point of a run, and the run's end state with the
    reference run's to atol unless their carried difference may exceed
    atol.  Each accepted jump, of largest step t, carries up to t^2 times
    the largest one-step difference into the next x0 through t^2 v, and the
    carries of successive jumps add up, on top of the last evaluation's own
    difference.  counts are each run's starts per map evaluation: where a
    stop test holds in one run and not in the other, each evaluation of a
    start that only one run makes adds up to CONVERGENCE_TOL, the change
    below which a start stops.  Returns whether the end states were
    compared."""
    step_gap = 0.0
    for point in points:
        ours, theirs = image(point), reference(point)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)
        step_gap = max(step_gap, np.abs(ours - theirs).max())
    unmatched = sum(abs(a - b) for a, b in itertools.zip_longest(
        *counts, fillvalue=0))
    if ((1.0 + sum(t * t for t in steps)) * step_gap
            + unmatched * optimizer.CONVERGENCE_TOL > atol):
        return False
    np.testing.assert_allclose(*ends, rtol=0, atol=atol)
    return True


RATIOS = (0.5, 1.0 / 0.62, 5.0)
# case -> (ensemble, start, ratios, atol).  From the identity channel the
# posteriors are pure: both log steps floor their zero eigenvalue at
# EIGENVALUE_CLAMP instead of taking log2 of +-1e-16 rounding noise.  From
# there on bb84 and zero-plus the critical ratio 1/0.62 barely contracts and
# carries their one-ulp differences up to 3e-9 in 60 steps, so that ratio
# is left to the other cases.
KERNEL_CASES = {
    "random-mixed": (None, "random", RATIOS, 1e-12),
    "identity-pure": ("orthonormal-pair", "identity", RATIOS, 1e-12),
    "bb84-constant": ("bb84", "constant", RATIOS, 1e-12),
    "uniform-qubit-24": ("uniform-qubit-24", "random", RATIOS, 1e-12),
    "bb84-identity": ("bb84", "identity", (0.5, 5.0), 1e-12),
    "zero-plus-identity": ("zero-plus", "identity", (0.5, 5.0), 1e-12),
    "uniform-qubit-24-identity": ("uniform-qubit-24", "identity", RATIOS,
                                  1e-9),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_qubit_kernel_matches_dense(case, monkeypatch):
    # The closed-form qubit log step against the eigh one, on mixed
    # posteriors, pure ones (n = 1, orthogonal or not), the maximally mixed
    # one (n = 0) and the largest built-in ensemble, by the rule of
    # `_assert_tracks`.  Only uniform-qubit-24 at ratio 5, whose steps reach
    # t = 40 and whose 60-evaluation runs part by 1.6e-10, is checked one
    # step at a time.
    name, start, ratios, atol = KERNEL_CASES[case]
    ensemble = (random_ensemble(np.random.default_rng(3), 4, 2, 2)
                if name is None else builtin_ensemble(name))
    if start == "random":
        starts = seeded_channels(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
    elif start == "identity":
        starts = ClassicalChannel.identity(ensemble.m).matrix[None]
    else:
        starts = ClassicalChannel.constant(ensemble.m).matrix[None]
    args = (ensemble.reduced_b, ensemble.probs)
    amplified = []
    for max_iter in (1, 60):
        for ratio in ratios:
            qubit, qubit_flags, qubit_points, _ = _recorded_fixed_point(
                monkeypatch, args, ratio, starts, max_iter, eigh=False)
            dense, dense_flags, points, steps = _recorded_fixed_point(
                monkeypatch, args, ratio, starts, max_iter)
            assert np.array_equal(qubit_flags, dense_flags)
            if not _assert_tracks(
                    points, lambda x: _map_image(monkeypatch, args, x, ratio),
                    lambda x: _map_image(monkeypatch, args, x, ratio,
                                         eigh=True),
                    steps, (qubit, dense),
                    (_counts(qubit_points), _counts(points)), atol):
                amplified.append((max_iter, ratio))
    assert amplified == ([(60, 5.0)] if case == "uniform-qubit-24" else [])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gell_mann_kernel(d):
    # The basis rows are G_a/2 over d^2 - 1 traceless Hermitian matrices
    # with Tr[G_a G_b] = 2 delta_ab, the Pauli matrices for d = 2, and I/d;
    # one map evaluation of the kernel agrees with the reference update to
    # 1e-12.  The basis is built once per d and is read-only.
    assert optimizer._bloch_basis(d) is optimizer._bloch_basis(d)
    assert not optimizer._bloch_basis(d).flags.writeable
    basis = optimizer._bloch_basis(d).reshape(d * d, d, d)
    gell_mann = 2.0 * basis[:-1]
    assert np.array_equal(gell_mann, gell_mann.conj().swapaxes(1, 2))
    np.testing.assert_allclose(np.trace(gell_mann, axis1=1, axis2=2), 0.0,
                               atol=1e-15)
    np.testing.assert_allclose(np.einsum("aij,bji->ab", gell_mann, gell_mann),
                               2.0 * np.eye(d * d - 1), atol=1e-15)
    np.testing.assert_allclose(basis[-1], np.eye(d) / d, rtol=0, atol=0)
    if d == 2:
        assert np.array_equal(gell_mann, [[[0, 1], [1, 0]],
                                          [[0, -1j], [1j, 0]],
                                          [[1, 0], [0, -1]]])
    ensemble = random_ensemble(np.random.default_rng(d), 5, 2, d)
    b, p = ensemble.reduced_b, ensemble.probs
    starts = seeded_channels(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
    starts[1] = ClassicalChannel.identity(ensemble.m).matrix
    starts[2] = ClassicalChannel.constant(ensemble.m).matrix
    ratios = np.array([0.5, 1.0 / 0.62, 2.0, 5.0])
    image = optimizer._logits(b, p)(starts, ratios)
    _softmax_rows(image)
    np.testing.assert_allclose(image, blahut_arimoto_map(b, p, ratios, starts),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, multistarts", [("zero-plus", 32),
                                               ("random-ququart", 8)])
def test_rsp_vertices_are_qct_vertices(name, multistarts):
    # The RSP envelope is taken over the QCT vertices, so both curves keep
    # or drop a near-twin alike.  At resolution 40, seed 0, when each
    # envelope chose its own vertices, zero-plus kept two QCT vertices whose
    # twins, at the same R to 8 digits, sat on the RSP curve instead, and
    # this ququart ensemble kept a point 1.4e-9 under its RSP neighbours'
    # chord that the QCT curve dropped.
    ensemble = (random_ensemble(np.random.default_rng(3), 6, 2, 4)
                if name == "random-ququart" else builtin_ensemble(name))
    curves = compute_curves(ensemble, 40, multistarts=multistarts, seed=0)
    qct = {value: channel.matrix for (_, value), channel
           in zip(curves.qct.samples, curves.qct.channels)}
    for (_, value), channel in zip(curves.rsp.samples, curves.rsp.channels):
        assert np.array_equal(channel.matrix, qct[value])


def test_readme_certificate_sentence(monkeypatch):
    # The README names the runs that close every segment within the gap
    # target and report no diagnostic; each named run must do so.
    text = " ".join(README.read_text(encoding="utf-8").split())
    claim = re.search(r"At resolution 40 and seed 0, ([^.]*) close every "
                      r"segment of both curves within 2e-3 and report no "
                      r"diagnostic\.", text)
    assert claim
    runs = re.findall(r"([\w-]+) \((\d+) starts\)", claim.group(1))
    assert sorted(name for name, _ in runs) == ["bb84", "uniform-qubit-24",
                                                 "zero-plus"]
    for name, multistarts in runs:
        with monkeypatch.context() as patch:
            calls = _record_certificates(patch)
            curves = compute_curves(builtin_ensemble(name), 40,
                                    multistarts=int(multistarts), seed=0)
        assert curves.diagnostics == ()
        for *_, gaps in calls[-2:]:
            assert gaps.max() <= optimizer.REFINE_TARGET


def test_readme_cap_sentence(monkeypatch):
    # The README counts the starts that hit the iteration cap at the CLI
    # defaults; each named run must run that many starts and cap none.  It
    # names the one beaten multiplier, which makes uniform-qubit-24 exit 2,
    # and zero-plus must report nothing.
    text = " ".join(README.read_text(encoding="utf-8").split())
    claim = re.search(r"At the CLI defaults \(resolution 40, 32 starts, seed "
                      r"0\) no start hits it on ([^.]*), so", text)
    assert claim
    runs = re.findall(r"([\w-]+) \(0/(\d+)\)", claim.group(1))
    assert sorted(name for name, _ in runs) == ["uniform-qubit-24",
                                                 "zero-plus"]
    beaten = re.search(r"The uniform-qubit-24 `surface` exits 2: the starts "
                       r"of one multiplier, mu = (\S+), lose to another "
                       r"solved point by (\S+),", text)
    notes = {"zero-plus": (),
             "uniform-qubit-24": (f"1 multipliers lost to another point's "
                                  f"channel, by up to "
                                  f"{float(beaten.group(2)):.2g}, and were "
                                  f"re-solved once from it where the budget "
                                  f"allowed: mu = {beaten.group(1)}",)}
    for name, starts in runs:
        with monkeypatch.context() as patch:
            flags = _record_flags(patch)
            curves = compute_curves(builtin_ensemble(name),
                                    optimizer.DEFAULT_RESOLUTION,
                                    multistarts=optimizer.DEFAULT_MULTISTARTS,
                                    seed=0)
        assert len(flags) == int(starts) and all(flags)
        assert curves.diagnostics == notes[name]


def test_readme_beaten_sentence(monkeypatch):
    # The README blames the beaten multiplier of the CLI-default
    # uniform-qubit-24 solve on the stop rule, not on a missed basin: all of
    # that request's own starts stop, counted as converged, above the point
    # that beats them, and the named number of plain fixed-point steps from
    # where they stop takes the best of them below it.
    text = " ".join(README.read_text(encoding="utf-8").split())
    mu = float(re.search(r"the starts of one multiplier, mu = (\S+), lose",
                         text).group(1))
    claim = re.search(r"Here all (\d+) of them stop, counted as converged, "
                      r"above the point that beats them, and (\d+) plain "
                      r"fixed-point steps from where they stop take the best "
                      r"of them below it\.", text)
    assert claim
    count, steps = map(int, claim.groups())
    sweep, sides = optimizer._sweep, optimizer._sides
    sweeps, points = [], []

    def recording(ensemble, mus, starts, max_iter):
        SXC, SBgC, converged = sweep(ensemble, mus, starts, max_iter)
        sweeps.append((mus, starts, converged))
        return SXC, SBgC, converged

    def recording_sides(xs, ys, mus, stats):
        points.append((xs, ys))
        return sides(xs, ys, mus, stats)

    monkeypatch.setattr(optimizer, "_sweep", recording)
    monkeypatch.setattr(optimizer, "_sides", recording_sides)
    ensemble = builtin_ensemble("uniform-qubit-24")
    compute_curves(ensemble, optimizer.DEFAULT_RESOLUTION,
                   multistarts=optimizer.DEFAULT_MULTISTARTS, seed=0)
    # The first pass that solves mu, and the points collected after it.
    i, (mus, solved, converged) = next(
        (i, call) for i, call in enumerate(sweeps)
        if (abs(call[0] - mu) < 5e-7).any())
    own = abs(mus - mu) < 5e-7
    xs, ys = points[i + 1]
    mu = mus[own][0]
    winner = (ys + mu * xs).min()

    def objective(channels):
        SXC, SBgC = stack_entropies(ensemble, channels)
        return SBgC + mu * SXC

    channels = solved[own]
    assert len(channels) == count == optimizer.DEFAULT_MULTISTARTS
    assert converged[own].all()
    assert objective(channels).min() > winner + optimizer.LINE_TOL
    logits = optimizer._logits(ensemble.reduced_b, ensemble.probs)
    ratios = np.full(count, 1.0 / mu)
    for _ in range(steps):
        channels = logits(channels, ratios)
        _softmax_rows(channels)
    assert objective(channels).min() < winner
