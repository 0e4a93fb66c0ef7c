import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import (blahut_arimoto_map, blahut_arimoto_step,
                     fixed_point_one_start, random_ensemble)
from tradeoff import optimizer
from tradeoff.achievability import primitive_points
from tradeoff.ensembles import builtin_ensemble
from tradeoff.optimizer import (
    TradeoffCurve,
    _fixed_point,
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
FROZEN_HC = 0.013174026769327716

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
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, 1.0, kind="XB")
    with pytest.raises(ValueError):
        minimize_profile(zero_plus, 1.0, multistarts=0)


def test_negative_seed_names_seed(zero_plus):
    # numpy's own message for a negative seed does not say which input.
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
    assert ortho_curves.critical.found
    assert ortho_curves.critical.Hc == pytest.approx(1.0, abs=1e-2)


def test_critical_rate_zero_plus(zp_curves):
    assert zp_curves.critical.found
    assert zp_curves.critical.Hc == pytest.approx(FROZEN_HC, abs=2e-3)


def test_critical_rate_requires_qct(zp_curves):
    with pytest.raises(ValueError):
        critical_rate(zp_curves.rsp, zp_curves.stats.S)


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
        TradeoffCurve(kind="QCT", samples=(), domain=(0.0, 1.0),
                      channels=())
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 1.0), (0.0, 0.5)),
                      domain=(0.0, 1.0), channels=(None, None))
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 0.2), (1.0, 0.8)),
                      domain=(0.0, 1.0), channels=(None, None))
    with pytest.raises(ValueError):  # concave kink
        TradeoffCurve(kind="QCT",
                      samples=((0.0, 1.0), (0.5, 0.9), (1.0, 0.0)),
                      domain=(0.0, 1.0),
                      channels=(None, None, None))


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


def test_iteration_cap_reported(zero_plus):
    curves = compute_curves(zero_plus, resolution=5, multistarts=2,
                            max_iter=1)
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
    # and whether the stack shares one ratio or mixes one per start.  Against
    # the eigh-based per-start loop of the same extrapolation cycle, the
    # dense kernel agrees exactly and the Bloch kernel of qubit ensembles to
    # rounding.  The one exception is a row at the zero-plus critical ratio
    # once it has extrapolated (from the third map evaluation on): its step
    # t is several hundred, and t^2 v carries the two kernels' one-ulp
    # differences to 2e-11 at once and 8e-11 by the 60th evaluation.  Such a
    # row is checked through the dense kernel only.
    ensemble = (random_ensemble(np.random.default_rng(7), 3, 1, 3)
                if name == "qutrit-3" else builtin_ensemble(name))
    b, p = ensemble.reduced_b, ensemble.probs
    starts = _start_points(ensemble.m, ensemble.m + 1, 6, [0, 0, 0])
    starts[2] = ClassicalChannel.constant(ensemble.m).matrix
    mixed = np.resize([ratio, 2.0 * ratio, ratio / 3.0], len(starts))
    for max_iter in (0, 1, 10, 60):
        for ratios in (ratio, mixed):
            channels, converged = _fixed_point(b, p, ratios, starts, max_iter)
            dense, dense_flags = _dense_fixed_point(monkeypatch, b, p, ratios,
                                                    starts, max_iter)
            row_ratios = np.broadcast_to(ratios, len(starts)).tolist()
            for row, (start, row_ratio) in enumerate(zip(starts, row_ratios)):
                alone, alone_flag = _fixed_point(b, p, row_ratio, start[None],
                                                 max_iter)
                loop, loop_flag = fixed_point_one_start(b, p, row_ratio, start,
                                                        max_iter)
                assert np.array_equal(channels[row], alone[0])
                assert converged[row] == alone_flag[0] == loop_flag
                assert np.array_equal(dense[row], loop)
                assert dense_flags[row] == loop_flag
                amplified = (name == "zero-plus" and row_ratio == ratio
                             and max_iter >= 3)
                if ensemble.dimB == 2 and not amplified:
                    np.testing.assert_allclose(channels[row], loop, rtol=0,
                                               atol=1e-12)
            if max_iter == 10 and ratios is ratio:
                # some starts converged and some hit the cap
                assert 0 < converged.sum() < len(starts)


def test_extrapolation_keeps_to_the_interior():
    # A row whose extrapolated point has an entry <= 0 takes x2 instead; it
    # is never clipped, as the multiplicative update would never revive an
    # output clipped to zero.  Other rows of the stack keep their point.
    ensemble = builtin_ensemble("zero-plus")
    b, p, ratio = ensemble.reduced_b, ensemble.probs, 2.0
    x0 = _start_points(ensemble.m, ensemble.m + 1, 8, [0, 0, 0])
    x1, _ = _fixed_point(b, p, ratio, x0, 1)
    x2, _ = _fixed_point(b, p, ratio, x1, 1)
    r, v = x1 - x0, x2 - 2.0 * x1 + x0
    alpha = -np.maximum(np.linalg.norm(r, axis=(1, 2))
                        / np.linalg.norm(v, axis=(1, 2)), 1.0)[:, None, None]
    formula = x0 - 2.0 * alpha * r + alpha ** 2 * v
    outside = (formula <= 0.0).any(axis=(1, 2))
    assert 0 < outside.sum() < len(x0)
    point = optimizer._extrapolate(x0, x1, x2)
    assert np.array_equal(point[outside], x2[outside])
    np.testing.assert_allclose(point[~outside], formula[~outside], rtol=0,
                               atol=1e-12)
    # The solve's third map evaluation is the image of that point, and no
    # output that is live in x2 is dead in it.
    x3, _ = _fixed_point(b, p, ratio, x0, 3)
    assert np.array_equal(x3, _fixed_point(b, p, ratio, point, 1)[0])
    live2, live3 = ((p[:, None] * x).sum(axis=1) > ZERO_OUTPUT
                    for x in (x2, x3))
    assert not (live2 & ~live3).any()


def test_fixed_point_converges_at_critical_slope(zero_plus):
    # At mu = 0.62 the plain map barely contracts: none of these 16 starts
    # converged within 500 map evaluations before extrapolation.  Now all
    # do, to the objective that 8000 plain updates reach.
    mu, multistarts = 0.62, 16
    channels = _start_points(zero_plus.m, zero_plus.m + 1, multistarts,
                             [0, 0, 0])
    SXC, SBgC, _, converged = _sweep(zero_plus, [mu], [channels], 500)
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
        channels, converged = _fixed_point(*args)
        flags.extend(converged.tolist())
        return channels, converged

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
    # four slopes.  The qutrit ensemble takes the dense kernel.
    ensemble = (random_ensemble(np.random.default_rng(7), 3, 1, 3)
                if name == "qutrit-3" else builtin_ensemble(name))
    b, p = ensemble.reduced_b, ensemble.probs
    for mu in (0.05, 0.3, 0.62, 0.9):
        channels = _start_points(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
        SXC, SBgC = stack_entropies(ensemble, channels)
        objective = SBgC + mu * SXC
        for _ in range(30):
            channels, value = blahut_arimoto_step(b, p, 1.0 / mu, channels)
            SXC, SBgC = stack_entropies(ensemble, channels)
            image = SBgC + mu * SXC
            assert (value <= objective + 1e-10).all()
            assert (image <= value + 1e-10).all()
            objective = image


def test_uniform_qubit_24_caps_no_start(monkeypatch):
    # Its starts at mu 0.18-0.33 drift along a nearly flat orbit of the
    # near-symmetric ensemble and used to run to the cap of 500 map
    # evaluations (25 of 64); the free-value rule stops each of them.
    flags = _record_flags(monkeypatch)
    compute_curves(builtin_ensemble("uniform-qubit-24"), 40, multistarts=4,
                   seed=0)
    assert len(flags) == 64 and all(flags)


def test_bb84_stops_within_100_map_evaluations(monkeypatch):
    # On bb84's flat mu = 1/2 face one start used to reach the cap; now
    # every start stops within 100 map evaluations, so that cap gives the
    # same curves as the default one.
    ensemble = builtin_ensemble("bb84")
    flags = _record_flags(monkeypatch)
    capped = compute_curves(ensemble, 40, multistarts=8, seed=0, max_iter=100)
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
    # Stacking the starts of consecutive multipliers changes no outcome, and
    # a stack of several multipliers stays within STACK_ELEMENTS, also when
    # one multiplier has an extra start.
    ensemble = builtin_ensemble("uniform-qubit-5")
    mus = np.geomspace(0.05, 20.0, 7).tolist()
    multistarts, first_index, max_iter = 3, 11, 80
    m, k = ensemble.m, ensemble.m + 1
    starts = [_start_points(m, k, multistarts + (i == 4),
                            [0, 0, first_index + i]) for i in range(len(mus))]
    monkeypatch.setattr(optimizer, "STACK_ELEMENTS",
                        2 * multistarts * m * k + 1)
    singles = [_sweep(ensemble, [mu], [start], max_iter)
               for mu, start in zip(mus, starts)]

    shapes = []

    def recording(reduced_b, probs, ratio, channels, max_iter):
        shapes.append(channels.shape)
        return _fixed_point(reduced_b, probs, ratio, channels, max_iter)

    monkeypatch.setattr(optimizer, "_fixed_point", recording)
    stacked = _sweep(ensemble, mus, starts, max_iter)
    assert len(shapes) >= 3
    assert sum(shape[0] for shape in shapes) == sum(map(len, starts))
    for rows, m, k in shapes:
        assert (rows in (multistarts, multistarts + 1)
                or rows * m * k <= optimizer.STACK_ELEMENTS)
    # Each output array (S(X:C), S(B|C), channels, converged flags) holds
    # the starts of every mu in order, as the one-mu sweeps do.
    assert len(stacked) == 4 and len(singles) == len(mus)
    for grouped, alone in zip(stacked, zip(*singles)):
        assert len(grouped) == sum(map(len, starts))
        assert [len(part) for part in alone] == list(map(len, starts))
        assert np.array_equal(grouped, np.concatenate(alone))


def _record_sweeps(monkeypatch) -> list:
    """Record the multipliers and starts of every _sweep call."""
    calls = []

    def recording(ensemble, mus, starts, max_iter):
        calls.append((list(mus), starts))
        return _sweep(ensemble, mus, starts, max_iter)

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


def test_beaten_solve_is_re_solved(zero_plus, monkeypatch):
    # With two map evaluations per start, the starts of a multiplier can
    # lose to a point from another request.  The multiplier is then
    # re-solved once, within the budget, with that point's channel as an
    # extra start, and the diagnostics name it.
    calls = _record_sweeps(monkeypatch)
    curves = compute_curves(zero_plus, 12, multistarts=4, seed=0, max_iter=2)
    requests = [(mu, len(starts)) for mus, batch in calls
                for mu, starts in zip(mus, batch)]
    assert len(requests) <= 12
    again = [mu for mu, count in requests if count == 5]
    notes = [d for d in curves.diagnostics if "lost to another" in d]
    assert again and len(notes) == 1
    for mu in again:
        assert (mu, 4) in requests[:requests.index((mu, 5))]
        assert f"{mu:.6g}" in notes[0]


def _dense_fixed_point(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_qubit_logits", optimizer._dense_logits)
        return _fixed_point(*args)


RATIOS = (0.5, 1.0 / 0.62, 5.0)
# case -> (ensemble, start, ratios, atol).  From the identity channel the
# posteriors are pure: both kernels floor their zero eigenvalue at
# EIGENVALUE_CLAMP instead of taking log2 of +-1e-16 rounding noise.  From
# there on bb84 and zero-plus the critical ratio 1/0.62 barely contracts and
# carries one-ulp kernel differences up to 3e-9 in 60 steps, so that ratio
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
    # Mixed posteriors, pure ones (n = 1, orthogonal or not), the maximally
    # mixed one (n = 0) and the largest built-in ensemble.
    name, start, ratios, atol = KERNEL_CASES[case]
    ensemble = (random_ensemble(np.random.default_rng(3), 4, 2, 2)
                if name is None else builtin_ensemble(name))
    if start == "random":
        starts = _start_points(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
    elif start == "identity":
        starts = ClassicalChannel.identity(ensemble.m).matrix[None]
    else:
        starts = ClassicalChannel.constant(ensemble.m).matrix[None]
    args = (ensemble.reduced_b, ensemble.probs)
    for max_iter in (1, 60):
        for ratio in ratios:
            qubit, qubit_flags = _fixed_point(*args, ratio, starts, max_iter)
            dense, dense_flags = _dense_fixed_point(monkeypatch, *args, ratio,
                                                    starts, max_iter)
            np.testing.assert_allclose(qubit, dense, rtol=0, atol=atol)
            assert np.array_equal(qubit_flags, dense_flags)


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
    # defaults; each named run must run that many starts and cap none.
    text = " ".join(README.read_text(encoding="utf-8").split())
    claim = re.search(r"At the CLI defaults \(resolution 40, 32 starts, seed "
                      r"0\) no start hits it on ([^.]*), so", text)
    assert claim
    runs = re.findall(r"([\w-]+) \(0/(\d+)\)", claim.group(1))
    assert sorted(name for name, _ in runs) == ["uniform-qubit-24",
                                                 "zero-plus"]
    for name, starts in runs:
        with monkeypatch.context() as patch:
            flags = _record_flags(patch)
            compute_curves(builtin_ensemble(name), optimizer.DEFAULT_RESOLUTION,
                           multistarts=optimizer.DEFAULT_MULTISTARTS, seed=0)
        assert len(flags) == int(starts) and all(flags)
