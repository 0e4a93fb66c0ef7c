import numpy as np
import pytest

from helpers import fixed_point_one_start, random_ensemble
from tradeoff import optimizer
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
from tradeoff.profiles import ClassicalChannel, entropic_profile
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
            prof = entropic_profile(zero_plus, channel, stats)
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
        TradeoffCurve(kind="QCT", samples=(), domain=(0.0, 1.0), floor=0.0,
                      channels=())
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 1.0), (0.0, 0.5)),
                      domain=(0.0, 1.0), floor=0.0, channels=(None, None))
    with pytest.raises(ValueError):
        TradeoffCurve(kind="QCT", samples=((0.0, 0.2), (1.0, 0.8)),
                      domain=(0.0, 1.0), floor=0.0, channels=(None, None))
    with pytest.raises(ValueError):  # concave kink
        TradeoffCurve(kind="QCT",
                      samples=((0.0, 1.0), (0.5, 0.9), (1.0, 0.0)),
                      domain=(0.0, 1.0), floor=0.0,
                      channels=(None, None, None))


def test_resolution_validation(zero_plus):
    with pytest.raises(ValueError):
        qct_curve(zero_plus, resolution=1)
    with pytest.raises(ValueError):
        qct_curve(zero_plus, multistarts=0)


def test_iteration_cap_reported(zero_plus):
    curve = qct_curve(zero_plus, resolution=5, multistarts=2, max_iter=1)
    assert curve.diagnostics
    assert "iteration cap" in curve.diagnostics[0]


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
def test_fixed_point_rows_independent(name, ratio):
    # The lockstep solve must give each start exactly what a solve of that
    # start alone gives, whether it converges early, never, or starts from
    # the constant channel whose unused outputs are dead from the first step,
    # and whether the stack shares one ratio or mixes one per start.
    # Against the eigh-based per-start loop, qubit ensembles take the Bloch
    # kernel and agree to rounding; other dimB take the same dense path and
    # agree exactly.
    ensemble = (random_ensemble(np.random.default_rng(7), 3, 1, 3)
                if name == "qutrit-3" else builtin_ensemble(name))
    b, p = ensemble.reduced_b, ensemble.probs
    starts = _start_points(ensemble.m, ensemble.m + 1, 6, [0, 0, 0])
    starts[2] = ClassicalChannel.constant(ensemble.m).matrix
    mixed = np.resize([ratio, 2.0 * ratio, ratio / 3.0], len(starts))
    for max_iter in (0, 1, 10, 60):
        for ratios in (ratio, mixed):
            channels, converged = _fixed_point(b, p, ratios, starts, max_iter)
            row_ratios = np.broadcast_to(ratios, len(starts)).tolist()
            for start, row_ratio, channel, flag in zip(starts, row_ratios,
                                                       channels, converged):
                alone, alone_flag = _fixed_point(b, p, row_ratio, start[None],
                                                 max_iter)
                loop, loop_flag = fixed_point_one_start(b, p, row_ratio, start,
                                                        max_iter)
                assert np.array_equal(channel, alone[0])
                if ensemble.dimB == 2:
                    np.testing.assert_allclose(channel, loop, rtol=0, atol=1e-12)
                else:
                    assert np.array_equal(channel, loop)
                assert flag == alone_flag[0] == loop_flag
            if max_iter == 10 and ratios is ratio:
                # some starts converged and some hit the cap
                assert 0 < converged.sum() < len(starts)


def test_sweep_stacks_match_one_mu_sweeps(monkeypatch):
    # Stacking the starts of consecutive multipliers changes no outcome, and
    # a stack of several multipliers stays within STACK_ELEMENTS.
    ensemble = builtin_ensemble("uniform-qubit-5")
    stats = ensemble_stats(ensemble)
    mus = np.geomspace(0.05, 20.0, 7).tolist()
    multistarts, first_index, max_iter = 3, 11, 80
    row = ensemble.m * (ensemble.m + 1)
    monkeypatch.setattr(optimizer, "STACK_ELEMENTS", 2 * multistarts * row + 1)
    args = (multistarts, 0, max_iter)
    singles = [_sweep(ensemble, stats, [mu], first_index + i, *args)[0]
               for i, mu in enumerate(mus)]

    shapes = []

    def recording(reduced_b, probs, ratio, channels, max_iter):
        shapes.append(channels.shape)
        return _fixed_point(reduced_b, probs, ratio, channels, max_iter)

    monkeypatch.setattr(optimizer, "_fixed_point", recording)
    stacked = _sweep(ensemble, stats, mus, first_index, *args)
    assert len(shapes) >= 3
    assert sum(shape[0] for shape in shapes) == len(mus) * multistarts
    for rows, m, k in shapes:
        assert rows == multistarts or rows * m * k <= optimizer.STACK_ELEMENTS
    assert len(stacked) == len(singles) == len(mus)
    for grouped, alone in zip(stacked, singles):
        assert len(grouped) == len(alone) == multistarts
        for (c0, v0, ch0, ok0), (c1, v1, ch1, ok1) in zip(grouped, alone):
            assert (c0, v0, ok0) == (c1, v1, ok1)
            assert np.array_equal(ch0, ch1)


def test_one_solve_serves_both_curves(zero_plus, monkeypatch):
    # compute_curves solves the ladder once, for both curves, and refines
    # both within one budget of `resolution` multipliers; qct_curve and
    # rsp_curve return the halves of that same solve.
    solved = []

    def recording(ensemble, stats, mus, *args):
        solved.append(list(mus))
        return _sweep(ensemble, stats, mus, *args)

    monkeypatch.setattr(optimizer, "_sweep", recording)
    curves = compute_curves(zero_plus, 8, multistarts=2)
    ladder = np.geomspace(optimizer.MU_MIN, optimizer.MU_MAX, 8).tolist()
    assert solved[0] == ladder
    assert sum(mus == ladder for mus in solved) == 1
    assert sum(len(mus) for mus in solved) <= 16
    assert qct_curve(zero_plus, 8, multistarts=2).samples == curves.qct.samples
    assert rsp_curve(zero_plus, 8, multistarts=2).samples == curves.rsp.samples


def _dense_fixed_point(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_qubit_distortion",
                      optimizer._dense_distortion)
        return _fixed_point(*args)


@pytest.mark.parametrize("case", ["random-mixed", "identity-pure",
                                  "bb84-constant", "uniform-qubit-24"])
def test_qubit_kernel_matches_dense(case, monkeypatch):
    # Mixed posteriors, pure ones (n = 1), the maximally mixed one (n = 0)
    # and the largest built-in ensemble.  The pure case uses the orthonormal
    # pair: both kernels get its zero eigenvalue exactly.  For non-orthogonal
    # pure states each gets it as its own +-1e-16 rounding noise, and log2 of
    # that lands anywhere from -53 to the -996 clip, so the paths part there.
    if case == "random-mixed":
        ensemble = random_ensemble(np.random.default_rng(3), 4, 2, 2)
        starts = _start_points(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
    elif case == "identity-pure":
        ensemble = builtin_ensemble("orthonormal-pair")
        starts = ClassicalChannel.identity(ensemble.m).matrix[None]
    elif case == "bb84-constant":
        ensemble = builtin_ensemble("bb84")
        starts = ClassicalChannel.constant(ensemble.m).matrix[None]
    else:
        ensemble = builtin_ensemble("uniform-qubit-24")
        starts = _start_points(ensemble.m, ensemble.m + 1, 4, [0, 0, 0])
    args = (ensemble.reduced_b, ensemble.probs)
    for max_iter in (1, 60):
        for ratio in (0.5, 1.0 / 0.62, 5.0):
            qubit, qubit_flags = _fixed_point(*args, ratio, starts, max_iter)
            dense, dense_flags = _dense_fixed_point(monkeypatch, *args, ratio,
                                                    starts, max_iter)
            np.testing.assert_allclose(qubit, dense, rtol=0, atol=1e-12)
            assert np.array_equal(qubit_flags, dense_flags)
