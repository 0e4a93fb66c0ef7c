import numpy as np
import pytest

from helpers import (entropic_profile_dense, omega_dense, random_channel,
                     random_ensemble, seeded_channels, traced_peak)
from tradeoff.achievability import achievable_hull, verify_surface
from tradeoff.ensembles import builtin_ensemble
from tradeoff.optimizer import STACK_ELEMENTS, compute_curves
from tradeoff.profiles import (ClassicalChannel, EntropicProfile,
                               entropic_profile, stack_entropies)
from tradeoff.states import ensemble_stats
from tradeoff.surface import surface_grid

# Binary symmetric classifier with flip probability 0.1 on the |0>/|+> pair,
# pinned from a dense-matrix evaluation.
BSC01 = np.array([[0.9, 0.1], [0.1, 0.9]])
BSC01_PROFILE = {
    "SXC": 0.5310044064107184,
    "SBgC": 0.27451479891986785,
    "SXBgC": 0.2745147989198677,
    "SXBC": 0.8055192053305862,
}


def test_channel_validation():
    with pytest.raises(ValueError):
        ClassicalChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))  # row sum 0.9
    with pytest.raises(ValueError):
        ClassicalChannel(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        ClassicalChannel(np.ones(3))  # not 2-d
    ch = ClassicalChannel(np.array([[0.25, 0.75]]))
    assert (ch.m, ch.k) == (1, 2)


@pytest.mark.parametrize("row", [[np.nan, np.nan], [0.5, np.nan],
                                 [np.inf, 0.0], [1.0, -np.inf]])
def test_channel_rejects_non_finite_entries(row):
    # NaN passes both the sign test and the row-sum test on its own.
    with pytest.raises(ValueError, match="finite"):
        ClassicalChannel([row])


def test_identity_and_constant_constructors():
    ident = ClassicalChannel.identity(3)
    assert ident.k == 4
    np.testing.assert_allclose(ident.matrix[:, :3], np.eye(3))
    const = ClassicalChannel.constant(3)
    assert const.k == 4 and const.matrix[:, 0].sum() == 3.0
    # Unchecked, both would fail with a TypeError from inside numpy.
    for build, m in ((ClassicalChannel.identity, True),
                     (ClassicalChannel.constant, 2.5)):
        with pytest.raises(ValueError, match="m must be an integer"):
            build(m)


def test_profile_fields_are_finite_reals():
    # A bool is not a bit count; dust down to -PROFILE_TOL reads as 0.
    with pytest.raises(ValueError, match="SXC=True"):
        EntropicProfile(SXC=True, SBgC=0.5, SXBgC=0.0, SXBC=1.0)
    with pytest.raises(ValueError, match="SBgC=-1e-06"):
        EntropicProfile(SXC=1.0, SBgC=-1e-6, SXBgC=0.0, SXBC=1.0)
    dust = EntropicProfile(SXC=1.0, SBgC=-1e-10, SXBgC=0.0, SXBC=1.0)
    assert dust.SBgC == 0.0


def test_profile_obeys_chain_rule():
    with pytest.raises(ValueError, match="chain rule"):
        EntropicProfile(SXC=0.5, SBgC=0.5, SXBgC=0.25, SXBC=1.0)


def test_identity_channel_profile(zero_plus):
    stats = ensemble_stats(zero_plus)
    prof = entropic_profile(zero_plus, ClassicalChannel.identity(2))
    assert prof.SXC == pytest.approx(stats.H, abs=1e-10)
    assert prof.SBgC == pytest.approx(stats.Sbar, abs=1e-10)
    assert prof.SXBgC == pytest.approx(0.0, abs=1e-10)
    assert prof.SXBC == pytest.approx(stats.H, abs=1e-10)


def test_constant_channel_profile(zero_plus):
    stats = ensemble_stats(zero_plus)
    prof = entropic_profile(zero_plus, ClassicalChannel.constant(2))
    assert prof.SXC == pytest.approx(0.0, abs=1e-10)
    assert prof.SBgC == pytest.approx(stats.S, abs=1e-10)
    assert prof.SXBgC == pytest.approx(stats.chi, abs=1e-10)
    assert prof.SXBC == pytest.approx(stats.chi, abs=1e-10)


def test_bsc_profile_matches_pinned_values(zero_plus):
    prof = entropic_profile(zero_plus, ClassicalChannel(BSC01))
    for name, value in BSC01_PROFILE.items():
        assert getattr(prof, name) == pytest.approx(value, abs=1e-9), name


def test_bsc_profile_matches_dense(zero_plus):
    fast = entropic_profile(zero_plus, ClassicalChannel(BSC01))
    dense = entropic_profile_dense(zero_plus, ClassicalChannel(BSC01))
    for name in ("SXC", "SBgC", "SXBgC", "SXBC"):
        assert getattr(fast, name) == pytest.approx(getattr(dense, name),
                                                    abs=1e-8), name


def test_closed_form_matches_dense_random():
    rng = np.random.default_rng(2026)
    for _ in range(60):
        e = random_ensemble(rng, int(rng.integers(2, 5)),
                            int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        ch = random_channel(rng, e.m, int(rng.integers(1, 5)))
        fast = entropic_profile(e, ch)
        dense = entropic_profile_dense(e, ch)
        for name in ("SXC", "SBgC", "SXBgC", "SXBC"):
            assert abs(getattr(fast, name) - getattr(dense, name)) <= 1e-8


def test_stack_entropies_match_dense():
    # One call scores a (2, 4, m, k) stack whose rows include the constant
    # and identity channels, an output that is never used and one whose
    # mass is below ZERO_OUTPUT; each row must match the dense reference.
    # The dimA = 2 qubit ensemble has mixed reduced states, so its posteriors
    # are mixed even at the identity channel.
    rng = np.random.default_rng(31)
    for e in (random_ensemble(rng, 3, 2, 3), random_ensemble(rng, 4, 1, 2),
              random_ensemble(rng, 4, 2, 2)):
        m, k = e.m, e.m + 1
        unused = np.zeros((m, k))
        unused[:, :-1] = rng.dirichlet(np.ones(k - 1), size=m)
        tiny = rng.dirichlet(np.ones(k), size=m)
        tiny[:, 0] = 1e-15
        tiny /= tiny.sum(axis=1, keepdims=True)
        rows = [ClassicalChannel.constant(m).matrix,
                ClassicalChannel.identity(m).matrix, unused, tiny]
        rows += [random_channel(rng, m, k).matrix for _ in range(4)]
        stack = np.stack(rows).reshape(2, 4, m, k)
        SXC, SBgC = stack_entropies(e, stack)
        assert SXC.shape == SBgC.shape == (2, 4)
        for row, sxc, sbgc in zip(rows, SXC.ravel(), SBgC.ravel()):
            dense = entropic_profile_dense(e, ClassicalChannel(row))
            assert abs(sxc - dense.SXC) <= 1e-9
            assert abs(sbgc - dense.SBgC) <= 1e-9


def test_stack_entropies_peak_memory():
    # Scoring one full uniform-qubit-24 stack of the solve allocates under
    # 3 copies of it (2.42, numpy 2.4.6): the joint law, the logs of its
    # weights, which take the products in place, and the boolean masks of
    # the logs.  A clipped copy of the weights made it 3.42, and a separate
    # array of the products 4.05.
    ensemble = builtin_ensemble("uniform-qubit-24")
    stack = seeded_channels(24, 25, STACK_ELEMENTS // (24 * 25), [0, 0, 0])
    assert traced_peak(stack_entropies, ensemble, stack) < 3.0 * stack.nbytes


def test_qubit_runs_need_no_eigensolver(monkeypatch):
    # A qubit's entropies come from Bloch vector lengths and the oracle's
    # simplex carries its basis inverse through row operations, so the
    # stats, the curves, the surface and the verify pass of a dimB = 2
    # ensemble never reach LAPACK; a qutrit ensemble still does.
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eigvalsh", "eigh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, lapack)
    rng = np.random.default_rng(8)
    for e in (builtin_ensemble("zero-plus"), builtin_ensemble("uniform-qubit-5"),
              random_ensemble(rng, 3, 2, 2)):
        ensemble_stats(e)
        curves = compute_curves(e, 6, multistarts=4, seed=0)
        grid = surface_grid(e, 5, 5, curves=curves)
        verify_surface(grid, achievable_hull(curves))
    qutrit = random_ensemble(rng, 3, 1, 3)
    with pytest.raises(AssertionError, match="LAPACK"):
        ensemble_stats(qutrit)
    with pytest.raises(AssertionError, match="LAPACK"):
        stack_entropies(qutrit, ClassicalChannel.identity(3).matrix)


def test_label_b_information_identity_random():
    # S(X:B|C) must equal S(B|C) - Sbar because B is pure given the label.
    rng = np.random.default_rng(515)
    for _ in range(200):
        e = random_ensemble(rng, int(rng.integers(2, 5)),
                            int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        ch = random_channel(rng, e.m, int(rng.integers(1, 5)))
        stats = ensemble_stats(e)
        prof = entropic_profile(e, ch)
        assert abs(prof.SXBgC - (prof.SBgC - stats.Sbar)) <= 1e-9


def test_coarse_graining_never_gains_information():
    # Post-processing the classifier output cannot increase SXC and cannot
    # decrease SBgC (data processing on each register).
    rng = np.random.default_rng(99)
    for _ in range(100):
        e = random_ensemble(rng, 3, 1, 2)
        ch = random_channel(rng, 3, 4)
        post = random_channel(rng, 4, int(rng.integers(1, 4)))
        merged = ClassicalChannel(ch.matrix @ post.matrix)
        before = entropic_profile(e, ch)
        after = entropic_profile(e, merged)
        assert after.SXC <= before.SXC + 1e-9
        assert after.SBgC >= before.SBgC - 1e-9


def test_conditional_entropy_within_bounds():
    rng = np.random.default_rng(404)
    for _ in range(150):
        e = random_ensemble(rng, int(rng.integers(2, 5)), 1,
                            int(rng.integers(2, 4)))
        ch = random_channel(rng, e.m, int(rng.integers(1, 5)))
        stats = ensemble_stats(e)
        prof = entropic_profile(e, ch)
        assert stats.Sbar - 1e-9 <= prof.SBgC <= stats.S + 1e-9


def test_omega_dense_is_a_state(zero_plus):
    omega = omega_dense(zero_plus, ClassicalChannel(BSC01))
    assert np.trace(omega).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(omega - omega.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(omega).min() >= -1e-12


def test_size_mismatch_rejected(zero_plus):
    with pytest.raises(ValueError):
        entropic_profile(zero_plus, ClassicalChannel.identity(3))
    with pytest.raises(ValueError):
        omega_dense(zero_plus, ClassicalChannel.identity(3))
