import math

import numpy as np
import pytest

from helpers import (partial_trace_dense, random_density, random_ensemble,
                     random_pure_state)
from tradeoff.ensembles import builtin_ensemble
from tradeoff.states import (
    BipartitePureState,
    DensityOperator,
    Ensemble,
    ensemble_stats,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)


def test_shannon_entropy_examples():
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5)
    # A zero entropy is +0.0: -0.0 would print as "-0".
    assert math.copysign(1.0, shannon_entropy([1.0])) == 1.0
    # Only a probability vector has an entropy; the bare formula would give
    # these nan, 0.5, 0.0 and 0.0.
    for bad in ([0.5, np.nan], [0.5, -0.5], [2.0, 3.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="probabilities"):
            shannon_entropy(bad)


def test_shannon_entropy_range():
    # 100 seeded weight vectors of 1 to 8 entries in [0.01, 1], then the
    # boundary vectors: one entry, all at the top, and the widest spread.
    rng = np.random.default_rng(0)
    cases = [rng.uniform(0.01, 1.0, size) for size in rng.integers(1, 9, 100)]
    cases += [[0.01], [1.0] * 8, [0.01, 1.0]]
    for weights in cases:
        p = np.array(weights) / sum(weights)
        h = shannon_entropy(p)
        assert -1e-12 <= h <= np.log2(len(p)) + 1e-9


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
    assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25])) == pytest.approx(1.5)
    pure = np.zeros((3, 3)); pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # not PSD
    # Non-finite entries fail before any arithmetic, which would score a
    # NaN entry as entropy 0.0 and warn on an inf one.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            von_neumann_entropy(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.ones((2, 3)) / 2)
    # A matrix with no rows fails the shape check, not inside numpy's
    # reductions.
    with pytest.raises(ValueError, match="at least one row"):
        DensityOperator(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="at least one row"):
        von_neumann_entropy(np.zeros((0, 0)))
    rho = DensityOperator(np.eye(3) / 3)
    assert rho.dim == 3
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0  # read-only view


def test_pure_state_validation():
    with pytest.raises(ValueError):
        BipartitePureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))  # norm 2
    with pytest.raises(ValueError):
        BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0]))  # wrong length
    psi = BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert psi.as_matrix().shape == (2, 2)


@pytest.mark.parametrize("dimA, dimB", [(1.5, 2), (2, 1.5), (2, 2.0),
                                        (True, 2)])
def test_pure_state_dimensions_must_be_integers(dimA, dimB):
    # Each pair matches its amplitude count, so only the type check fails.
    count = int(dimA * dimB)
    with pytest.raises(ValueError, match="integer"):
        BipartitePureState(dimA, dimB, np.ones(count) / math.sqrt(count))


def test_partial_trace_product_state():
    psi = BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    rho_b = partial_trace(psi, keep="B")
    np.testing.assert_allclose(rho_b.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError, match="keep must be 'A' or 'B'"):
        partial_trace(psi, keep="C")


def test_partial_trace_maximally_entangled():
    psi = BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    for keep in ("A", "B"):
        rho = partial_trace(psi, keep=keep)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_schmidt_symmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        psi = random_pure_state(rng, rng.integers(2, 4), rng.integers(2, 4))
        sa = von_neumann_entropy(partial_trace(psi, keep="A"))
        sb = von_neumann_entropy(partial_trace(psi, keep="B"))
        assert abs(sa - sb) <= 1e-8


def test_entropy_concavity_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho, sigma = random_density(rng, d), random_density(rng, d)
        mixed = von_neumann_entropy(0.5 * rho + 0.5 * sigma)
        parts = 0.5 * von_neumann_entropy(rho) + 0.5 * von_neumann_entropy(sigma)
        assert mixed >= parts - 1e-9


def test_partial_trace_dense_tripartite():
    rng = np.random.default_rng(3)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    left = partial_trace_dense(rho, (2, 2, 3), keep=(0,))
    right = partial_trace_dense(rho, (2, 2, 3), keep=(1, 2))
    # complementary reductions of a pure state share their nonzero spectrum
    ev_l = np.sort(np.linalg.eigvalsh(left))[::-1]
    ev_r = np.sort(np.linalg.eigvalsh(right))[::-1]
    np.testing.assert_allclose(ev_l[:2], ev_r[:2], atol=1e-10)
    assert np.trace(left) == pytest.approx(1.0)


def test_ensemble_validation():
    s0 = BipartitePureState(1, 2, np.array([1.0, 0.0]))
    s1 = BipartitePureState(1, 2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Ensemble(states=(s0, s1), probs=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Ensemble(states=(s0, s1), probs=np.array([1.2, -0.2]))
    wide = BipartitePureState(1, 3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Ensemble(states=(s0, wide), probs=np.array([0.5, 0.5]))


def test_ensemble_stats_orthonormal(ortho):
    stats = ensemble_stats(ortho)
    assert stats.S == pytest.approx(1.0, abs=1e-12)
    assert stats.Sbar == pytest.approx(0.0, abs=1e-12)
    assert stats.chi == pytest.approx(1.0, abs=1e-12)
    assert stats.H == pytest.approx(1.0, abs=1e-12)


def test_ensemble_stats_single_entangled():
    psi = BipartitePureState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    stats = ensemble_stats(Ensemble(states=(psi,), probs=np.array([1.0])))
    assert stats.S == pytest.approx(1.0)
    assert stats.Sbar == pytest.approx(1.0)
    assert stats.chi == pytest.approx(0.0, abs=1e-12)
    assert stats.H == pytest.approx(0.0, abs=1e-12)


def test_ensemble_needs_one_probability_per_state():
    zero = BipartitePureState(1, 2, np.array([1.0, 0.0]))
    one = BipartitePureState(1, 2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="one probability per state"):
        Ensemble(states=(zero, one), probs=np.array([1.0]))


def test_holevo_between_zero_and_label_entropy():
    rng = np.random.default_rng(23)
    for _ in range(500):
        e = random_ensemble(rng, int(rng.integers(2, 5)),
                            int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        stats = ensemble_stats(e)
        assert -1e-9 <= stats.chi <= stats.H + 1e-9
        assert -1e-9 <= stats.Sbar <= stats.S + 1e-9
        assert stats.S <= np.log2(e.dimB) + 1e-9
        assert abs(stats.chi - (stats.S - stats.Sbar)) <= 1e-10


def test_qubit_stats_match_eigenvalue_reference():
    # For dimB = 2, S and Sbar come from Bloch vector lengths; reduced
    # states of dimA > 1 are mixed, so both spectra have two live values.
    rng = np.random.default_rng(77)
    for dimA in (1, 2, 3):
        for _ in range(20):
            e = random_ensemble(rng, int(rng.integers(1, 6)), dimA, 2)
            stats = ensemble_stats(e)
            average = np.einsum("i,iab->ab", e.probs, e.reduced_b)
            S = von_neumann_entropy(average)
            Sbar = sum(p * von_neumann_entropy(rho)
                       for p, rho in zip(e.probs, e.reduced_b))
            assert abs(stats.S - S) <= 1e-12
            assert abs(stats.Sbar - Sbar) <= 1e-12
            assert abs(stats.chi - (S - Sbar)) <= 1e-12


@pytest.mark.parametrize("name", ["bb84", "zero-plus", "uniform-qubit-24"])
def test_pure_qubit_ensembles_have_zero_sbar(name):
    # Each |r_i| is 1 only to rounding; the dust rule makes Sbar exactly 0.
    assert ensemble_stats(builtin_ensemble(name)).Sbar == 0.0


def test_reduced_b_matches_partial_trace():
    for seed in range(50):
        e = random_ensemble(np.random.default_rng(seed), 3, 2, 3)
        for i, state in enumerate(e.states):
            np.testing.assert_allclose(e.reduced_b[i],
                                       partial_trace(state, keep="B").matrix,
                                       atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_reduced_b_is_exactly_hermitian(seed):
    # M^T M* is Hermitian only to rounding when dimA > 1, up to 5.6e-17 here;
    # symmetrized, every reader of the reduced states (one triangle for
    # eigvalsh, both for the Bloch vectors) sees the same matrix.  For
    # dimA = 1 the product is already exact, and symmetrizing changes no bit.
    for dimA in (1, 2, 3, 4):
        for dimB in (2, 3, 4):
            e = random_ensemble(np.random.default_rng(seed), 6, dimA, dimB)
            b = e.reduced_b
            assert np.array_equal(b, b.conj().swapaxes(1, 2))
            if dimA == 1:
                product = np.stack([s.as_matrix().T @ s.as_matrix().conj()
                                    for s in e.states])
                assert b.tobytes() == product.tobytes()
