"""Dense linear algebra and entropic quantities for ensembles of bipartite pure states.

All entropies are in bits: logarithms and exponentials are base 2 throughout
the package.
"""

import functools
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
NORM_TOL = 1e-10
PROB_TOL = 1e-10
# Spectrum values below this are indistinguishable from exact zeros at the
# accuracy we certify, and -x*log2(x) would otherwise inject noise.
EIGENVALUE_CLAMP = 1e-12


def _entropy(weights, dust: float = 0.0) -> np.ndarray:
    """Entropy in bits along the last axis, with 0 log 0 = 0; weights below
    dust count as 0 and those above 1 - dust as 1, so that a pure spectrum
    has entropy exactly 0.  Neither adds a term, so no weight is clipped."""
    w = np.asarray(weights, dtype=float)
    logs = np.log2(w, out=np.zeros_like(w),
                   where=(w > 0.0) & (w >= dust) & (w <= 1.0 - dust))
    logs *= w
    return 0.0 - logs.sum(axis=-1)  # +0.0, not -0.0, when pure


def _check_integers(**bounds) -> None:
    """Raise ValueError naming the first argument that is not an integer of
    at least its bound; bounds maps each name to (value, bound).  A bool is
    not an integer, and the message abbreviates a value read from a file."""
    for name, (value, least) in bounds.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, "
                             f"got {reprlib.repr(value)}")
        if value < least:
            rule = {0: "nonnegative", 1: "positive"}.get(least,
                                                         f"at least {least}")
            raise ValueError(f"{name} must be {rule}, "
                             f"got {reprlib.repr(value)}")


def _is_number(value) -> bool:
    # A bool, which Python counts as an integer and JSON true/false decode
    # to, is not a number, and an integer beyond the float range has no
    # float to become.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (type(value) is int and abs(value) > sys.float_info.max))


def _check_reals(*, least: float = 0.0, **values) -> None:
    """Raise ValueError naming the first argument that is not a finite
    number (by `_is_number`) of at least `least`: 0, minus the rounding dust
    of a value the caller clamps to 0, or -inf for any sign.  The message
    abbreviates an integer, which may have hundreds of digits."""
    for name, value in values.items():
        if not (_is_number(value) and math.isfinite(value)
                and value >= least):
            rule = "finite" if least == -math.inf else "finite and nonnegative"
            shown = reprlib.repr(value) if isinstance(value, int) else value
            raise ValueError(f"{name} must be {rule}, got {name}={shown}")


def _check_probabilities(p: np.ndarray) -> None:
    """Reject p unless it is finite, nonnegative and sums to 1 within
    PROB_TOL."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if (p < 0.0).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {p.sum():.12g}")


def shannon_entropy(probs) -> float:
    """Shannon entropy of a probability vector, in bits, with 0 log 0 = 0."""
    p = np.array(probs, dtype=float).ravel()
    _check_probabilities(p)
    return float(_entropy(p))


def _spectrum_entropy(eigenvalues) -> np.ndarray:
    """Entropy of each eigenvalue row, clamping numerical dust to zero."""
    return _entropy(eigenvalues, EIGENVALUE_CLAMP)


@functools.cache
def _bloch_basis(d: int) -> np.ndarray:
    """The rows G_a/2 and I/d, flattened, over the generalized Gell-Mann
    matrices G_a: |j><k| + |k><j| for j < k, then -i|j><k| + i|k><j|, then
    sqrt(2/(l(l+1))) (|0><0| + ... + |l-1><l-1| - l|l><l|) for l = 1..d-1,
    so that d = 2 gives sigma x, y, z.  [r, 1] times the rows is rho, and A
    times their conjugate transpose is [Tr(G_a A)/2, Tr(A)/d]."""
    j, k = np.triu_indices(d, 1)
    unit = np.eye(d * d)  # row a * d + b is |a><b| flattened
    upper, lower, diagonal = unit[j * d + k], unit[k * d + j], unit[::d + 1]
    l = np.arange(1.0, d)
    weights = np.tri(d - 1, d) - l[:, None] * np.eye(d - 1, d, 1)
    weights *= np.sqrt(2.0 / (l * (l + 1.0)))[:, None]
    basis = np.vstack([upper + lower, 1j * (lower - upper), weights @ diagonal,
                       2.0 / d * diagonal.sum(axis=0)]) / 2.0
    basis.flags.writeable = False
    return basis


def _bloch_rows(reduced_b: np.ndarray) -> np.ndarray:
    """The rows [r_i, 1] of a (m, d, d) stack of states, shape (m, d^2):
    rho_i = I/d + r_i.G/2 with r_a = Tr[rho_i G_a] (Bertlmann & Krammer
    2008)."""
    m, d = len(reduced_b), reduced_b.shape[-1]
    # r_a = 2 Re Tr[rho_i G_a/2] from the interleaved parts.
    rows = np.ones((m, d * d))
    rows[:, :-1] = 2.0 * (reduced_b.reshape(m, -1).view(float)
                          @ _bloch_basis(d)[:-1].view(float).T)
    return rows


def _mixture_entropies(reduced_b: np.ndarray, weights: np.ndarray,
                       mass=1.0) -> np.ndarray:
    """Entropy of rho_j = sum_i weights[..., i, j] rho_i / mass[..., j] for
    every column j of a (..., m, k) stack of weights.  A qubit's comes from
    the length n of its Bloch vector, as rho_j has the spectrum
    ((1 - n)/2, (1 + n)/2); any other dimB's from eigenvalues."""
    if reduced_b.shape[-1] == 2:
        vectors = weights.swapaxes(-1, -2) @ _bloch_rows(reduced_b)[:, :-1]
        n = np.sqrt(np.einsum("...a,...a->...", vectors, vectors)) / mass
        spectra = np.stack(((1.0 - n) / 2.0, (1.0 + n) / 2.0), axis=-1)
    else:
        mixtures = np.einsum("...ij,iab->...jab", weights, reduced_b)
        mixtures /= np.asarray(mass)[..., None, None]
        spectra = np.linalg.eigvalsh(mixtures)
    return _spectrum_entropy(spectra)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix must have unit trace, got {trace:.6g}")
        if float(np.linalg.eigvalsh(m)[0]) < -PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    Accepts a DensityOperator or a raw matrix; raw input is validated first.
    Eigenvalues are clamped to [0, 1], with values below 1e-12 treated as 0
    and values within 1e-12 of 1 as 1.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    return float(_spectrum_entropy(np.linalg.eigvalsh(rho.matrix)))


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state of a bipartite system A x B.

    Amplitudes are stored as a flat vector with the A index major:
    ``amplitudes[a * dimB + b]``.
    """

    dimA: int
    dimB: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_integers(dimA=(self.dimA, 1), dimB=(self.dimB, 1))
        v = np.array(self.amplitudes, dtype=complex).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        if v.size != self.dimA * self.dimB:
            raise ValueError(
                f"expected {self.dimA * self.dimB} amplitudes, got {v.size}")
        if abs(float(np.vdot(v, v).real) - 1.0) > NORM_TOL:
            raise ValueError("amplitudes must have unit norm")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a dimA x dimB coefficient matrix."""
        return self.amplitudes.reshape(self.dimA, self.dimB)


def partial_trace(state: BipartitePureState, keep: str) -> DensityOperator:
    """Reduced density operator of a bipartite pure state.

    ``keep`` selects the retained subsystem, "A" or "B".  Both reductions
    share the same nonzero spectrum (the squared Schmidt coefficients).
    """
    m = state.as_matrix()
    if keep == "A":
        return DensityOperator(m @ m.conj().T)
    if keep == "B":
        return DensityOperator(m.T @ m.conj())
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite ensemble of bipartite pure states with source probabilities."""

    states: tuple
    probs: np.ndarray

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("ensemble needs at least one state")
        dimA, dimB = states[0].dimA, states[0].dimB
        if any(s.dimA != dimA or s.dimB != dimB for s in states):
            raise ValueError("all ensemble states must share (dimA, dimB)")
        p = np.array(self.probs, dtype=float).ravel()
        if p.size != len(states):
            raise ValueError("need exactly one probability per state")
        _check_probabilities(p)
        p.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", p)
        reduced = np.stack([s.as_matrix().T @ s.as_matrix().conj() for s in states])
        # Exactly Hermitian: M^T M* is so only to rounding when dimA > 1.
        reduced = (reduced + reduced.conj().swapaxes(1, 2)) / 2.0
        reduced.flags.writeable = False
        object.__setattr__(self, "_reduced_b", reduced)

    @property
    def m(self) -> int:
        return len(self.states)

    @property
    def dimA(self) -> int:
        return self.states[0].dimA

    @property
    def dimB(self) -> int:
        return self.states[0].dimB

    @property
    def reduced_b(self) -> np.ndarray:
        """Stacked reduced states on B, shape (m, dimB, dimB)."""
        return self._reduced_b


@dataclass(frozen=True)
class EnsembleStats:
    """Entropic summary of an ensemble.

    S: entropy of the average reduced state on B.
    Sbar: probability-weighted mean entropy of the individual reduced states.
    chi: Holevo quantity S - Sbar.
    H: Shannon entropy of the source probabilities.
    """

    S: float
    Sbar: float
    chi: float
    H: float


def ensemble_stats(ensemble: Ensemble) -> EnsembleStats:
    """Compute S, Sbar, chi and H for an ensemble (all in bits)."""
    p, reduced = ensemble.probs, ensemble.reduced_b
    S = float(_mixture_entropies(reduced, p[:, None])[0])
    Sbar = float(p @ _mixture_entropies(reduced, np.eye(len(p))))
    return EnsembleStats(S=S, Sbar=Sbar, chi=S - Sbar, H=shannon_entropy(p))
