"""Entropic profiles of (ensemble, classifier channel) pairs.

An ensemble together with a classical channel p(j|i) applied to the source
label defines a classical-quantum state on three registers: the label X, the
quantum system B, and the channel output C.  Because X and C are classical
and the B state conditioned on X = i is fixed, every entropic quantity the
trade-off optimizer needs reduces to a closed form in the channel matrix and
the reduced states on B; that closed form is `entropic_profile`.
"""

from dataclasses import dataclass

import numpy as np

from .states import (Ensemble, EnsembleStats, _spectrum_entropy, ensemble_stats,
                     shannon_entropy)

ROW_SUM_TOL = 1e-10
# Channel outputs with probability mass below this are dropped from the
# conditional-entropy sum and from the fixed-point update; they contribute 0
# in exact arithmetic.
ZERO_OUTPUT = 1e-14
PROFILE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ClassicalChannel:
    """Row-stochastic matrix p(j|i): rows index inputs, columns outputs."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-d, got shape {m.shape}")
        if m.min() < -1e-12:
            raise ValueError("channel entries must be nonnegative")
        np.clip(m, 0.0, None, out=m)
        rows = m.sum(axis=1)
        if np.abs(rows - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("each channel row must sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def m(self) -> int:
        """Number of inputs."""
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        """Number of outputs."""
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, m: int, k: int | None = None) -> "ClassicalChannel":
        """Channel copying input i to output i, zero-padded to k >= m outputs."""
        k = m + 1 if k is None else k
        if k < m:
            raise ValueError("identity channel needs at least m outputs")
        mat = np.zeros((m, k))
        mat[np.arange(m), np.arange(m)] = 1.0
        return cls(mat)

    @classmethod
    def constant(cls, m: int, k: int | None = None, output: int = 0) -> "ClassicalChannel":
        """Channel sending every input to the same output."""
        k = m + 1 if k is None else k
        mat = np.zeros((m, k))
        mat[:, output] = 1.0
        return cls(mat)


@dataclass(frozen=True)
class EntropicProfile:
    """The four entropic quantities of an (ensemble, channel) pair, in bits.

    SXC: mutual information between label and channel output.
    SBgC: entropy of B conditioned on the channel output.
    SXBgC: mutual information between label and B given the channel output.
    SXBC: mutual information between the label and the pair (B, output).
    """

    SXC: float
    SBgC: float
    SXBgC: float
    SXBC: float

    def __post_init__(self):
        for name in ("SXC", "SBgC", "SXBgC", "SXBC"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < -PROFILE_TOL:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            object.__setattr__(self, name, max(float(v), 0.0))
        if abs(self.SXBC - (self.SXC + self.SXBgC)) > PROFILE_TOL:
            raise ValueError("profile violates the chain rule "
                             f"SXBC = SXC + SXBgC: {self}")


def entropic_profile(ensemble: Ensemble, channel: ClassicalChannel,
                     stats: EnsembleStats | None = None) -> EntropicProfile:
    """Closed-form entropic profile of an (ensemble, channel) pair.

    The conditional entropy of B given output j is the entropy of the
    posterior-weighted mixture of the reduced states; the label/output mutual
    information is purely classical.  SXBgC then follows from SBgC minus the
    mean conditional entropy Sbar, and SXBC from the chain rule.
    """
    if channel.m != ensemble.m:
        raise ValueError(f"channel has {channel.m} inputs for an "
                         f"ensemble of {ensemble.m} states")
    if stats is None:
        stats = ensemble_stats(ensemble)
    p = ensemble.probs
    joint = p[:, None] * channel.matrix
    q = joint.sum(axis=0)
    SXC = shannon_entropy(p) + shannon_entropy(q) - shannon_entropy(joint)
    live = q > ZERO_OUTPUT
    mixtures = np.einsum("ij,iab->jab", joint[:, live], ensemble.reduced_b)
    mixtures /= q[live, None, None]
    spectra = np.linalg.eigvalsh(mixtures)
    SBgC = float(np.dot(q[live], [_spectrum_entropy(row) for row in spectra]))
    SXBgC = max(SBgC - stats.Sbar, 0.0)
    return EntropicProfile(SXC=max(SXC, 0.0), SBgC=SBgC, SXBgC=SXBgC,
                           SXBC=max(SXC, 0.0) + SXBgC)
