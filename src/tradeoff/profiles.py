"""Entropic profiles of (ensemble, classifier channel) pairs.

An ensemble together with a classical channel p(j|i) applied to the source
label defines a classical-quantum state on three registers: the label X, the
quantum system B, and the channel output C.  Because X and C are classical
and the B state conditioned on X = i is fixed, every entropic quantity the
trade-off optimizer needs reduces to a closed form in the channel matrix and
the reduced states on B.  That closed form is `stack_entropies`, which
scores a whole (..., m, k) stack of channel matrices at once: one real
product gives the Bloch vector of every qubit posterior, whose length gives
its entropy, and any other dimB takes one batched eigvalsh of the posterior
mixtures.  `entropic_profile` is its validated single-channel form.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .states import (Ensemble, _check_integers, _check_reals, _entropy,
                     _mixture_entropies, ensemble_stats)

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
        if not np.isfinite(m).all():
            raise ValueError("channel entries must be finite")
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
    def identity(cls, m: int) -> "ClassicalChannel":
        """Channel copying input i to output i of m + 1, for m >= 1."""
        _check_integers(m=(m, 1))
        return cls(np.eye(m, m + 1))

    @classmethod
    def constant(cls, m: int) -> "ClassicalChannel":
        """Channel sending each of m >= 1 inputs to output 0 of m + 1."""
        _check_integers(m=(m, 1))
        mat = np.zeros((m, m + 1))
        mat[:, 0] = 1.0
        return cls(mat)


@dataclass(frozen=True)
class EntropicProfile:
    """The four entropic quantities of an (ensemble, channel) pair, in bits.

    SXC: mutual information between label and channel output.
    SBgC: entropy of B conditioned on the channel output.
    SXBgC: mutual information between label and B given the channel output.
    SXBC: mutual information between the label and the pair (B, output).
    Each is a finite real, and one down to -PROFILE_TOL is 0.
    """

    SXC: float
    SBgC: float
    SXBgC: float
    SXBC: float

    def __post_init__(self):
        values = asdict(self)
        _check_reals(least=-PROFILE_TOL, **values)
        for name, v in values.items():
            object.__setattr__(self, name, max(float(v), 0.0))
        if abs(self.SXBC - (self.SXC + self.SXBgC)) > PROFILE_TOL:
            raise ValueError("profile violates the chain rule "
                             f"SXBC = SXC + SXBgC: {self}")


def stack_entropies(ensemble: Ensemble, channels: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """S(X:C) and S(B|C) of every channel matrix in a (..., m, k) stack.

    The conditional entropy of B given output j is the entropy of the
    posterior-weighted mixture rho_j of the reduced states; the label/output
    mutual information is purely classical.  For dimB = 2, rho_j has the
    Bloch vector r_j with q_j r_j = sum_i joint_ij r_i.  Outputs of mass at
    most ZERO_OUTPUT contribute 0.
    """
    p = ensemble.probs
    joint = p[:, None] * channels
    q = joint.sum(axis=-2)
    SXC = (_entropy(p) + _entropy(q)
           - _entropy(joint.reshape(joint.shape[:-2] + (-1,))))
    live = q > ZERO_OUTPUT
    spectra = _mixture_entropies(ensemble.reduced_b, joint,
                                 np.where(live, q, 1.0))
    SBgC = np.where(live, q * spectra, 0.0).sum(axis=-1)
    return np.maximum(SXC, 0.0), SBgC


def entropic_profile(ensemble: Ensemble,
                     channel: ClassicalChannel) -> EntropicProfile:
    """Closed-form entropic profile of an (ensemble, channel) pair.

    S(X:C) and S(B|C) come from `stack_entropies`; SXBgC then follows from
    SBgC minus the mean conditional entropy Sbar, and SXBC from the chain
    rule.
    """
    if channel.m != ensemble.m:
        raise ValueError(f"channel has {channel.m} inputs for an "
                         f"ensemble of {ensemble.m} states")
    SXC, SBgC = (float(v) for v in stack_entropies(ensemble, channel.matrix))
    SXBgC = max(SBgC - ensemble_stats(ensemble).Sbar, 0.0)
    return EntropicProfile(SXC=SXC, SBgC=SBgC, SXBgC=SXBgC, SXBC=SXC + SXBgC)
