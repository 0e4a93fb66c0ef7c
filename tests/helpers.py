"""Shared test utilities: seeded random instances and brute-force oracles."""

import tracemalloc
from dataclasses import dataclass

import numpy as np

from tradeoff.achievability import RateTriple
from tradeoff.optimizer import _softmax_rows
from tradeoff.profiles import ClassicalChannel, EntropicProfile
from tradeoff.states import (
    EIGENVALUE_CLAMP,
    BipartitePureState,
    Ensemble,
    _spectrum_entropy,
    shannon_entropy,
    von_neumann_entropy,
)


def random_pure_state(rng: np.random.Generator, dimA: int,
                      dimB: int) -> BipartitePureState:
    v = rng.normal(size=dimA * dimB) + 1j * rng.normal(size=dimA * dimB)
    return BipartitePureState(dimA, dimB, v / np.linalg.norm(v))


def random_ensemble(rng: np.random.Generator, m: int, dimA: int,
                    dimB: int) -> Ensemble:
    states = tuple(random_pure_state(rng, dimA, dimB) for _ in range(m))
    return Ensemble(states=states, probs=rng.dirichlet(np.ones(m)))


def random_channel(rng: np.random.Generator, m: int, k: int) -> ClassicalChannel:
    return ClassicalChannel(rng.dirichlet(np.ones(k), size=m))


def seeded_channels(m: int, k: int, count: int, seed_key) -> np.ndarray:
    """count channels of shape (m, k), the row softmax of N(0, 2^2) logits
    drawn by numpy from the seed key: fixed inputs for the kernel and solver
    checks, which do not test the solve's own start generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    points = rng.normal(0.0, 2.0, size=(count, m, k))
    _softmax_rows(points)
    return points


def traced_peak(call, *args) -> int:
    """The peak of the memory that tracemalloc traces while call(*args) runs,
    in bytes: what the call allocates, above its inputs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def partial_trace_dense(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a dense operator on a tensor product of subsystems.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` lists
    the (ascending) indices of the subsystems to retain.
    """
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted({int(i) for i in keep}))
    n = len(dims)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices must lie in [0, {n}), got {keep}")
    total = int(np.prod(dims))
    m = np.asarray(matrix)
    if m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    t = m.reshape(dims + dims)
    for axis in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def omega_dense(ensemble: Ensemble, channel: ClassicalChannel) -> np.ndarray:
    """The classical-quantum state on X x B x C as one dense matrix.

    Block-diagonal over the classical registers: the (i, j) block carries
    weight p_i p(j|i) times the reduced state of ensemble member i.
    """
    if channel.m != ensemble.m:
        raise ValueError("channel/ensemble size mismatch")
    m, dB, k = ensemble.m, ensemble.dimB, channel.k
    joint = ensemble.probs[:, None] * channel.matrix
    omega = np.zeros((m, dB, k, m, dB, k), dtype=complex)
    for i in range(m):
        for j in range(k):
            omega[i, :, j, i, :, j] = joint[i, j] * ensemble.reduced_b[i]
    return omega.reshape(m * dB * k, m * dB * k)


def _dense_entropy(matrix: np.ndarray) -> float:
    return _spectrum_entropy(np.linalg.eigvalsh(matrix))


def entropic_profile_dense(ensemble: Ensemble,
                           channel: ClassicalChannel) -> EntropicProfile:
    """Entropic profile computed from the dense three-register state.

    Every quantity is obtained by partial tracing the full matrix; this is
    the reference path for the closed form `entropic_profile`.
    """
    omega = omega_dense(ensemble, channel)
    dims = (ensemble.m, ensemble.dimB, channel.k)
    S_X = _dense_entropy(partial_trace_dense(omega, dims, (0,)))
    S_C = _dense_entropy(partial_trace_dense(omega, dims, (2,)))
    S_XC = _dense_entropy(partial_trace_dense(omega, dims, (0, 2)))
    S_BC = _dense_entropy(partial_trace_dense(omega, dims, (1, 2)))
    S_XBC = _dense_entropy(omega)
    SXC = S_X + S_C - S_XC
    SBgC = S_BC - S_C
    SXBgC = S_XC + S_BC - S_XBC - S_C
    SXBC = S_X + S_BC - S_XBC
    return EntropicProfile(SXC=SXC, SBgC=SBgC, SXBgC=SXBgC, SXBC=SXBC)


def _curve_samples(curve, n: int) -> np.ndarray:
    lo, hi = curve.domain
    if hi - lo <= 1e-12:
        return np.array([lo])
    grid = np.linspace(lo, hi, n)
    return np.unique(np.concatenate([grid, curve.rates]))


def sampled_primitive_points(curves, n: int) -> tuple:
    """The three primitive families at n evenly spaced rates plus the vertices.

    Reference for the vertex-only `primitive_points`: every sampled point
    between two vertices is a time-share of them, so both sets have the
    same closure.  Rates where a curve is unachievable are skipped.
    """
    sbar = curves.stats.Sbar
    points = []
    for R in _curve_samples(curves.qct, n):
        R = float(R)
        q = curves.qct.value(R)
        points.append(RateTriple(R, q, 0.0, f"qct@{R:.6g}"))
        points.append(RateTriple(R, max(0.5 * (q - sbar), 0.0),
                                 0.5 * (q + sbar), f"coherent@{R:.6g}"))
    for R in _curve_samples(curves.rsp, n):
        R = float(R)
        e = curves.rsp.value(R)
        if e is None:
            continue
        points.append(RateTriple(R, 0.0, e, f"rsp@{R:.6g}"))
    return tuple(points)


def cq_state_dense(probs: np.ndarray, blocks: list) -> np.ndarray:
    """Classical-quantum state sum_i p_i |i><i| (x) rho_i as one dense matrix."""
    m = len(probs)
    d = blocks[0].shape[0]
    out = np.zeros((m * d, m * d), dtype=complex)
    for i, (p, rho) in enumerate(zip(probs, blocks)):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = p * rho
    return out


def conditional_mutual_information_xa_b(probs: np.ndarray, blocks: list,
                                        dimA: int, dimB: int) -> float:
    """S(X:A|B) of sum_i p_i |i><i|_X (x) rho_i^{AB}, via dense partial traces."""
    m = len(probs)
    xab = cq_state_dense(probs, blocks)
    dims = (m, dimA, dimB)
    xb = partial_trace_dense(xab, dims, keep=(0, 2))
    ab = partial_trace_dense(xab, dims, keep=(1, 2))
    b = partial_trace_dense(xab, dims, keep=(2,))
    return (von_neumann_entropy(xb) + von_neumann_entropy(ab)
            - von_neumann_entropy(b) - von_neumann_entropy(xab))


@dataclass(frozen=True)
class ChannelGridOracle:
    """Exhaustive 2-input/3-output channel grid evaluated on one ensemble.

    Every channel on a simplex grid of the given step contributes one
    (SXC, SBgC, SXBC) triple; curve queries take the cheapest SBgC among
    channels meeting the rate constraint.  Values are upper bounds on the
    true curves with error set by the grid step.
    """

    SXC: np.ndarray
    SBgC: np.ndarray
    SXBC: np.ndarray

    def qct_value(self, R: float) -> float:
        return float(self.SBgC[self.SXC <= R + 1e-9].min())

    def rsp_value(self, R: float) -> float:
        return float(self.SBgC[self.SXBC <= R + 1e-9].min())


def brute_force_two_state(ensemble: Ensemble, step: float = 0.02,
                          block: int = 8192) -> ChannelGridOracle:
    if ensemble.m != 2:
        raise ValueError("the grid oracle is built for 2-state ensembles")
    p = ensemble.probs
    phis = ensemble.reduced_b
    sbar = float(sum(pi * von_neumann_entropy(phi)
                     for pi, phi in zip(p, phis)))
    n = int(round(1.0 / step))
    rows = np.array([(a * step, b * step, 1.0 - (a + b) * step)
                     for a in range(n + 1) for b in range(n + 1 - a)])
    M = len(rows)
    idx_i, idx_j = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    idx_i, idx_j = idx_i.ravel(), idx_j.ravel()
    Hp = shannon_entropy(p)
    sxc_parts, sbgc_parts = [], []
    for s in range(0, M * M, block):
        ii, jj = idx_i[s:s + block], idx_j[s:s + block]
        ch = np.stack([rows[ii], rows[jj]], axis=1)
        joint = p[None, :, None] * ch
        q = joint.sum(axis=1)
        hq = -np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0).sum(axis=1)
        hj = -np.where(joint > 0,
                       joint * np.log2(np.where(joint > 0, joint, 1.0)),
                       0.0).sum(axis=(1, 2))
        mix = np.einsum("nij,iab->njab", joint, phis)
        qs = np.where(q > 1e-14, q, 1.0)
        lam = np.clip(np.linalg.eigvalsh(mix / qs[:, :, None, None]), 0.0, 1.0)
        ent = -np.where(lam > 1e-12,
                        lam * np.log2(np.where(lam > 0, lam, 1.0)),
                        0.0).sum(axis=2)
        sxc_parts.append(Hp + hq - hj)
        sbgc_parts.append((np.where(q > 1e-14, q, 0.0) * ent).sum(axis=1))
    sxc = np.concatenate(sxc_parts)
    sbgc = np.concatenate(sbgc_parts)
    return ChannelGridOracle(SXC=sxc, SBgC=sbgc, SXBC=sxc + sbgc - sbar)


def blahut_arimoto_step(reduced_b: np.ndarray, probs: np.ndarray, ratio,
                        channels: np.ndarray) -> tuple:
    """One plain fixed-point update of a (..., m, k) stack of channels, and
    the free value L = -(1/ratio) sum_i p_i log2 Z_i of the channels it
    updates, with Z_i the normaliser of row i of the update.

    ratio is one scalar or one per channel.  Dead outputs (q <= 1e-14) get
    the identity as their mixture and score -inf; eigenvalues are floored at
    EIGENVALUE_CLAMP before their log2.
    """
    joint = probs[:, None] * channels
    q = joint.sum(axis=-2)
    live = q > 1e-14
    mixtures = np.einsum("...ij,iab->...jab", joint, reduced_b)
    mixtures[live] /= q[live, None, None]
    mixtures[~live] = np.eye(reduced_b.shape[-1])
    lam, vec = np.linalg.eigh(mixtures)
    log_lam = np.log2(np.clip(lam, EIGENVALUE_CLAMP, None))
    log_mix = np.einsum("...jak,...jk,...jbk->...jab", vec, log_lam,
                        vec.conj())
    distortion = -np.einsum("iab,...jba->...ij", reduced_b, log_mix).real
    log_q = np.log2(q, out=np.full_like(q, -np.inf), where=live)
    ratio = np.asarray(ratio, dtype=float)
    scores = log_q[..., None, :] - ratio[..., None, None] * distortion
    top = scores.max(axis=-1, keepdims=True)
    updated = np.exp2(scores - top)
    total = updated.sum(axis=-1, keepdims=True)
    log_norm = (top + np.log2(total))[..., 0]
    value = -np.multiply(log_norm, probs).sum(axis=-1) / ratio
    return updated / total, value


def blahut_arimoto_map(reduced_b: np.ndarray, probs: np.ndarray, ratio,
                       channels: np.ndarray) -> np.ndarray:
    """The update of `blahut_arimoto_step` alone."""
    return blahut_arimoto_step(reduced_b, probs, ratio, channels)[0]


def fixed_point_one_start(reduced_b: np.ndarray, probs: np.ndarray,
                          ratio: float, channel: np.ndarray,
                          max_iter: int) -> tuple[np.ndarray, bool]:
    """The extrapolated (SQUAREM) fixed-point cycle from one start, in a
    plain loop.

    Reference for the lockstep solver.  From x0 a cycle takes x1 = F(x0) and
    x2 = F(x1), with F the `blahut_arimoto_map`, extrapolates to
    x' = x0 + 2 t r + t^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and
    t = max(|r|/|v|, 1), halving t toward 1 (t <- max(t/2, 1)) while x' has
    an entry <= 0 and taking x' = x2 once t reaches 1, and maps x' to the
    next x0.  The start stops at its first map evaluation whose
    sup-norm change is below 1e-10, or whose point x' has a free value L
    (`blahut_arimoto_step`) not below that of every earlier x', with that
    evaluation's image; max_iter counts map evaluations.
    """
    iterates, lowest = [channel], np.inf
    for _ in range(max_iter):
        jumped = len(iterates) == 3
        if jumped:
            x0, x1, x2 = iterates
            r = x1 - x0
            v = x2 - x1 - r
            rr, vv = np.einsum("ij,ij->", r, r), np.einsum("ij,ij->", v, v)
            t2 = max(rr / vv if vv > 0.0 else 1.0, 1.0)
            point = x0 + 2.0 * np.sqrt(t2) * r + t2 * v
            while (point <= 0.0).any():
                t2 = max(t2 / 4.0, 1.0)
                if t2 == 1.0:
                    point = x2
                    break
                point = x0 + 2.0 * np.sqrt(t2) * r + t2 * v
            iterates = []
        else:
            point = iterates[-1]
        updated, value = blahut_arimoto_step(reduced_b, probs, ratio, point)
        if np.abs(updated - point).max() < 1e-10 or (jumped
                                                    and value >= lowest):
            return updated, True
        if jumped:
            lowest = min(lowest, value)
        iterates.append(updated)
    return iterates[-1], False
