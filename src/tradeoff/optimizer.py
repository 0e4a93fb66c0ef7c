"""Trade-off curve computation by scalarized minimization over classifier channels.

Both curves minimize the conditional entropy of the quantum register given
the channel output, under a mutual-information budget:

    qubit curve  (kind "XC"):   value(R) = min S(B|C)  s.t.  S(X:C)  <= R
    ebit  curve  (kind "XBC"):  value(R) = min S(B|C)  s.t.  S(X:BC) <= R

Each curve is convex and non-increasing in R, so every point is exposed by a
supporting slope.  As S(X:BC) = S(X:C) + S(B|C) - Sbar, one solve serves
both: a ladder of weights mu in S(B|C) + mu * S(X:C) gives (S(X:C), S(B|C))
points whose lower convex envelope is the qubit curve, and the envelope of
their shear (R, Q) -> (R + Q - Sbar, Q) is the ebit curve.  The shear turns
a slope -mu line into a slope -mu/(1 - mu) one for mu < 1, and otherwise
into a vertical or rising one that bounds nothing; it takes (0, S) to
(chi, S) and fixes (H, Sbar), so the analytic endpoints serve both curves.

The mu ladder is geometric, which undersamples curves whose slope range is
narrow, so the sweep is followed by sandwich refinement passes: the point
produced at weight mu carries the global lower-bound line of slope -mu
through itself (scalarization duality), the gap between each envelope chord
and the two supporting lines of its endpoints bounds the interpolation
error, and segments of either envelope whose bound exceeds a small target
are re-solved at the chord slope (-nu: mu = nu on the qubit curve,
mu = nu/(1 + nu) on the ebit curve) until the bound closes or the budget
runs out.

The inner problem is nonconvex in the channel.  It is solved by the
multiplicative fixed-point iteration familiar from Blahut-Arimoto and
information-bottleneck solvers: writing the stationarity condition of

    alpha * S(B|C) + beta * S(X:C)

over row-stochastic channels gives the self-consistent update

    p(j|i)  proportional to  q_j * 2^(-(alpha/beta) * d(i, j)),
    d(i, j) = -Tr[rho_i log2 rho_j],

where rho_j is the posterior mixture at output j.  Each update solves one
block of an exact alternating minimization, so the objective is
non-increasing; many seeded random starts guard against local minima.  The
starts of consecutive weights (the whole ladder, or one refinement pass) are
iterated together as a few arrays, each row at its own weight and each
frozen once it converges.  An array holds the starts of as many weights as
fit in STACK_ELEMENTS channel entries, and always at least one weight:
small stacks cost numpy call overhead per iteration, so batching them saves
time, while past the cap the cost is array work and a larger stack only
adds memory.

For a qubit B register the distortion has a closed form.  With Bloch
vectors rho = (I + r.sigma)/2, the posterior vector r_j = sum_i p_i p(j|i)
r_i / q_j of length n, f+- = log2((1 +- n)/2), alpha_j = (f+ + f-)/2 and
gamma_j = (f+ - f-)/(2n),

    d(i, j) = -(alpha_j + gamma_j * r_i . r_j),

which costs two small matrix products per iteration.  Any other dimB takes
the dense path: the posterior mixtures are eigendecomposed and log2 rho_j is
reassembled in their eigenbasis.
"""

import math
# Never used here; kept only for bench/workloads.py count_pools to patch.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .profiles import (ZERO_OUTPUT, ClassicalChannel, EntropicProfile,
                       entropic_profile)
from .states import Ensemble, EnsembleStats, ensemble_stats

MU_MIN = 1e-3
MU_MAX = 1e3
MU_CAP = 1e5
DEFAULT_RESOLUTION = 40
DEFAULT_MULTISTARTS = 32
DEFAULT_MAX_ITER = 500
CONVERGENCE_TOL = 1e-10
DOMAIN_TOL = 1e-9
# Sandwich refinement: per-segment interpolation-error target and caps.
REFINE_TARGET = 2e-3
REFINE_PASSES = 8
# Fraction of starts allowed to hit the iteration cap before a sweep is
# reported as diagnostically suspect.
NONCONVERGED_DIAGNOSTIC = 0.5
# Most channel entries (starts * m * k) in one lockstep solve of the starts
# of several multipliers (see the module docstring).
STACK_ELEMENTS = 1 << 16


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Base-2 softmax over the last axis, computed in place in logits."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp2(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _dense_distortion(reduced_b: np.ndarray):
    """d(i, j) = -Tr[rho_i log2 rho_j] through a batched eigendecomposition."""
    identity = np.eye(reduced_b.shape[-1])

    def distortion(joint, q, live):
        mixtures = np.einsum("sij,iab->sjab", joint, reduced_b)
        # Dead outputs get a harmless mixture; their scores are -inf anyway.
        mixtures[live] /= q[live, None, None]
        mixtures[~live] = identity
        lam, vec = np.linalg.eigh(mixtures)
        log_lam = np.log2(np.clip(lam, 1e-300, None))
        # log2(rho_j) reassembled in the eigenbasis, then the trace with rho_i
        log_mix = np.einsum("sjak,sjk,sjbk->sjab", vec, log_lam, vec.conj())
        return -np.einsum("iab,sjba->sij", reduced_b, log_mix).real

    return distortion


def _qubit_distortion(reduced_b: np.ndarray):
    """d(i, j) = -Tr[rho_i log2 rho_j] for qubits, in Bloch-vector form.

    log2 rho_j = alpha_j I + gamma_j r_j.sigma, and Tr rho_i = 1,
    Tr[rho_i sigma] = r_i give the closed form in the module docstring.
    """
    bloch = np.stack([2.0 * reduced_b[:, 0, 1].real,
                      -2.0 * reduced_b[:, 0, 1].imag,
                      (reduced_b[:, 0, 0] - reduced_b[:, 1, 1]).real], axis=-1)

    def distortion(joint, q, live):
        # Posterior Bloch vectors; dead outputs keep r_j = 0 and score -inf.
        post = np.divide(joint.transpose(0, 2, 1) @ bloch, q[..., None],
                         out=np.zeros(q.shape + (3,)), where=live[..., None])
        n = np.linalg.norm(post, axis=-1)
        f_plus = np.log2(np.maximum((1.0 + n) / 2.0, 1e-300))
        f_minus = np.log2(np.maximum((1.0 - n) / 2.0, 1e-300))
        gamma = np.divide(f_plus - f_minus, 2.0 * n,
                          out=np.zeros_like(n), where=n > 0)
        alpha = (f_plus + f_minus) / 2.0
        # -(alpha_j + gamma_j * r_i . r_j) in one (starts, m, k) buffer
        d = bloch @ post.transpose(0, 2, 1)
        d *= gamma[:, None, :]
        d += alpha[:, None, :]
        return np.negative(d, out=d)

    return distortion


def _fixed_point(reduced_b: np.ndarray, probs: np.ndarray, ratio,
                 channels: np.ndarray, max_iter: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Run the multiplicative fixed-point update from a stack of channels.

    channels has shape (starts, m, k).  ratio is alpha/beta, the weight of
    the entropy distortion relative to the classical mutual information,
    either one scalar or one per start, of shape (starts,).  Every start
    takes the same update as if run alone at its ratio; a start leaves the
    active set at its first step whose sup-norm change is below
    CONVERGENCE_TOL.  Returns the final channels and a per-start flag saying
    whether the start converged before the cap.
    """
    distortion = (_qubit_distortion if reduced_b.shape[-1] == 2
                  else _dense_distortion)(reduced_b)
    result = np.empty_like(channels)
    converged = np.zeros(len(channels), dtype=bool)
    active = np.arange(len(channels))
    channel = channels
    weight = np.broadcast_to(np.asarray(ratio, dtype=float),
                             (len(channels),))[:, None, None]
    for _ in range(max_iter):
        if active.size == 0:
            break
        joint = probs[:, None] * channel
        q = joint.sum(axis=1)
        live = q > ZERO_OUTPUT
        log_q = np.log2(q, out=np.full_like(q, -np.inf), where=live)
        # In place, so that a full stack holds few (starts, m, k) arrays.
        scores = distortion(joint, q, live)
        scores *= weight
        updated = _softmax_rows(np.subtract(log_q[:, None, :], scores,
                                            out=scores))
        change = np.abs(np.subtract(updated, channel, out=joint), out=joint)
        done = change.max(axis=(1, 2)) < CONVERGENCE_TOL
        if done.any():
            result[active[done]] = updated[done]
            converged[active[done]] = True
            keep = ~done
            active, channel, weight = active[keep], updated[keep], weight[keep]
        else:
            channel = updated
    result[active] = channel
    return result, converged


def _start_points(m: int, k: int, count: int, seed_key) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return _softmax_rows(rng.normal(0.0, 2.0, size=(count, m, k)))


def _sweep(ensemble: Ensemble, stats: EnsembleStats, mus, first_index: int,
           multistarts: int, seed: int, max_iter: int) -> list:
    """Minimize S(B|C) + mu * S(X:C) from every start of every mu, in stacks.

    mus[i] draws its starts from the seed key (seed, 0, first_index + i).
    The starts of consecutive mus share one stack of at most STACK_ELEMENTS
    channel entries, and always at least one mu.  Returns one list per mu of
    one (S(X:C), S(B|C), channel matrix, converged) per start.
    """
    m, k = ensemble.m, ensemble.m + 1
    per_stack = max(1, STACK_ELEMENTS // (multistarts * m * k))
    sweeps = []
    for lo in range(0, len(mus), per_stack):
        group = mus[lo:lo + per_stack]
        starts = np.concatenate([
            _start_points(m, k, multistarts, [seed, 0, first_index + index])
            for index in range(lo, lo + len(group))])
        ratios = np.repeat([1.0 / mu for mu in group], multistarts)
        channels, converged = _fixed_point(ensemble.reduced_b, ensemble.probs,
                                           ratios, starts, max_iter)
        outcomes = []
        for channel, ok in zip(channels, converged.tolist()):
            profile = entropic_profile(ensemble, ClassicalChannel(channel),
                                       stats)
            outcomes.append((profile.SXC, profile.SBgC, channel, ok))
        sweeps.extend(outcomes[i:i + multistarts]
                      for i in range(0, len(outcomes), multistarts))
    return sweeps


def minimize_profile(ensemble: Ensemble, mu: float, kind: str = "XC", *,
                     multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
                     max_iter: int = DEFAULT_MAX_ITER,
                     ) -> tuple[ClassicalChannel, EntropicProfile]:
    """Minimize SBgC + mu * constraint over channels with m+1 outputs.

    kind selects the constraint: "XC" uses S(X:C), "XBC" uses S(X:BC), whose
    objective is solved as XC at weight mu/(1 + mu) (module docstring).
    Returns the best channel found over the multi-starts and its profile.
    At mu = 0 the objective is S(B|C) alone, whose unconstrained minimum Sbar
    is attained by the identity channel; that case is answered analytically.
    """
    if kind not in ("XC", "XBC"):
        raise ValueError(f"kind must be 'XC' or 'XBC', got {kind!r}")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    if multistarts < 1:
        raise ValueError("multistarts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    stats = ensemble_stats(ensemble)
    if mu == 0.0:
        channel = ClassicalChannel.identity(ensemble.m)
        return channel, entropic_profile(ensemble, channel, stats)
    weight = float(mu) if kind == "XC" else mu / (1.0 + mu)
    [outcomes] = _sweep(ensemble, stats, [weight], 0, multistarts, seed,
                        max_iter)
    best = min(outcomes, key=lambda item: item[1] + weight * item[0])
    channel = ClassicalChannel(best[2])
    return channel, entropic_profile(ensemble, channel, stats)


def _lower_envelope(points):
    """Lower convex envelope of (x, y, *payload) support points.

    Points are deduplicated on x (keeping the smallest y) and swept with the
    monotone-chain rule; collinear interior points are dropped.
    """
    points = sorted(points, key=lambda p: (p[0], p[1]))
    merged = []
    for p in points:
        if merged and p[0] - merged[-1][0] <= 1e-12:
            continue  # same abscissa: the earlier point has the smaller y
        merged.append(p)
    hull = []
    for p in merged:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 1e-12:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _segment_bound(rec0, rec1) -> float:
    """Upper bound on (chord - true curve) over one envelope segment.

    Each record is (x, y, channel, mu); a point produced at weight mu lies on
    the global lower-bound line of slope -mu through itself, so the curve sits
    between the chord and the upper envelope of the two lines.  mu of None
    means no valid line at that endpoint (a vertical wall), leaving the other
    line alone to certify the segment.
    """
    x0, y0, _, mu0 = rec0
    x1, y1, _, mu1 = rec1
    w = x1 - x0
    if w <= 1e-9:
        return 0.0
    s = (y1 - y0) / w
    a = max(s + mu0, 0.0) if mu0 is not None else None
    b = max(-(s + mu1), 0.0) if mu1 is not None else None
    if a is None and b is None:
        return math.inf
    if a is None:
        return b * w
    if b is None:
        return a * w
    if a + b <= 1e-15:
        return 0.0
    return a * b * w / (a + b)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Piecewise-linear convex trade-off curve.

    samples are the convex-envelope support vertices as (R, value) pairs in
    increasing R; channels[i] is a channel achieving samples[i].  The curve
    extends flat at `floor` (= Sbar) for R beyond the last vertex.  Queries
    left of the domain return None: those rates are unachievable.
    """

    kind: str
    samples: tuple
    domain: tuple
    floor: float
    channels: tuple
    diagnostics: tuple = ()

    def __post_init__(self):
        xs = np.array([s[0] for s in self.samples], dtype=float)
        ys = np.array([s[1] for s in self.samples], dtype=float)
        if xs.size == 0:
            raise ValueError("curve needs at least one sample")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("curve samples must have strictly increasing R")
        if np.any(np.diff(ys) > 1e-6):
            raise ValueError("curve values must be non-increasing")
        if xs.size >= 3:
            slopes = np.diff(ys) / np.diff(xs)
            if np.any(np.diff(slopes) < -1e-6):
                raise ValueError("curve must be convex")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    @property
    def rates(self) -> np.ndarray:
        return self._xs

    @property
    def values(self) -> np.ndarray:
        return self._ys

    def value(self, R: float) -> float | None:
        """Curve value at rate R, or None where the rate is unachievable."""
        if R < self.domain[0] - DOMAIN_TOL:
            return None
        xs, ys = self._xs, self._ys
        if R <= xs[0]:
            return float(ys[0])
        if R >= xs[-1]:
            return float(ys[-1])
        return float(np.interp(R, xs, ys))


@dataclass(frozen=True)
class CriticalRate:
    """Largest rate at which the qubit curve still has unit trade-off slope."""

    Hc: float
    found: bool


@dataclass(frozen=True)
class CurveSet:
    """Both trade-off curves of one ensemble plus its entropic summary."""

    stats: EnsembleStats
    qct: TradeoffCurve
    rsp: TradeoffCurve
    critical: CriticalRate


def _solve(ensemble: Ensemble, resolution: int, multistarts: int, seed: int,
           max_iter: int) -> tuple[TradeoffCurve, TradeoffCurve]:
    """The QCT and RSP curves of one XC ladder and refinement loop."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if multistarts < 1:
        raise ValueError("multistarts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    stats = ensemble_stats(ensemble)

    # Outcomes as (S(X:C), S(B|C), channel, mu tag).  Analytic endpoints come
    # first so exact ties keep their tags: the constant channel reveals
    # nothing (the mu = 1 solution), the identity channel everything (mu = 0).
    points = [(0.0, stats.S, ClassicalChannel.constant(ensemble.m).matrix, 1.0),
              (stats.H, stats.Sbar, ClassicalChannel.identity(ensemble.m).matrix,
               0.0)]
    total = nonconverged = 0

    def collect(mus, first_index):
        # All outcomes are achievable points, but only the per-mu winner of
        # the scalarized objective sits on a certified slope -mu lower-bound
        # line; local optima get no line (mu tag None).
        nonlocal total, nonconverged
        sweeps = _sweep(ensemble, stats, mus, first_index, multistarts, seed,
                        max_iter)
        for mu, outcomes in zip(mus, sweeps):
            best = min(value + mu * constraint
                       for constraint, value, _, _ in outcomes)
            for constraint, value, channel, converged in outcomes:
                tag = mu if value + mu * constraint <= best + 1e-9 else None
                points.append((min(max(constraint, 0.0), stats.H),
                               max(value, stats.Sbar), channel, tag))
                total += 1
                nonconverged += not converged

    def envelopes():
        # RSP points and tags are the shear of these (module docstring).
        sheared = [(min(max(x + y - stats.Sbar, stats.chi), stats.H), y, c,
                    mu / (1.0 - mu) if mu is not None and mu < 1.0 else None)
                   for x, y, c, mu in points]
        return _lower_envelope(points), _lower_envelope(sheared)

    mus = np.geomspace(MU_MIN, MU_MAX, int(resolution)).tolist()
    collect(mus, 0)

    hulls = envelopes()
    used = {round(math.log(mu), 6) for mu in mus}
    budget = int(resolution)
    next_index = len(mus)
    for _ in range(REFINE_PASSES):
        if budget <= 0:
            break
        requests = []
        for hull, to_mu in zip(hulls, (lambda nu: nu,
                                       lambda nu: nu / (1.0 + nu))):
            for rec0, rec1 in zip(hull[:-1], hull[1:]):
                if _segment_bound(rec0, rec1) <= REFINE_TARGET:
                    continue
                slope = (rec1[1] - rec0[1]) / (rec1[0] - rec0[0])
                mu_new = to_mu(min(max(-slope, MU_MIN), MU_CAP))
                key = round(math.log(mu_new), 6)
                if key in used:
                    continue
                used.add(key)
                requests.append(mu_new)
        requests = requests[:budget]
        if not requests:
            break
        budget -= len(requests)
        collect(requests, next_index)
        next_index += len(requests)
        hulls = envelopes()

    diagnostics = ()
    if nonconverged > NONCONVERGED_DIAGNOSTIC * max(total, 1):
        diagnostics = (f"{nonconverged}/{total} starts hit the "
                       f"{max_iter}-iteration cap",)
    return tuple(
        TradeoffCurve(kind=kind,
                      samples=tuple((float(x), float(y)) for x, y, _, _ in hull),
                      domain=(lo, stats.H), floor=stats.Sbar,
                      channels=tuple(ClassicalChannel(c) for _, _, c, _ in hull),
                      diagnostics=diagnostics)
        for kind, lo, hull in (("QCT", 0.0, hulls[0]),
                               ("RSP", stats.chi, hulls[1])))


def qct_curve(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
              multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
              max_iter: int = DEFAULT_MAX_ITER) -> TradeoffCurve:
    """Optimal qubit rate versus classical rate, Q*(R), for R in [0, H]."""
    return _solve(ensemble, resolution, multistarts, seed, max_iter)[0]


def rsp_curve(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
              multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
              max_iter: int = DEFAULT_MAX_ITER) -> TradeoffCurve:
    """Optimal ebit rate versus classical rate, E*(R), for R in [chi, H]."""
    return _solve(ensemble, resolution, multistarts, seed, max_iter)[1]


def critical_rate(curve: TradeoffCurve, S: float, *,
                  tol: float = 5e-3) -> CriticalRate:
    """Largest rate R with R + Q*(R) = S, located on the qubit curve.

    Scans the curve vertices for the largest R whose excess R + Q*(R) - S
    stays within tol, then refines by bisection on the interpolated curve.
    A missing plateau (no qualifying vertex) is flagged via found = False.
    """
    if curve.kind != "QCT":
        raise ValueError("the critical rate is defined on the QCT curve")

    def excess(r: float) -> float:
        return r + curve.value(r) - S

    qualifying = [float(x) for x in curve.rates if abs(excess(float(x))) <= tol]
    if not qualifying:
        return CriticalRate(Hc=0.0, found=False)
    r_lo = max(qualifying)
    later = curve.rates[curve.rates > r_lo + 1e-15]
    if later.size == 0:
        return CriticalRate(Hc=r_lo, found=True)
    r_hi = float(later[0])
    for _ in range(60):
        mid = 0.5 * (r_lo + r_hi)
        if excess(mid) <= tol:
            r_lo = mid
        else:
            r_hi = mid
    return CriticalRate(Hc=r_lo, found=True)


def compute_curves(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
                   multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
                   workers: int = 1, max_iter: int = DEFAULT_MAX_ITER) -> CurveSet:
    """Both curves, the critical rate and the entropic summary of an ensemble.

    workers is accepted for old callers and has no effect.
    """
    stats = ensemble_stats(ensemble)
    qct, rsp = _solve(ensemble, resolution, multistarts, seed, max_iter)
    return CurveSet(stats=stats, qct=qct, rsp=rsp,
                    critical=critical_rate(qct, stats.S))
