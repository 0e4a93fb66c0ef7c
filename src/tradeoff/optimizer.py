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

The ladder is the mu <= 1 half of an N-point geometric grid (N = the
resolution) symmetric about 1 on [MU_MIN, 1/MU_MIN] = [1e-3, 1e3]; rung i
draws its starts from seed key (seed, 0, i).  The half above 1 is never
needed: data processing gives I(B:C) <= I(X:C), i.e. S(X:C) + S(B|C) >= S,
so the qubit curve is nowhere steeper than -1 and every mu > 1 is minimized
at the known point (0, S) of the constant channel.

The endpoints (0, S) and (H, Sbar) are exact: a solved outcome with
S(X:C) <= SNAP or S(X:C) >= H - SNAP is dropped, as data processing puts it
within SNAP of an endpoint, by S - S(B|C) <= S(X:C) at the left end and
S(B|C) - Sbar = I(X:B|C) <= S(X|C) = H - S(X:C) at the right one.

A geometric ladder undersamples curves whose slope range is narrow, so the
ladder is pass 0 of a loop of sandwich refinement passes.  The point
produced at weight mu carries the global lower-bound line of slope -mu
through itself (scalarization duality), unless some collected point, the
analytic endpoints included, lies below that line: then the point is a
local optimum and loses its line.  The gap between each envelope chord and
the two supporting lines of its endpoints bounds the interpolation error,
and segments of either envelope whose bound exceeds a small target are
re-solved at the chord slope (-nu: mu = nu on the qubit curve,
mu = nu/(1 + nu) on the ebit curve, capped at mu = 1) until the bound
closes or the budget runs out.  The solve keeps its points as parallel
arrays of S(X:C), S(B|C), tag and channel, where the tag is the mu of the
point's line, or NaN once it has none; each envelope is a list of indices
into these arrays, and both curves are read from them by indexing.

The inner problem is nonconvex in the channel.  It is solved by the
multiplicative fixed-point iteration familiar from Blahut-Arimoto and
information-bottleneck solvers: writing the stationarity condition of

    alpha * S(B|C) + beta * S(X:C)

over row-stochastic channels gives the self-consistent update

    p(j|i)  proportional to  q_j * 2^(-(alpha/beta) * d(i, j)),
    d(i, j) = -Tr[rho_i log2 rho_j],

where rho_j is the posterior mixture at output j.  Each plain update F solves
one block of an exact alternating minimization, so it never raises the
objective, but near a critical slope it barely contracts.  The solver
therefore runs SQUAREM cycles (Varadhan & Roland 2008): from x0 it takes
x1 = F(x0) and x2 = F(x1), with r = x1 - x0 and v = x2 - 2 x1 + x0, and
jumps to

    x' = x0 + 2 t r + t^2 v,    t = max(|r| / |v|, 1),

whose image F(x') is the next cycle's x0 (SQUAREM's step length is
alpha = -t, and t = 1 gives x' = x2; t is per row, from row norms).  x' is
never clipped to the simplex: the update is multiplicative, so an output
set to zero would never come back.  A row whose x' has any entry <= 0 takes
x' = x2 instead.  A start stops at its first map evaluation that moves it
by less than CONVERGENCE_TOL in sup norm, with that evaluation's image, and
max_iter counts map evaluations, three per cycle.  Many seeded random
starts guard against local minima.  The starts of consecutive weights (the
whole ladder, or one refinement pass) are iterated together as a few
arrays, each row at its own weight, with its own step length and fallback,
and each frozen once it converges.  An array holds the starts of as many
weights as fit in STACK_ELEMENTS channel entries, and always at least one
weight: small stacks cost numpy call overhead per iteration, so batching
them saves time, while past the cap the cost is array work and a larger
stack only adds memory.

For a qubit B register the distortion has a closed form.  With Bloch
vectors rho = (I + r.sigma)/2, the posterior vector r_j = sum_i p_i p(j|i)
r_i / q_j of length n, f+- = log2((1 +- n)/2), alpha_j = (f+ + f-)/2 and
gamma_j = (f+ - f-)/(2n),

    d(i, j) = -(alpha_j + gamma_j * r_i . r_j),

which costs two small matrix products per iteration.  Any other dimB takes
the dense path: the posterior mixtures are eigendecomposed and log2 rho_j is
reassembled in their eigenbasis.  Both kernels floor the eigenvalues (1 +- n)/2
or lambda at states.EIGENVALUE_CLAMP before the log2, the same dust rule by
which every entropy in the package drops tiny eigenvalues: a pure
posterior's zero eigenvalue, which rounding leaves at +-1e-16, then scores
the same in either kernel.  When a stack is done, one call of
profiles.stack_entropies scores all its starts.
"""

import math
# Never used here; kept only for bench/workloads.py count_pools to patch.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .profiles import (ZERO_OUTPUT, ClassicalChannel, EntropicProfile,
                       entropic_profile, stack_entropies)
from .states import EIGENVALUE_CLAMP, Ensemble, EnsembleStats, ensemble_stats

MU_MIN = 1e-3
DEFAULT_RESOLUTION = 40
DEFAULT_MULTISTARTS = 32
DEFAULT_MAX_ITER = 500
CONVERGENCE_TOL = 1e-10
DOMAIN_TOL = 1e-9
# Solved points within SNAP of an analytic endpoint in S(X:C) are dropped
# (module docstring).
SNAP = 1e-9
# Sandwich refinement: per-segment interpolation-error target and caps.
REFINE_TARGET = 2e-3
REFINE_PASSES = 8
# Fraction of starts allowed to hit the cap of max_iter map evaluations before
# a sweep is reported as diagnostically suspect.
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


def _dense_logits(reduced_b: np.ndarray):
    """The update's logits log2 q_j - w * d(i, j), with the distortion
    d(i, j) = -Tr[rho_i log2 rho_j] from a batched eigendecomposition."""
    identity = np.eye(reduced_b.shape[-1])

    def logits(joint, q, live, log_q, weight):
        mixtures = np.einsum("sij,iab->sjab", joint, reduced_b)
        # Dead outputs get a harmless mixture; their log_q is -inf anyway.
        mixtures[live] /= q[live, None, None]
        mixtures[~live] = identity
        lam, vec = np.linalg.eigh(mixtures)
        log_lam = np.log2(np.clip(lam, EIGENVALUE_CLAMP, None))
        # log2(rho_j) reassembled in the eigenbasis, then the trace with rho_i
        log_mix = np.einsum("sjak,sjk,sjbk->sjab", vec, log_lam, vec.conj())
        scores = np.multiply(
            np.einsum("iab,sjba->sij", reduced_b, log_mix).real,
            weight[:, None, None])
        scores += log_q[:, None, :]
        return scores

    return logits


def _qubit_logits(reduced_b: np.ndarray):
    """The update's logits log2 q_j - w * d(i, j) for qubits, with the
    distortion in Bloch-vector form.

    log2 rho_j = alpha_j I + gamma_j r_j.sigma, and Tr rho_i = 1,
    Tr[rho_i sigma] = r_i give the closed form in the module docstring.
    """
    bloch = np.stack([2.0 * reduced_b[:, 0, 1].real,
                      -2.0 * reduced_b[:, 0, 1].imag,
                      (reduced_b[:, 0, 0] - reduced_b[:, 1, 1]).real], axis=-1)
    half_sum_diff = np.array([[0.5, 0.5], [0.5, -0.5]])

    def logits(joint, q, live, log_q, weight):
        # Posterior Bloch vectors; dead outputs keep r_j = 0 and log_q -inf.
        post = np.divide(joint.transpose(0, 2, 1) @ bloch, q[..., None],
                         out=np.zeros(q.shape + (3,)), where=live[..., None])
        n = np.sqrt(np.einsum("sjc,sjc->sj", post, post))
        # The eigenvalues (1 +- n)/2 on the last axis, then f+- = their
        # floored log2, then w alpha_j = w (f+ + f-)/2 and
        # w gamma_j n_j = w (f+ - f-)/2.
        f = np.multiply.outer(n, (0.5, -0.5))
        f += 0.5
        np.log2(np.maximum(f, EIGENVALUE_CLAMP, out=f), out=f)
        f = f @ half_sum_diff
        f *= weight[:, None, None]
        # log2 q_j + w alpha_j and w gamma_j as (starts, k) vectors, so that
        # the (starts, m, k) buffer takes one product and two updates.
        offset = f[..., 0] + log_q
        scale = np.divide(f[..., 1], n, out=np.zeros_like(n), where=n > 0)
        scores = bloch @ post.transpose(0, 2, 1)
        scores *= scale[:, None, :]
        scores += offset[:, None, :]
        return scores

    return logits


def _extrapolate(x0: np.ndarray, x1: np.ndarray,
                 x2: np.ndarray) -> np.ndarray:
    """The SQUAREM point x0 + 2 t r + t^2 v of each row, or x2 where that
    point leaves the interior of the simplex (module docstring)."""
    r = np.subtract(x1, x0)
    v = np.subtract(x2, x1)
    v -= r
    rr = np.einsum("sij,sij->s", r, r)
    vv = np.einsum("sij,sij->s", v, v)
    # t^2 = max(|r|^2 / |v|^2, 1); |v| = 0 takes t = 1 as well.
    t2 = np.maximum(np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0.0),
                    1.0)
    r *= (2.0 * np.sqrt(t2))[:, None, None]
    v *= t2[:, None, None]
    r += x0
    r += v
    outside = (r <= 0.0).any(axis=(1, 2))
    np.copyto(r, x2, where=outside[:, None, None])
    return r


def _fixed_point(reduced_b: np.ndarray, probs: np.ndarray, ratio,
                 channels: np.ndarray, max_iter: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Run the extrapolated fixed-point update from a stack of channels.

    channels has shape (starts, m, k).  ratio is alpha/beta, the weight of
    the entropy distortion relative to the classical mutual information,
    either one scalar or one per start, of shape (starts,).  Every start
    takes the same cycles as if run alone at its ratio; a start leaves the
    active set at its first map evaluation whose sup-norm change is below
    CONVERGENCE_TOL, with that evaluation's image.  max_iter counts map
    evaluations.  Returns the final channels and a per-start flag saying
    whether the start converged before the cap.
    """
    logits = (_qubit_logits if reduced_b.shape[-1] == 2
              else _dense_logits)(reduced_b)
    result = np.empty_like(channels)
    converged = np.zeros(len(channels), dtype=bool)
    active = np.arange(len(channels))
    weight = np.broadcast_to(np.asarray(ratio, dtype=float), (len(channels),))
    # The current cycle's iterates: x0, then x1 = F(x0), then x2 = F(x1).
    cycle = [channels]
    for _ in range(max_iter):
        if active.size == 0:
            break
        if len(cycle) == 3:
            point, cycle = _extrapolate(*cycle), []
        else:
            point = cycle[-1]
        joint = probs[:, None] * point
        q = joint.sum(axis=1)
        live = q > ZERO_OUTPUT
        log_q = np.log2(q, out=np.full_like(q, -np.inf), where=live)
        # In place, so that a full stack holds few (starts, m, k) arrays.
        image = _softmax_rows(logits(joint, q, live, log_q, weight))
        change = np.abs(np.subtract(image, point, out=joint), out=joint)
        done = change.max(axis=(1, 2)) < CONVERGENCE_TOL
        if done.any():
            result[active[done]] = image[done]
            converged[active[done]] = True
            keep = ~done
            active, weight, image = active[keep], weight[keep], image[keep]
            cycle = [x[keep] for x in cycle]
        cycle.append(image)
    result[active] = cycle[-1]
    return result, converged


def _start_points(m: int, k: int, count: int, seed_key) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return _softmax_rows(rng.normal(0.0, 2.0, size=(count, m, k)))


def _check_starts(multistarts: int, seed: int) -> None:
    if multistarts < 1:
        raise ValueError("multistarts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _sweep(ensemble: Ensemble, mus, first_index: int, multistarts: int,
           seed: int, max_iter: int) -> tuple:
    """Minimize S(B|C) + mu * S(X:C) from every start of every mu, in stacks.

    mus[i] draws its starts from the seed key (seed, 0, first_index + i).
    The starts of consecutive mus share one stack of at most STACK_ELEMENTS
    channel entries, and always at least one mu.  Returns four arrays with
    one row per start, the multistarts starts of mus[0] first: S(X:C),
    S(B|C), the channel matrices and the converged flags.
    """
    m, k = ensemble.m, ensemble.m + 1
    per_stack = max(1, STACK_ELEMENTS // (multistarts * m * k))
    stacks = []
    for lo in range(0, len(mus), per_stack):
        group = mus[lo:lo + per_stack]
        starts = np.concatenate([
            _start_points(m, k, multistarts, [seed, 0, first_index + index])
            for index in range(lo, lo + len(group))])
        ratios = np.repeat([1.0 / mu for mu in group], multistarts)
        channels, converged = _fixed_point(ensemble.reduced_b, ensemble.probs,
                                           ratios, starts, max_iter)
        stacks.append((*stack_entropies(ensemble, channels), channels,
                       converged))
    return tuple(np.concatenate(parts) for parts in zip(*stacks))


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
    _check_starts(multistarts, seed)
    if mu == 0.0:
        channel = ClassicalChannel.identity(ensemble.m)
        return channel, entropic_profile(ensemble, channel)
    weight = float(mu) if kind == "XC" else mu / (1.0 + mu)
    SXC, SBgC, channels, _ = _sweep(ensemble, [weight], 0, multistarts, seed,
                                    max_iter)
    channel = ClassicalChannel(channels[np.argmin(SBgC + weight * SXC)])
    return channel, entropic_profile(ensemble, channel)


def _lower_envelope(xs: np.ndarray, ys: np.ndarray) -> list:
    """Indices of the lower convex envelope of the points (xs, ys), by x.

    Points are deduplicated on x (keeping the smallest y, and the first of
    equal points) and swept with the monotone-chain rule; collinear interior
    points are dropped.
    """
    X, Y = xs.tolist(), ys.tolist()
    merged = []
    for i in np.lexsort((ys, xs)).tolist():  # stable: ties keep their order
        if merged and X[i] - X[merged[-1]] <= 1e-12:
            continue  # same abscissa: the earlier point has the smaller y
        merged.append(i)
    hull = []
    for i in merged:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (X[b] - X[a]) * (Y[i] - Y[a]) - (Y[b] - Y[a]) * (X[i] - X[a])
            if cross > 1e-12:
                break
            hull.pop()
        hull.append(i)
    return hull


def _certified(xs: np.ndarray, ys: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """The tags of the points (xs, ys), NaN where some point lies below the
    line of slope -tag through its point: one points x distinct-tags
    operation.  A NaN tag stays NaN."""
    distinct, which = np.unique(tags, return_inverse=True)
    lowest = (ys[:, None] + xs[:, None] * distinct).min(axis=0)
    return np.where(ys + tags * xs > lowest[which] + 1e-9, np.nan, tags)


def _segment_bound(x0, y0, mu0, x1, y1, mu1) -> float:
    """Upper bound on (chord - true curve) over one envelope segment.

    A point produced at weight mu lies on the global lower-bound line of
    slope -mu through itself, so the curve sits between the chord and the
    upper envelope of the two end lines.  Over the width w, the left line's
    slope falls short of the chord's by a and the right line's exceeds it
    by b.  A NaN mu means no valid line at that end, so a vertical wall:
    its a or b is infinite, and the bound a*b*w/(a + b) takes its limit,
    the other end's term alone.
    """
    w = x1 - x0
    if w <= 1e-9:
        return 0.0
    s = (y1 - y0) / w
    a = math.inf if math.isnan(mu0) else max(s + mu0, 0.0)
    b = math.inf if math.isnan(mu1) else max(-(s + mu1), 0.0)
    if a + b <= 1e-15:
        return 0.0
    if math.isinf(a + b):
        return min(a, b) * w
    return a * b * w / (a + b)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Piecewise-linear convex trade-off curve.

    samples are the convex-envelope support vertices as (R, value) pairs in
    increasing R; channels[i] is a channel achieving samples[i].  The curve
    extends flat at its last value for R beyond the last vertex.  Queries
    left of the domain return None: those rates are unachievable.
    """

    kind: str
    samples: tuple
    domain: tuple
    channels: tuple

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
        if math.isnan(R):
            raise ValueError(f"rate must be a number, got R={R}")
        if R < self.domain[0] - DOMAIN_TOL:
            return None
        return float(np.interp(R, self._xs, self._ys))


@dataclass(frozen=True)
class CriticalRate:
    """Largest rate at which the qubit curve still has unit trade-off slope."""

    Hc: float
    found: bool


@dataclass(frozen=True)
class CurveSet:
    """Both trade-off curves of one solve, the ensemble's entropic summary,
    the critical rate and the solve's diagnostic notes."""

    stats: EnsembleStats
    qct: TradeoffCurve
    rsp: TradeoffCurve
    critical: CriticalRate
    diagnostics: tuple


def compute_curves(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
                   multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
                   workers: int = 1, max_iter: int = DEFAULT_MAX_ITER) -> CurveSet:
    """Both curves of one XC ladder and refinement loop, with the critical
    rate, the entropic summary and the solve's diagnostics.

    workers is accepted for old callers and has no effect.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_starts(multistarts, seed)
    stats = ensemble_stats(ensemble)

    # The points as parallel arrays of S(X:C), S(B|C), mu tag and channel,
    # starting from the exact analytic endpoints: the constant channel
    # reveals nothing (the mu = 1 solution), the identity channel everything
    # (mu = 0).  A NaN tag marks a point without a line.  Every solved point
    # more than SNAP from both in S(X:C) is kept, so no solver point can tie
    # an endpoint and displace it or its tag.
    xs, ys, tags = np.array([[0.0, stats.H], [stats.S, stats.Sbar], [1.0, 0.0]])
    channels = np.stack([ClassicalChannel.constant(ensemble.m).matrix,
                         ClassicalChannel.identity(ensemble.m).matrix])
    total = nonconverged = 0

    # Pass 0 solves the mu <= 1 rungs (module docstring); each later pass
    # re-solves the segments whose bound misses REFINE_TARGET, within one
    # budget of `resolution` multipliers.
    mus = [mu for mu in np.geomspace(MU_MIN, 1.0 / MU_MIN,
                                     int(resolution)).tolist() if mu <= 1.0]
    used = {round(math.log(mu), 6) for mu in mus}
    budget, first_index = int(resolution), 0
    for _ in range(REFINE_PASSES + 1):
        SXC, SBgC, solved, converged = _sweep(ensemble, mus, first_index,
                                              multistarts, seed, max_iter)
        total += converged.size
        nonconverged += np.count_nonzero(~converged)
        keep = (SXC > SNAP) & (SXC < stats.H - SNAP)
        xs = np.append(xs, SXC[keep])
        ys = np.append(ys, np.maximum(SBgC[keep], stats.Sbar))
        tags = _certified(xs, ys,
                          np.append(tags, np.repeat(mus, multistarts)[keep]))
        channels = np.concatenate([channels, solved[keep]])
        # RSP points and tags are the shear of these (module docstring).
        sides = ((xs, tags, lambda nu: nu),
                 (np.clip(xs + ys - stats.Sbar, stats.chi, stats.H),
                  np.divide(tags, 1.0 - tags, out=np.full_like(tags, np.nan),
                            where=tags < 1.0),
                  lambda nu: nu / (1.0 + nu)))
        hulls = [_lower_envelope(x, ys) for x, _, _ in sides]
        mus = []
        for (x, t, to_mu), hull in zip(sides, hulls):
            X, Y, T = x[hull].tolist(), ys[hull].tolist(), t[hull].tolist()
            for x0, y0, mu0, x1, y1, mu1 in zip(X, Y, T, X[1:], Y[1:], T[1:]):
                if _segment_bound(x0, y0, mu0, x1, y1, mu1) <= REFINE_TARGET:
                    continue
                mu_new = min(to_mu(max((y0 - y1) / (x1 - x0), MU_MIN)), 1.0)
                key = round(math.log(mu_new), 6)
                if key not in used:
                    used.add(key)
                    mus.append(mu_new)
        mus = mus[:budget]
        if not mus:
            break
        # Refinement keys run on from `resolution`, after the keys of the
        # whole symmetric grid; the resolution - budget requests made so
        # far hold the keys before this pass's.
        first_index = 2 * int(resolution) - budget
        budget -= len(mus)

    qct, rsp = (
        TradeoffCurve(kind=kind,
                      samples=tuple(zip(x[hull].tolist(), ys[hull].tolist())),
                      domain=(lo, stats.H),
                      channels=tuple(map(ClassicalChannel, channels[hull])))
        for kind, lo, (x, _, _), hull in zip(("QCT", "RSP"), (0.0, stats.chi),
                                             sides, hulls))
    critical = critical_rate(qct, stats.S)
    diagnostics = []
    if nonconverged > NONCONVERGED_DIAGNOSTIC * max(total, 1):
        diagnostics.append(f"{nonconverged}/{total} starts hit the cap of "
                           f"{max_iter} map evaluations")
    if not critical.found:
        diagnostics.append("critical rate not localized on the qubit curve")
    return CurveSet(stats=stats, qct=qct, rsp=rsp, critical=critical,
                    diagnostics=tuple(diagnostics))


def qct_curve(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
              multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
              max_iter: int = DEFAULT_MAX_ITER) -> TradeoffCurve:
    """Optimal qubit rate versus classical rate, Q*(R), for R in [0, H]."""
    return compute_curves(ensemble, resolution, multistarts=multistarts,
                          seed=seed, max_iter=max_iter).qct


def rsp_curve(ensemble: Ensemble, resolution: int = DEFAULT_RESOLUTION, *,
              multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
              max_iter: int = DEFAULT_MAX_ITER) -> TradeoffCurve:
    """Optimal ebit rate versus classical rate, E*(R), for R in [chi, H]."""
    return compute_curves(ensemble, resolution, multistarts=multistarts,
                          seed=seed, max_iter=max_iter).rsp


def critical_rate(curve: TradeoffCurve, S: float, *,
                  tol: float = 5e-3) -> CriticalRate:
    """Largest rate R with R + Q*(R) = S, located on the qubit curve.

    Scans the curve vertices for the largest R whose excess R + Q*(R) - S
    stays within tol.  The excess is linear on the segment that follows, so
    its crossing of tol there is solved in closed form, clamped to the
    segment's right end.  A missing plateau (no qualifying vertex) is
    flagged via found = False.
    """
    if curve.kind != "QCT":
        raise ValueError("the critical rate is defined on the QCT curve")
    qualifying = [i for i, (r, q) in enumerate(curve.samples)
                  if abs(r + q - S) <= tol]
    if not qualifying:
        return CriticalRate(Hc=0.0, found=False)
    i = qualifying[-1]
    if i + 1 == len(curve.samples):
        return CriticalRate(Hc=curve.samples[i][0], found=True)
    (r0, q0), (r1, q1) = curve.samples[i], curve.samples[i + 1]
    growth = 1.0 + (q1 - q0) / (r1 - r0)  # d(excess)/dR on the segment
    Hc = r1 if growth <= 0.0 else min(r0 + (tol - (r0 + q0 - S)) / growth, r1)
    return CriticalRate(Hc=Hc, found=True)

