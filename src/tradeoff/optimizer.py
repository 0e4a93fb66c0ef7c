"""Trade-off curve computation by scalarized minimization over classifier channels.

Both curves minimize the conditional entropy of the quantum register given
the channel output, under a mutual-information budget:

    qubit curve  (kind "XC"):   value(R) = min S(B|C)  s.t.  S(X:C)  <= R
    ebit  curve  (kind "XBC"):  value(R) = min S(B|C)  s.t.  S(X:BC) <= R

Each curve is convex and non-increasing in R, so every point is exposed by a
supporting slope.  As S(X:BC) = S(X:C) + S(B|C) - Sbar, one solve serves
both: minimizing S(B|C) + mu * S(X:C) over channels gives (S(X:C), S(B|C))
points whose lower convex envelope is the qubit curve, and the envelope of
their shear (R, Q) -> (R + Q - Sbar, Q) is the ebit curve.  No mu above 1 is
needed: data processing gives I(B:C) <= I(X:C), i.e. S(X:C) + S(B|C) >= S,
so the qubit curve is nowhere steeper than -1.

The endpoints (0, S) and (H, Sbar) are exact: the constant channel reveals
nothing and the identity channel everything.  A solved outcome with
S(X:C) <= SNAP or S(X:C) >= H - SNAP is dropped, as data processing puts it
within SNAP of an endpoint, by S - S(B|C) <= S(X:C) at the left end and
S(B|C) - Sbar = I(X:B|C) <= H - S(X:C) at the right one.

The solve is the sandwich algorithm (Rennen, van Dam & den Hertog 2011;
Bokrantz & Forsgren 2013).  It keeps its points as parallel arrays of
S(X:C), S(B|C) and channel, and a list of solved multipliers mu_k.  Each
multiplier gives the global lower-bound line y >= h_k - mu_k * x, where
h_k is the least S(B|C) + mu_k * S(X:C) over all collected points, from one
points x multipliers product (scalarization duality, trusting the inner
solve).  The lines mu = 1, h = S and mu = 0, h = Sbar are known without a
solve.  The shear takes a line with mu < 1 to the line of slope
-mu/(1 - mu) and intercept (h - mu * Sbar)/(1 - mu), and the mu = 1 line to
the wall R >= chi, which no segment of the ebit curve crosses.

A segment's gap is the largest excess of its chord over the upper envelope
of the lines.  The chord minus that envelope is concave, so the maximum is
at an end of the segment or at a breakpoint of the envelope inside it, and
is exact.  Each pass requests the chord slopes -nu of all segments, on
either envelope, whose gap exceeds REFINE_TARGET, largest gap first (mu = nu
on the qubit curve, mu = nu/(1 + nu) on the ebit curve).  Pass 0 is the one
segment from (0, S) to (H, Sbar), whose chord is the same line on both
curves.  Requests are numbered across the solve, request j draws its random
starts from the seed key (seed, 0, j), and the solve stops when every gap
is within the target or `resolution` requests are spent; only then does a
segment still above the target add a diagnostic note.

Two of each request's starts continue from the channels at the ends of its
segment, mixed 0.98/0.02 with the uniform channel so that every output stays
alive (continuation, as in deterministic annealing for the information
bottleneck, Rose 1998).  A request whose own starts lose to another point by
more than LINE_TOL is beaten: its line still runs through the better point,
it is re-solved once within the budget with that point's channel as an
extra start, and the diagnostics name it.

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
x' = x2 instead.

A start stops at its first map evaluation that moves it by less than
CONVERGENCE_TOL in sup norm, or at its first cycle whose x' has a free value
L not below the lowest L of its earlier x', with that evaluation's image;
either way it counts as converged.  With Z_i the normaliser of row i of the
update, the row max of its base-2 logits plus log2 of the row sum,

    L(x) = -mu * sum_i p_i log2 Z_i

is the least value of the alternating objective over channels with the
output law and posteriors of x held fixed, so J(F(x)) <= L(x) <= J(x) for
J = S(B|C) + mu * S(X:C).  L costs no entropy, and along plain updates it
never rises, so a fallback x' = x2 stops a start only where a whole cycle
left L unchanged.  A jump that does not lower L has stopped lowering the
objective: such a start is stuck, even if its channel still drifts in sup
norm along a nearly flat orbit, as on a near-symmetric ensemble.  max_iter
counts map evaluations, three per cycle, and only a start that meets
neither rule within it is capped.

The starts of one pass are iterated together as a few arrays, each row at
its own weight, with its own step length, fallback and lowest L, and each
frozen once it converges.  An array holds the starts of as many consecutive
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
from dataclasses import dataclass

import numpy as np

from .profiles import (ZERO_OUTPUT, ClassicalChannel, EntropicProfile,
                       entropic_profile, stack_entropies)
from .states import EIGENVALUE_CLAMP, Ensemble, EnsembleStats, ensemble_stats

DEFAULT_RESOLUTION = 40
DEFAULT_MULTISTARTS = 32
DEFAULT_MAX_ITER = 500
CONVERGENCE_TOL = 1e-10
DOMAIN_TOL = 1e-9
# Solved points within SNAP of an analytic endpoint in S(X:C) are dropped
# (module docstring).
SNAP = 1e-9
# Sandwich refinement: the per-segment gap target.
REFINE_TARGET = 2e-3
# A multiplier within LINE_TOL of a solved one is not requested again, and a
# request whose own starts miss its line's intercept by more is beaten.
LINE_TOL = 1e-9
# Fraction of starts allowed to hit the cap of max_iter map evaluations before
# a sweep is reported as diagnostically suspect.
NONCONVERGED_DIAGNOSTIC = 0.5
# Most channel entries (starts * m * k) in one lockstep solve of the starts
# of several multipliers (see the module docstring).
STACK_ELEMENTS = 1 << 16


def __getattr__(name: str):
    # ProcessPoolExecutor is never used here; bench/workloads.py count_pools
    # still reads and patches it.  Served on demand, so that no run imports
    # concurrent.futures and multiprocessing for it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Base-2 softmax over the last axis, computed in place in logits.
    Returns the log2 of each row's normaliser, log2 sum_j 2^logits_j."""
    top = logits.max(axis=-1, keepdims=True)
    logits -= top
    np.exp2(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    logits /= total
    return (top + np.log2(total))[..., 0]


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
    CONVERGENCE_TOL, or whose extrapolated point has a free value not below
    that of every earlier one (module docstring), with that evaluation's
    image.  max_iter counts map evaluations.  Returns the final channels and
    a per-start flag saying whether the start converged before the cap.
    """
    logits = (_qubit_logits if reduced_b.shape[-1] == 2
              else _dense_logits)(reduced_b)
    result = np.empty_like(channels)
    converged = np.zeros(len(channels), dtype=bool)
    active = np.arange(len(channels))
    weight = np.broadcast_to(np.asarray(ratio, dtype=float), (len(channels),))
    # The lowest free value L of each start's extrapolated points so far.
    lowest = np.full(len(channels), np.inf)
    # The current cycle's iterates: x0, then x1 = F(x0), then x2 = F(x1).
    cycle = [channels]
    for _ in range(max_iter):
        if active.size == 0:
            break
        jumped = len(cycle) == 3
        if jumped:
            point, cycle = _extrapolate(*cycle), []
        else:
            point = cycle[-1]
        joint = probs[:, None] * point
        q = joint.sum(axis=1)
        live = q > ZERO_OUTPUT
        log_q = np.log2(q, out=np.full_like(q, -np.inf), where=live)
        # In place, so that a full stack holds few (starts, m, k) arrays.
        image = logits(joint, q, live, log_q, weight)
        log_norm = _softmax_rows(image)
        change = np.abs(np.subtract(image, point, out=joint), out=joint)
        done = change.max(axis=(1, 2)) < CONVERGENCE_TOL
        if jumped:
            value = -np.multiply(log_norm, probs).sum(axis=1) / weight
            done |= value >= lowest
            lowest = value  # every row that goes on has lowered it
        if done.any():
            result[active[done]] = image[done]
            converged[active[done]] = True
            keep = ~done
            active, weight, image = active[keep], weight[keep], image[keep]
            lowest = lowest[keep]
            cycle = [x[keep] for x in cycle]
        cycle.append(image)
    result[active] = cycle[-1]
    return result, converged


def _start_points(m: int, k: int, count: int, seed_key) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    points = rng.normal(0.0, 2.0, size=(count, m, k))
    _softmax_rows(points)
    return points


def _check_starts(multistarts: int, seed: int) -> None:
    if multistarts < 1:
        raise ValueError("multistarts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _sweep(ensemble: Ensemble, mus, starts, max_iter: int) -> tuple:
    """Minimize S(B|C) + mu * S(X:C) from the starts of every mu, in stacks.

    starts[i] is the (count, m, k) array of the starts of mus[i].  The
    starts of consecutive mus share one stack of at most STACK_ELEMENTS
    channel entries, and always at least one mu.  Returns four arrays with
    one row per start, in the order of starts: S(X:C), S(B|C), the channel
    matrices and the converged flags.
    """
    stacks, lo = [], 0
    while lo < len(mus):
        hi, size = lo + 1, starts[lo].size
        while hi < len(mus) and size + starts[hi].size <= STACK_ELEMENTS:
            size += starts[hi].size
            hi += 1
        group = starts[lo:hi]
        ratios = np.repeat(1.0 / np.asarray(mus[lo:hi], dtype=float),
                           [len(s) for s in group])
        channels, converged = _fixed_point(ensemble.reduced_b, ensemble.probs,
                                           ratios, np.concatenate(group),
                                           max_iter)
        stacks.append((*stack_entropies(ensemble, channels), channels,
                       converged))
        lo = hi
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
    starts = _start_points(ensemble.m, ensemble.m + 1, multistarts,
                           [seed, 0, 0])
    SXC, SBgC, channels, _ = _sweep(ensemble, [weight], [starts], max_iter)
    channel = ClassicalChannel(channels[np.argmin(SBgC + weight * SXC)])
    return channel, entropic_profile(ensemble, channel)


def _lower_envelope(xs: np.ndarray, ys: np.ndarray,
                    below: float = 0.0) -> list:
    """Indices of the lower convex envelope of the points (xs, ys), by x.

    Points are deduplicated on x (keeping the smallest y, and the first of
    equal points) and swept with the monotone-chain rule; collinear interior
    points are dropped, and so is every interior vertex that lies within
    `below` under the chord of its neighbours.
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
            # cross / (X[i] - X[a]) is b's depth under the chord from a to i.
            cross = (X[b] - X[a]) * (Y[i] - Y[a]) - (Y[b] - Y[a]) * (X[i] - X[a])
            if cross > max(1e-12, below * (X[i] - X[a])):
                break
            hull.pop()
        hull.append(i)
    return hull


def _segment_gaps(xs: np.ndarray, ys: np.ndarray, slopes: np.ndarray,
                  intercepts: np.ndarray) -> np.ndarray:
    """The largest excess of each chord of the vertex chain (xs, ys), with
    xs increasing, over L(x) = max_k intercepts_k - slopes_k * x.

    The chord minus L is concave on a segment, so its maximum lies at an end
    of the segment or at a breakpoint of L inside it.  The lines that form L,
    in order of decreasing slope, are the lower hull of the dual points
    (-slope, -intercept), and consecutive ones meet at L's breakpoints.
    """
    def lower_bound(x):
        return (intercepts - np.multiply.outer(x, slopes)).max(axis=-1)

    lines = _lower_envelope(-slopes, -intercepts)
    a, b = slopes[lines], intercepts[lines]
    breaks = (b[:-1] - b[1:]) / (a[:-1] - a[1:])
    at_vertex = ys - lower_bound(xs)
    gaps = np.maximum(at_vertex[:-1], at_vertex[1:])
    # Segment i takes the breakpoints in (xs[i], xs[i + 1]].
    seg = np.searchsorted(xs, breaks) - 1
    inside = (seg >= 0) & (seg < len(xs) - 1)
    seg, breaks = seg[inside], breaks[inside]
    chord = ys[seg] + (breaks - xs[seg]) * ((ys[seg + 1] - ys[seg])
                                            / (xs[seg + 1] - xs[seg]))
    np.maximum.at(gaps, seg, chord - lower_bound(breaks))
    return gaps


def _sides(xs: np.ndarray, ys: np.ndarray, mus: np.ndarray,
           stats: EnsembleStats) -> tuple:
    """The QCT and then the RSP certificate of the points (xs, ys) and the
    lines of the multipliers mus, each as (abscissae, envelope indices,
    segment gaps, segment chord multipliers)."""
    h = (ys[:, None] + np.multiply.outer(xs, mus)).min(axis=0)
    # The shear takes the slope -mu line to a slope -mu/(1 - mu) one, and
    # the mu = 1 line to the wall R >= chi, which no segment crosses.
    shear = mus < 1.0
    mu, h_mu = mus[shear], h[shear]
    sides = []
    for x, slopes, intercepts, to_mu in (
            (xs, mus, h, lambda nu: nu),
            (np.clip(xs + (ys - stats.Sbar), stats.chi, stats.H),
             mu / (1.0 - mu), (h_mu - mu * stats.Sbar) / (1.0 - mu),
             lambda nu: nu / (1.0 + nu))):
        # A vertex within LINE_TOL of its neighbours' chord is a near-twin
        # of one of them, such as a continuation start that converged back
        # next to its segment end.
        hull = np.array(_lower_envelope(x, ys, LINE_TOL))
        vx, vy = x[hull], ys[hull]
        sides.append((x, hull, _segment_gaps(vx, vy, slopes, intercepts),
                      to_mu((vy[:-1] - vy[1:]) / np.diff(vx))))
    return tuple(sides)


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
    """Both curves of one sandwich solve of at most `resolution` multiplier
    requests, with the critical rate, the entropic summary and the solve's
    diagnostics.

    Each request runs its two continuation starts and max(multistarts - 2,
    0) random ones.  workers is accepted for old callers and has no effect.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_starts(multistarts, seed)
    stats = ensemble_stats(ensemble)
    m, k = ensemble.m, ensemble.m + 1

    # The points as parallel arrays of S(X:C), S(B|C) and channel, starting
    # from the exact analytic endpoints: the constant channel reveals
    # nothing, the identity channel everything.  Every solved point more
    # than SNAP from both in S(X:C) is kept.  mus holds the multiplier of
    # every line, starting from the analytic mu = 1 and mu = 0.
    xs, ys = np.array([[0.0, stats.H], [stats.S, stats.Sbar]])
    channels = np.stack([ClassicalChannel.constant(m).matrix,
                         ClassicalChannel.identity(m).matrix])
    mus = np.array([1.0, 0.0])
    requests = total = nonconverged = 0
    retries, beaten = [], {}
    while True:
        sides = _sides(xs, ys, mus, stats)
        # Re-solves of beaten multipliers first, then the chord multipliers
        # of the open segments of either envelope, largest gap first; each
        # request is a multiplier and the point indices of its warm starts.
        wanted = sorted((-gap, mu, hull[i:i + 2].tolist())
                        for _, hull, gaps, chord_mus in sides
                        for i, (gap, mu) in enumerate(zip(gaps.tolist(),
                                                          chord_mus.tolist()))
                        if gap > REFINE_TARGET)
        fresh, known = [], mus.tolist()
        for _, mu, ends in wanted:
            if min(abs(mu - other) for other in known) > LINE_TOL:
                fresh.append((mu, ends))
                known.append(mu)
        batch = (retries + fresh)[:resolution - requests]
        if not batch:
            break
        starts = [np.concatenate([
            0.98 * channels[ends] + 0.02 / k,
            _start_points(m, k, max(multistarts - 2, 0),
                          [seed, 0, requests + j])])
            for j, (_, ends) in enumerate(batch)]
        batch_mus = np.array([mu for mu, _ in batch])
        SXC, SBgC, solved, converged = _sweep(ensemble, batch_mus, starts,
                                              max_iter)
        requests += len(batch)
        total += converged.size
        nonconverged += np.count_nonzero(~converged)
        SBgC = np.maximum(SBgC, stats.Sbar)
        keep = (SXC > SNAP) & (SXC < stats.H - SNAP)
        xs = np.append(xs, SXC[keep])
        ys = np.append(ys, SBgC[keep])
        channels = np.concatenate([channels, solved[keep]])
        mus = np.append(mus, batch_mus[len(retries):])
        # A request whose own starts lose to another point keeps its line
        # through that point and is re-solved once with it as a start.
        owner = np.repeat(np.arange(len(batch)), [len(s) for s in starts])
        own = np.full(len(batch), np.inf)
        np.minimum.at(own, owner, SBgC + batch_mus[owner] * SXC)
        values = ys[:, None] + np.multiply.outer(xs, batch_mus)
        best = values.min(axis=0)
        retries = []
        for (mu, ends), loss, winner in zip(batch, (own - best).tolist(),
                                            values.argmin(axis=0).tolist()):
            if loss > LINE_TOL:
                if mu not in beaten:
                    retries.append((mu, ends + [winner]))
                beaten[mu] = loss

    qct, rsp = (
        TradeoffCurve(kind=kind,
                      samples=tuple(zip(x[hull].tolist(), ys[hull].tolist())),
                      domain=(lo, stats.H),
                      channels=tuple(map(ClassicalChannel, channels[hull])))
        for kind, lo, (x, hull, _, _) in zip(("QCT", "RSP"), (0.0, stats.chi),
                                             sides))
    critical = critical_rate(qct, stats.S)
    diagnostics = []
    if nonconverged > NONCONVERGED_DIAGNOSTIC * max(total, 1):
        diagnostics.append(f"{nonconverged}/{total} starts hit the cap of "
                           f"{max_iter} map evaluations")
    if beaten:
        diagnostics.append(
            f"{len(beaten)} multipliers lost to another point's channel, by "
            f"up to {max(beaten.values()):.2g}, and were re-solved once from "
            f"it where the budget allowed: mu = "
            + ", ".join(f"{mu:.6g}" for mu in beaten))
    gaps = np.concatenate([gaps for _, _, gaps, _ in sides])
    if (gaps > REFINE_TARGET).any():
        diagnostics.append(
            f"{np.count_nonzero(gaps > REFINE_TARGET)} of {gaps.size} curve "
            f"segments stay above the {REFINE_TARGET:g} gap target after "
            f"{requests} multipliers (largest gap {gaps.max():.2g})")
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

