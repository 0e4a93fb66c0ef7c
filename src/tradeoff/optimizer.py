"""Trade-off curve computation by scalarized minimization over classifier channels.

Both curves minimize the conditional entropy of the quantum register given
the channel output, under a mutual-information budget:

    qubit curve  (kind "XC"):   value(R) = min S(B|C)  s.t.  S(X:C)  <= R
    ebit  curve  (kind "XBC"):  value(R) = min S(B|C)  s.t.  S(X:BC) <= R

Each curve is convex and non-increasing in R, so every point is exposed by a
supporting slope.  As S(X:BC) = S(X:C) + S(B|C) - Sbar, one solve serves
both: minimizing S(B|C) + mu * S(X:C) over channels gives (S(X:C), S(B|C))
points whose lower convex envelope is the qubit curve, and the envelope of
the shear (R, Q) -> (R + Q - Sbar, Q) of its vertices is the ebit curve.
No mu above 1 is needed: data processing gives I(B:C) <= I(X:C), i.e.
S(X:C) + S(B|C) >= S, so the qubit curve is nowhere steeper than -1.

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
segment still above the target add a diagnostic note.  A random start is
the row softmax of N(0, 2^2) logits from Python's `random` stream seeded by
the key's text, so no run imports numpy.random and no hash seed moves the
starts.  Their uniforms are the random() sequence bit for bit, which Python
keeps for a given seed; their normals are those of random.gauss to the last
bits of numpy's log, cos and sin, which numpy does not promise to keep
across versions or CPUs.

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
alpha = -t; t is per row, from row norms).  t = 1 gives x2 in exact
arithmetic, but a row whose own t is 1 takes x0 + 2 r + v as computed,
which equals x2 only up to rounding.  x' is never clipped to the simplex:
the update is multiplicative, so an output set to zero would never come
back.  A row whose x' has any entry <= 0 steps back toward the plain step
instead, as Varadhan & Roland do: it halves t, t <- max(t/2, 1), until x'
is interior, which takes at most ceil(log2 t) halvings, and takes x2
itself once t reaches 1.

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
left L unchanged.  A jump that does not lower L shows that the jump
overshot, not that the start is stationary: at the CLI defaults, 200 plain
steps take the best start of uniform-qubit-24's beaten request from 1.25e-5
above the winning point to 1.8e-6 below it.  ROADMAP item 7 replaces the
rule with a stationarity test.  MAX_ITER caps the map evaluations of every
start, three per cycle, and only a start that meets neither rule within it
is capped.

The starts of one pass are one array.  Rows never interact, so it is cut
into consecutive stacks of at most STACK_ELEMENTS channel entries, and at
least one row, whatever weight each row belongs to.  The rows of a stack
are iterated together, each at its own weight, with its own step length and
halvings and lowest L, and each frozen once it converges.  The solve writes
each start's final channel over its row, so each stack is solved and scored
in place before the next, and a pass holds its one array and one stack's
buffers.  Small stacks cost numpy call overhead per iteration, so batching
them saves time, while past the cap the cost is array work and a larger
stack only adds memory.  A cycle holds as few stack-sized arrays as its
values allow: x1 is dead once the jump is formed, so its buffer takes r;
every row tries its full step on the whole stack, and only the rows that
leave the interior are gathered to halve it; and a jump point is dead once
mapped, so its buffer takes the change of that evaluation.

The distortion is read through generalized Bloch vectors (Bertlmann &
Krammer 2008): with the d^2 - 1 Gell-Mann matrices G_a of dimB = d
(`states._bloch_basis`), every state is rho = I/d + r.G/2 with
r_a = Tr[rho G_a], and -d(i, j) = Tr[log2 rho_j]/d + r_i.c_j/2 with
(c_j)_a = Tr[G_a log2 rho_j].  So the (d^2, m) matrix of the columns
p_i [r_i, 1] (`states._bloch_rows` gives the rows [r_i, 1]) times the
channel gives q_j r_j and q_j, a posterior log step turns them into w c_j/2
and w Tr[log2 rho_j]/d, and the rows [r_i, 1] times the columns
[w c_j/2, log2 q_j + w Tr[log2 rho_j]/d] give the logits.  Only the log step
depends on dimB.  For a qubit it is closed: with n = |r_j| and
f+- = log2((1 +- n)/2), log2 rho_j = alpha_j I + gamma_j r_j.sigma with
alpha_j = (f+ + f-)/2 and gamma_j = (f+ - f-)/(2n).  Any other dimB
eigendecomposes the posteriors rebuilt from the basis and projects log2 rho_j
back onto it.  Both floor eigenvalues at states.EIGENVALUE_CLAMP, the dust
rule of every entropy here, so a pure posterior scores the same in both.
One call of profiles.stack_entropies then scores each solved stack, from
the same rows [r_i, 1]: a qubit posterior's entropy is that of the
spectrum ((1 - n)/2, (1 + n)/2), the one the closed log step takes logs of,
and any other dimB's comes from eigenvalues.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .profiles import (ZERO_OUTPUT, ClassicalChannel, EntropicProfile,
                       entropic_profile, stack_entropies)
from .states import (EIGENVALUE_CLAMP, Ensemble, EnsembleStats, _bloch_basis,
                     _bloch_rows, _check_integers, _check_reals,
                     ensemble_stats)

DEFAULT_RESOLUTION = 40
DEFAULT_MULTISTARTS = 32
MAX_ITER = 500
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
# Fraction of starts allowed to hit the cap of MAX_ITER map evaluations before
# a sweep is reported as diagnostically suspect.
NONCONVERGED_DIAGNOSTIC = 0.5
# Most channel entries (starts * m * k) in one lockstep stack, unless it is
# of one start; a pass is solved and scored in place stack by stack, so this
# bounds its buffers (see the module docstring).
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


def _bloch_log(moments: np.ndarray, live: np.ndarray,
               weight: np.ndarray) -> np.ndarray:
    """The closed-form posterior log step of a qubit, which needs no basis:
    turns rows 0-2 of moments into w gamma_j r_j and returns w alpha_j."""
    q, vec = moments[:, -1], moments[:, :-1]
    # |q_j r_j| = q_j n_j; dead outputs keep n_j = 0.
    length = np.sqrt(np.einsum("scj,scj->sj", vec, vec))
    n = np.divide(length, q, out=np.zeros_like(q), where=live)
    # f+- = floored log2((1 +- n)/2); w alpha_j, w gamma_j n_j = w(f+ +- f-)/2
    f = np.multiply.outer((0.5, -0.5), n)
    f += 0.5
    plus, minus = np.log2(np.maximum(f, EIGENVALUE_CLAMP, out=f), out=f)
    half = 0.5 * weight[:, None]
    # w gamma_j r_j = (w gamma_j n_j / |q_j r_j|) q_j r_j.
    vec *= np.divide((plus - minus) * half, length, out=np.zeros_like(q),
                     where=length > 0.0)[:, None, :]
    return (plus + minus) * half


def _eigh_log(moments: np.ndarray, live: np.ndarray,
              weight: np.ndarray) -> np.ndarray:
    """The posterior log step of any dimB: turns the first d^2 - 1 rows of
    moments into w c_j/2 and returns w Tr[log2 rho_j]/d."""
    s, size, k = moments.shape
    d = math.isqrt(size)
    basis = _bloch_basis(d)
    # The rows [r_j, 1], and 0 at a dead output, whose floored log is finite.
    rows = moments / np.where(live, moments[:, -1], np.inf)[:, None]
    rho = (rows.swapaxes(1, 2) @ basis).reshape(s, k, d, d)
    lam, vec = np.linalg.eigh(rho)
    np.log2(np.maximum(lam, EIGENVALUE_CLAMP, out=lam), out=lam)
    log_rho = (vec * lam[..., None, :]) @ vec.conj().swapaxes(2, 3)
    columns = (log_rho.reshape(s, k, size) @ basis.conj().T).real
    columns *= weight[:, None, None]
    moments[:, :-1] = columns[..., :-1].swapaxes(1, 2)
    return columns[..., -1]


def _logits(reduced_b: np.ndarray, probs: np.ndarray):
    """The update's logits log2 q_j - w * d(i, j) at a stack of channels."""
    augmented = _bloch_rows(reduced_b)
    moment_weights = (probs[:, None] * augmented).T
    log_step = _bloch_log if reduced_b.shape[-1] == 2 else _eigh_log

    def logits(point, weight):
        # Rows q_j r_j and q_j; the last becomes log2 q_j + w Tr[log2 rho_j]/d.
        moments = moment_weights @ point
        q = moments[:, -1]
        live = q > ZERO_OUTPUT
        trace = log_step(moments, live, weight)
        np.log2(q, out=q, where=live)
        q[~live] = -np.inf
        q += trace
        return augmented @ moments

    return logits


def _extrapolate(x0: np.ndarray, x1: np.ndarray,
                 x2: np.ndarray) -> np.ndarray:
    """The SQUAREM point x0 + 2 t r + t^2 v of each row, with t halved toward
    1 while that point leaves the interior of the simplex (module
    docstring).  A row whose own t is 1 takes x0 + 2 r + v, which equals x2
    only up to rounding; a row that steps back takes x2 itself once t
    reaches 1.  x1 is dead after the jump, so its buffer takes r and its
    values are lost; x0 and x2 are only read."""
    v = np.subtract(x2, x1)
    r = np.subtract(x1, x0, out=x1)
    v -= r
    rr = np.einsum("sij,sij->s", r, r)
    vv = np.einsum("sij,sij->s", v, v)
    # t^2 = max(|r|^2 / |v|^2, 1); |v| = 0 takes t = 1 as well.  Halving t
    # quarters t^2 exactly, and sqrt(t^2 / 4) is exactly sqrt(t^2) / 2.
    t2 = np.maximum(np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0.0),
                    1.0)

    def trial(rows, t2):
        point = np.multiply(r[rows], (2.0 * np.sqrt(t2))[:, None, None])
        point += x0[rows]
        point += v[rows] * t2[:, None, None]
        return point, (point <= 0.0).any(axis=(1, 2))

    # Every row tries its full step on the whole stack, with no gather; only
    # the rows that leave the interior are gathered, to halve t until their
    # point is interior or t is 1.
    point, outside = trial(..., t2)
    rows = np.flatnonzero(outside)
    t2 = t2[rows]
    while rows.size:
        t2 = np.maximum(0.25 * t2, 1.0)
        last = t2 == 1.0
        point[rows[last]] = x2[rows[last]]
        rows, t2 = rows[~last], t2[~last]
        retry, outside = trial(rows, t2)
        point[rows[~outside]] = retry[~outside]
        rows, t2 = rows[outside], t2[outside]
    return point


def _fixed_point(reduced_b: np.ndarray, probs: np.ndarray, ratio,
                 channels: np.ndarray, max_iter: int) -> np.ndarray:
    """Run the extrapolated fixed-point update from a stack of channels.

    channels has shape (starts, m, k).  ratio is alpha/beta, the weight of
    the entropy distortion relative to the classical mutual information,
    either one scalar or one per start, of shape (starts,).  Every start
    takes the same cycles as if run alone at its ratio; a start leaves the
    active set at its first map evaluation whose sup-norm change is below
    CONVERGENCE_TOL, or whose extrapolated point has a free value not below
    that of every earlier one (module docstring), with that evaluation's
    image.  max_iter counts map evaluations.  Writes each start's last
    channel over its row; returns whether each start converged before the cap.
    """
    logits = _logits(reduced_b, probs)
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
        image = logits(point, weight)
        log_norm = _softmax_rows(image)
        # A jump point is dead once mapped, so its buffer takes the change.
        change = np.subtract(image, point, out=point if jumped else None)
        np.abs(change, out=change)
        done = change.max(axis=(1, 2)) < CONVERGENCE_TOL
        del change  # not held through the next jump
        if jumped:
            value = -np.multiply(log_norm, probs).sum(axis=1) / weight
            done |= value >= lowest
            lowest = value  # every row that goes on has lowered it
        if done.any():
            channels[active[done]] = image[done]
            converged[active[done]] = True
            keep = ~done
            active, weight, image = active[keep], weight[keep], image[keep]
            lowest = lowest[keep]
            cycle = [x[keep] for x in cycle]
        cycle.append(image)
    channels[active] = cycle[-1]
    return converged


def _stream(seed_key) -> random.Random:
    """Python's Mersenne Twister seeded by the text of the key's integers,
    which Python turns into a seed without hash(), so no hash seed moves it."""
    return random.Random(",".join(str(int(part)) for part in seed_key))


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next count values of rng.random(), bit for bit, from one draw of
    32-bit words: random() joins the top 27 bits of one word and the top 26
    of the next into ((a >> 5) * 2^26 + (b >> 6)) / 2^53."""
    words = np.frombuffer(rng.randbytes(8 * count), dtype="<u4")
    a, b = words.astype(np.uint64).reshape(count, 2).T
    return ((a >> 5 << 26) | (b >> 6)) * 2.0 ** -53


def _start_points(m: int, k: int, count: int, seed_key) -> np.ndarray:
    """count random channels of shape (m, k): the base-2 softmax of each row
    of N(0, 2^2) logits from the key's stream.  The logits are those of
    successive random.gauss(0, 2) calls, formed at once: each pair of
    uniforms (u, v) gives the Box-Muller pair
    2 sqrt(-2 ln(1 - v)) (cos 2 pi u, sin 2 pi u), and 1 - v in (0, 1]
    takes no log(0)."""
    size = count * m * k
    pairs = _uniforms(_stream(seed_key), size + size % 2).reshape(-1, 2)
    angle = pairs[:, 0] * (2.0 * math.pi)
    radius = 2.0 * np.sqrt(-2.0 * np.log(1.0 - pairs[:, 1]))
    points = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    points *= radius[:, None]
    points = points.reshape(-1)[:size].reshape(count, m, k)
    _softmax_rows(points)
    return points


def _sweep(ensemble: Ensemble, mus: np.ndarray, points: np.ndarray,
           max_iter: int) -> tuple:
    """Minimize S(B|C) + mu * S(X:C) from the starts of a pass, in place.

    points is the (rows, m, k) array of the pass's starts and mus holds one
    multiplier per row.  The rows are cut into consecutive stacks of at most
    STACK_ELEMENTS channel entries, or one start, whatever their mu; each
    stack is solved where it lies in points and scored by stack_entropies
    before the next is solved, so the pass holds no second array of its
    size.  Returns three arrays with one entry per row of points, which
    then holds the solved channels: S(X:C), S(B|C) and the converged flags.
    """
    SXC, SBgC = np.empty(len(points)), np.empty(len(points))
    converged = np.empty(len(points), dtype=bool)
    rows = max(STACK_ELEMENTS // points[0].size, 1)
    for lo in range(0, len(points), rows):
        stack = slice(lo, lo + rows)
        converged[stack] = _fixed_point(
            ensemble.reduced_b, ensemble.probs, 1.0 / mus[stack],
            points[stack], max_iter)
        SXC[stack], SBgC[stack] = stack_entropies(ensemble, points[stack])
    return SXC, SBgC, converged


def minimize_profile(ensemble: Ensemble, mu: float, kind: str = "XC", *,
                     multistarts: int = DEFAULT_MULTISTARTS, seed: int = 0,
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
    _check_reals(mu=mu)
    _check_integers(multistarts=(multistarts, 1), seed=(seed, 0))
    if mu == 0.0:
        channel = ClassicalChannel.identity(ensemble.m)
        return channel, entropic_profile(ensemble, channel)
    weight = float(mu) if kind == "XC" else mu / (1.0 + mu)
    starts = _start_points(ensemble.m, ensemble.m + 1, multistarts,
                           [seed, 0, 0])
    SXC, SBgC, _ = _sweep(ensemble, np.full(multistarts, weight), starts,
                          MAX_ITER)
    channel = ClassicalChannel(starts[np.argmin(SBgC + weight * SXC)])
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
    mu, h_mu = mus[mus < 1.0], h[mus < 1.0]
    # A vertex within LINE_TOL of its neighbours' chord is a near-twin, such
    # as a continuation start that converged back next to its segment end.
    # RSP vertices are chosen among QCT ones, so both drop the same twins.
    sheared = np.clip(xs + (ys - stats.Sbar), stats.chi, stats.H)
    qct = np.array(_lower_envelope(xs, ys, LINE_TOL))
    rsp = qct[_lower_envelope(sheared[qct], ys[qct], LINE_TOL)]
    sides = []
    for x, hull, slopes, intercepts, to_mu in (
            (xs, qct, mus, h, lambda nu: nu),
            (sheared, rsp, mu / (1 - mu), (h_mu - mu * stats.Sbar) / (1 - mu),
             lambda nu: nu / (1.0 + nu))):
        vx, vy = x[hull], ys[hull]
        sides.append((x, hull, _segment_gaps(vx, vy, slopes, intercepts),
                      to_mu((vy[:-1] - vy[1:]) / np.diff(vx))))
    return tuple(sides)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Piecewise-linear convex trade-off curve.

    samples are the convex-envelope support vertices as finite (R, value)
    pairs in increasing R; channels[i] is a channel achieving samples[i],
    one per sample, and rates and values are their read-only columns.  The
    domain runs from the first vertex's rate to the last's.  The curve
    extends flat at its last value for R beyond the last vertex.  Left of
    the domain, rates are unachievable: None.
    """

    kind: str
    samples: tuple
    channels: tuple

    def __post_init__(self):
        xs = np.array([s[0] for s in self.samples], dtype=float)
        ys = np.array([s[1] for s in self.samples], dtype=float)
        if xs.size == 0:
            raise ValueError("curve needs at least one sample")
        if len(self.channels) != xs.size:
            raise ValueError("curve needs one channel per sample")
        if not np.isfinite((xs, ys)).all():
            raise ValueError("curve samples must be finite")
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
        object.__setattr__(self, "rates", xs)
        object.__setattr__(self, "values", ys)
        object.__setattr__(self, "domain", (float(xs[0]), float(xs[-1])))

    def value(self, R: float) -> float | None:
        """Curve value at rate R, or None where the rate is unachievable,
        left of the domain.  R must be a finite real number of any sign."""
        _check_reals(R=R, least=-math.inf)
        if R < self.domain[0] - DOMAIN_TOL:
            return None
        return float(np.interp(R, self.rates, self.values))


@dataclass(frozen=True)
class CriticalRate:
    """Largest rate at which the qubit curve still has unit trade-off slope."""

    Hc: float


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
                   workers: int = 1) -> CurveSet:
    """Both curves of one sandwich solve of at most `resolution` multiplier
    requests, with the critical rate, the entropic summary and the solve's
    diagnostics.

    Each request runs multistarts starts, at least 2: its two continuation
    starts and multistarts - 2 random ones, each for at most MAX_ITER map
    evaluations.  workers is accepted for old callers and has no effect.
    """
    _check_integers(resolution=(resolution, 2), multistarts=(multistarts, 2),
                    seed=(seed, 0))
    stats = ensemble_stats(ensemble)
    m, k = ensemble.m, ensemble.m + 1
    draws = multistarts - 2  # random starts per request

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
        # One array of the pass's starts, request by request, which _sweep
        # solves in place: rebinding it frees the last pass's array before
        # this one is solved.
        starts = np.concatenate([
            start for j, (_, ends) in enumerate(batch)
            for start in (0.98 * channels[ends] + 0.02 / k,
                          _start_points(m, k, draws, [seed, 0, requests + j]))
        ])
        batch_mus = np.array([mu for mu, _ in batch])
        owner = np.repeat(np.arange(len(batch)),
                          [len(ends) + draws for _, ends in batch])
        SXC, SBgC, converged = _sweep(ensemble, batch_mus[owner], starts,
                                      MAX_ITER)
        requests += len(batch)
        total += converged.size
        nonconverged += np.count_nonzero(~converged)
        SBgC = np.maximum(SBgC, stats.Sbar)
        keep = (SXC > SNAP) & (SXC < stats.H - SNAP)
        xs = np.append(xs, SXC[keep])
        ys = np.append(ys, SBgC[keep])
        channels = np.concatenate([channels, starts[keep]])
        mus = np.append(mus, batch_mus[len(retries):])
        # A request whose own starts lose to another point keeps its line
        # through that point and is re-solved once with it as a start.
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
                      channels=tuple(map(ClassicalChannel, channels[hull])))
        for kind, (x, hull, _, _) in zip(("QCT", "RSP"), sides))
    critical = critical_rate(qct)
    diagnostics = []
    if nonconverged > NONCONVERGED_DIAGNOSTIC * max(total, 1):
        diagnostics.append(f"{nonconverged}/{total} starts hit the cap of "
                           f"{MAX_ITER} map evaluations")
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
    return CurveSet(stats=stats, qct=qct, rsp=rsp, critical=critical,
                    diagnostics=tuple(diagnostics))


def qct_curve(ensemble: Ensemble, *args, **kwargs) -> TradeoffCurve:
    """Optimal qubit rate versus classical rate, Q*(R), for R in [0, H]: the
    qct curve of compute_curves, which takes the same arguments."""
    return compute_curves(ensemble, *args, **kwargs).qct


def rsp_curve(ensemble: Ensemble, *args, **kwargs) -> TradeoffCurve:
    """Optimal ebit rate versus classical rate, E*(R), for R in [chi, H]: the
    rsp curve of compute_curves, which takes the same arguments."""
    return compute_curves(ensemble, *args, **kwargs).rsp


def critical_rate(curve: TradeoffCurve) -> CriticalRate:
    """Largest rate R at which Q*(R) is on the line R + Q = S, read off the
    qubit curve.

    The curve starts at (0, S).  Hc is the rate of the last vertex within
    REFINE_TARGET of the line, the gap the solve works to, so Hc is 0
    wherever Q* leaves the line at R = 0.  It is a lower bound: the curve
    lies on or above Q* and the line on or below it, so Q* is within
    REFINE_TARGET of the line at that vertex and, by convexity, on all of
    [0, Hc].
    """
    if curve.kind != "QCT":
        raise ValueError("the critical rate is defined on the QCT curve")
    S = curve.samples[0][1]
    return CriticalRate(Hc=max(r for r, q in curve.samples
                               if abs(r + q - S) <= REFINE_TARGET))
