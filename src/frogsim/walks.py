"""Continuous-time random walk sampling and exact killed-walk series.

Walks jump at rate 1: holding times are Exp(1) and the number of jumps by
time t is Poisson(t). Exact quantities (exit probabilities, heat kernels,
Green functions) are computed by uniformization: Poisson(t)-weighted powers
of the discrete jump chain, truncated with a certified tail bound. Every
series runs on the cached ``g.transition_matrix()`` arrays cut down to a
vertex set dom, one ``np.bincount`` per kernel product: dom is the window S
for exit probabilities and, for the others, the ball of radius K around the
start, where K is the number of retained terms, so they are exact for the
truncated graph: a walk cannot leave that ball in K jumps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from math import log1p

import numpy as np

from .graphs import Graph, GraphError, ball
from .rng import _INV_2_53, Stream, derive_keys, uniforms_at
from .stats import Estimate, check_replicas, from_binomial, from_samples

DEFAULT_TOL = 1e-10
# longest horizon of the exact series: exp(-t) stays a normal double
SERIES_T_MAX = 700.0


class SeriesToleranceError(RuntimeError):
    """Requested tolerance not reachable within the configured term budget."""


class LeakageBudgetError(RuntimeError):
    """Truncation-frontier mass exceeded the caller's leakage budget: the
    horizon is too long for the graph's truncation radius."""


def check_horizon(t: float) -> float:
    """t, if it is a lifespan: finite and >= 0; else ValueError. The one
    horizon check of every horizon-taking function (the exact series also
    cap t at SERIES_T_MAX, in ``_series_terms``)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


def max_terms_for(t: float) -> int:
    return int(20.0 * t) + 200


@dataclass(frozen=True)
class Trajectory:
    """One particle's path: positions after each jump, within lifespan t."""

    start: int
    jumps: tuple[int, ...]
    lifespan: float
    absorbed: bool = False  # entered a frontier sink and stopped early

    @property
    def jump_count(self) -> int:
        return len(self.jumps)

    @property
    def visited(self) -> frozenset:
        return frozenset((self.start, *self.jumps))


@dataclass
class KilledWalkTable:
    """P_x(tau_{S^c} <= t) for every x in S, with certified truncation."""

    domain: tuple[int, ...]
    horizon: float
    exit_prob: dict[int, float]
    truncation_error: float


def sample_jump_count(t: float, rng: Stream) -> int:
    """Number of jumps by time t: a Poisson(t) draw."""
    return rng.poisson(check_horizon(t))


def jump_picker(g: Graph):
    """pick(x, u): the jump-chain successor of x for a uniform u in [0, 1).

    u picks neighbour floor(u * deg) on unweighted graphs and, on weighted
    ones, the first whose running weight exceeds u times the row total
    (u < 1, so the bisection stays in the row), both read off the flat CSR
    lists of ``g.walk_tables()``. The one step rule of every sampled walk.
    """
    ptr, ids, cums, _ = g.walk_tables()
    if cums is None:
        def pick(x: int, u: float) -> int:
            lo = ptr[x]
            return ids[lo + int(u * (ptr[x + 1] - lo))]
    else:
        def pick(x: int, u: float) -> int:
            lo, hi = ptr[x], ptr[x + 1]
            return ids[bisect_right(cums, u * cums[hi - 1], lo, hi)]
    return pick


# Single walks with a shorter horizon draw one u64() at a time. A numpy
# block costs about 15 us whatever its size and then saves about 1 us per
# jump, and the two loops timed equal per walk near t = 8 (Z^2 box, 2-vCPU
# x86-64 host, Python 3.11, numpy 2.4). The particle walks of
# sweep_tree12 run at t = 1. Many independent walks run in lockstep_walks
# instead: the replica walks of range_statistics, good_set_G_A and the
# exit-conditional jump counts (frogs._exit_conditional_stats), and the
# particle walks of every wave of the reveal step (frogs._reveal, under
# both the arrow waves and the stay-inside closure waves) whose caller
# expects at least frogs._STAY_BATCH_WALKS walks (frogs._walk_landings).
# So of renorm_z2's t = 64 walks only those of the decay's small last
# waves reach this loop (both of block_open's waves are passes), and of
# phi_window_z2's t = 1 walks only those of the closures' small last
# waves.
#
# The same horizon sets the block length of lockstep_walks. Below it a
# block is one jump, decided with the numpy calls of one lockstep step:
# about 23 us plus 18 ns a walk (same host in a fast spell; its speed
# swings about 2x), holding times included. At t = 1 most walks make 0-2
# jumps, so a longer block would mostly decide jumps of ended walks. From
# it on a block decides many jumps (``_block_jumps``), and only the pick
# recurrence (6 numpy calls) and the running sum (1) run jump by jump. A renorm_z2 pass at
# t = 64 then runs in 1-8 blocks and about 100 pick steps: medians of
# 0.8 ms at 52 walks, 1.1 ms at 110, 2.0-2.3 ms at 286-352, 2.8-3.0 ms at
# 488-554 and 4.1-4.2 ms at 934-992, where one full step per jump took
# 3.0, 3.4, 4.2-4.7, 5.0-5.4 and 6.0-6.2 ms.
_BLOCK_HORIZON = 8.0
# most draws one block holds; longer walks refill
_BLOCK_MAX = 2048


def walk_positions(g: Graph, x: int, t: float, rng: Stream):
    """Positions after each jump up to time t; stops at the frontier.

    Returns (jumps list, absorbed flag). Jump times are partial sums of
    Exp(1) draws read in stream order, alternating with the uniforms that
    pick each jump, so a shorter horizon reads a prefix of the same stream:
    the lifespan coupling is exact per key. Exponentials are
    ``-log1p(-u)`` on Python floats, as in ``Stream.exponential``, and
    the CSR lists and frontier flags come from ``g.walk_tables()``, built
    on the graph's first walk and cached on it.

    Below the horizon ``_BLOCK_HORIZON`` the draws come one at a time from
    ``rng.u64``. From it on, they come from ``rng.peek_uniforms`` in one
    block of about 2(t + 4 sqrt(t)) + 16 draws (at most ``_BLOCK_MAX``,
    refilled if the walk runs past it), and ``rng.skip`` then consumes
    exactly the draws the walk used. Both loops give the same jumps and
    leave the stream in the same state.
    """
    boundary = g.walk_tables()[3]
    if boundary[x]:
        return [], True
    pick = jump_picker(g)
    if t < _BLOCK_HORIZON:
        return _walk_drawwise(pick, boundary, x, t, rng)
    # min() with the cap first also maps an infinite or nan t to the cap
    n = int(min(_BLOCK_MAX, 2.0 * (t + 4.0 * math.sqrt(t)) + 16.0))
    return _walk_blocked(pick, boundary, x, t, rng, n)


def _walk_drawwise(pick, boundary, x: int, t: float, rng: Stream):
    """walk_positions from interior x, one ``rng.u64`` call per draw."""
    u64 = rng.u64
    jumps: list[int] = []
    cur = x
    elapsed = -log1p(-((u64() >> 11) * _INV_2_53))
    while elapsed <= t:
        cur = pick(cur, (u64() >> 11) * _INV_2_53)
        jumps.append(cur)
        if boundary[cur]:
            return jumps, True
        elapsed -= log1p(-((u64() >> 11) * _INV_2_53))
    return jumps, False


def _walk_blocked(pick, boundary, x: int, t: float, rng: Stream, n: int):
    """walk_positions from interior x on uniforms read n >= 2 at a time;
    the stream ends where ``_walk_drawwise`` leaves it."""
    jumps: list[int] = []
    block = rng.peek_uniforms(n)
    cur = x
    elapsed = -log1p(-block[0])
    i = 1  # draws of `block` used
    while elapsed <= t:
        if i + 1 >= n:  # a jump takes two draws
            rng.skip(i)
            block = rng.peek_uniforms(n)
            i = 0
        cur = pick(cur, block[i])
        jumps.append(cur)
        if boundary[cur]:
            rng.skip(i + 1)
            return jumps, True
        elapsed -= log1p(-block[i + 1])
        i += 2
    rng.skip(i)
    return jumps, False


def walk_batch(g: Graph, x, t: float, keys: np.ndarray):
    """One walk up to time t per stream key, sampled in lockstep.

    x is one start vertex for every walk or an array of one per key, each
    checked by ``g.check_vertices``. Returns (positions, counts, absorbed):
    positions[i, :counts[i]] are the jumps of walk i, padded with -1 to the
    longest walk, and absorbed[i] says whether it stopped at the frontier.
    Walk i equals ``walk_positions(g, x[i], t, s)`` for a fresh ``Stream``
    s with key ``keys[i]``; the jumps come from ``lockstep_walks``.
    """
    check_horizon(t)
    keys = np.asarray(keys, dtype=np.uint64)
    starts = np.broadcast_to(g.check_vertices(x), keys.shape)
    blocks = list(lockstep_walks(g, starts, t, keys))
    positions = np.full((keys.size, sum(len(pos) for _, pos in blocks)), -1,
                        dtype=np.int64)
    j = 0
    for rows, pos in blocks:
        positions[rows, j:j + len(pos)] = pos.T
        j += len(pos)
    counts = (positions >= 0).sum(axis=1)
    positions = positions[:, :counts.max(initial=0)]
    boundary = g.boundary_mask
    absorbed = boundary[starts] | (boundary[positions]
                                   & (positions >= 0)).any(axis=1)
    return positions, counts, absorbed


# Most draws one block of lockstep_walks reads (2 per jump of each walk),
# so a block's arrays stay a few hundred kB. On renorm_z2's passes (t =
# 64, 52-992 walks; same host) 2^13 draws took about 1 % longer and 2^15
# about 14 % longer than 2^14, whose blocks stay in the processor cache.
_BLOCK_DRAWS = 2 ** 14


def _block_jumps(t: float, elapsed: np.ndarray) -> int:
    """The jumps one block of lockstep_walks decides for the live walks
    with elapsed times `elapsed` at horizon t: 1 below ``_BLOCK_HORIZON``,
    else as many as ``_BLOCK_DRAWS`` draws hold, up to r + 4 sqrt(r) + 8
    for the time r the slowest walk has left: it rarely makes more jumps
    than that."""
    if t < _BLOCK_HORIZON:
        return 1
    r = max(t - float(elapsed.min()), 0.0)
    # min() with the cap first also maps an infinite t to the cap
    return max(1, int(min(_BLOCK_DRAWS // (2 * elapsed.size),
                          r + 4.0 * math.sqrt(r) + 8.0)))


def lockstep_walks(g: Graph, starts: np.ndarray, t: float, keys: np.ndarray):
    """Yield (rows, pos) blocks of the jumps of the walks from starts[i] up
    to time t on the streams keys[i]. rows holds the indices of the walks
    that made the block's first jump, and pos[j, i] is where walk rows[i]
    landed on the block's jump j, or -1 once that walk has ended. A walk
    ends at time t or on its first frontier vertex; one that starts on the
    frontier never jumps.

    Jump j of a walk reads draw 2j of its stream and the holding time
    after it draw 2j + 1, so all streams draw the same counters at once
    and each walk equals ``walk_positions`` on its stream. A block of m
    jumps (``_block_jumps``: 1 below ``_BLOCK_HORIZON``) reads its 2m
    draws of every live walk in one ``rng.uniforms_at`` pass. Only the
    pick recurrence and the running sum of the holding times then run jump
    by jump, for every walk of the block: an ended walk walks on (``take``
    clips a pick off a frontier row with no edges), and its positions are
    masked afterwards. The unweighted pick is ``floor(u * deg)`` and the
    weighted one a vectorized ``bisect_right`` on the cached row cumulative
    weights.

    Holding times are ``-np.log1p(-u)``, summed in stream order as
    ``walk_positions`` sums them, so each running sum rounds the same. A
    walk whose sum lies within a relative ``_EXACT_MARGIN`` per draw of t
    has ``elapsed <= t`` decided by the exact sum of ``walk_positions``
    (``_within``, row by row), so the two never disagree.
    """
    boundary = g.boundary_mask
    deg, cw = g.walk_arrays()
    indptr, indices = g.indptr, g.indices
    if cw is not None:
        rounds = g.max_interior_degree().bit_length()
    live = np.flatnonzero(~boundary[starts])   # walks still running
    cur, key = starts[live], keys[live]
    elapsed = -np.log1p(-uniforms_at(key, 1))
    k = 1                                      # draws each live walk has read
    keep = _within(elapsed[None], t, key, k)[0]
    while True:
        live, cur, key, elapsed = live[keep], cur[keep], key[keep], elapsed[keep]
        if live.size == 0:
            return
        m = _block_jumps(t, elapsed)
        draws = uniforms_at(key, k + 1, count=2 * m)
        pos = np.empty((m, live.size), dtype=indices.dtype)
        for u, cur_next in zip(draws[::2], pos):
            if cw is None:
                indices.take(indptr[cur] + (u * deg[cur]).astype(np.int64),
                             out=cur_next, mode="clip")
            else:
                lo, hi = indptr[cur], indptr[cur + 1]
                thr = u * cw[hi - 1]
                for _ in range(rounds):        # bisect_right within each row
                    mid = (lo + hi) >> 1
                    left = thr < cw[np.minimum(mid, cw.size - 1)]
                    searching = lo < hi
                    hi = np.where(searching & left, mid, hi)
                    lo = np.where(searching & ~left, mid + 1, lo)
                indices.take(lo, out=cur_next, mode="clip")
            cur = cur_next
        # held[j]: the elapsed time after the block's jump j and its hold,
        # summed row by row: np.subtract.accumulate along the rows runs a
        # strided loop per walk, 2.5-20 times slower at 1 000-4 000 walks
        held = draws[1::2]
        np.negative(held, out=held)
        np.log1p(held, out=held)
        np.subtract(elapsed, held[0], out=held[0])  # x - y is x + (-y) exactly
        for j in range(1, m):
            np.subtract(held[j - 1], held[j], out=held[j])
        go = _within(held, t, key, k + 2)      # go[j]: jump j + 1 is made
        # elapsed only grows, so go stays False once a walk's time is up;
        # a walk that hit the frontier walks on, so its hits are carried
        hit = boundary[pos]
        if m > 1 and hit.any():
            np.logical_or.accumulate(hit, out=hit)
        go &= ~hit
        if m > 1:
            pos[1:][~go[:-1]] = -1
        yield live, pos
        keep, cur, elapsed = go[-1], pos[-1], held[-1]
        k += 2 * m


# np.log1p and math.log1p (the exponential of walk_positions) may differ
# in the last place, so the numpy sum S of a walk's k draws' holding
# times can fall on the other side of t from walk_positions' sum X. With
# u = 2^-53, the m = (k + 1) / 2 terms differ by at most d ulps each
# (numpy's accuracy tests allow 1 ulp and 1 ulp was measured on 7.4 % of
# draws; d = 4 is assumed), and each sum is within (m - 1)u of its exact
# value in relative terms, so |S - X| <= (k - 1 + 2d) u X. When t lies
# between S and X, X is t to within that, so |S - t| < 2^-52 (k + 7) t:
# twice the bound. Walks that close to t are decided by their exact sum.
# A walk at horizon t reads about 2(t + 4 sqrt t) draws, so at t = 64 the
# margin is about 200 * 2^-52 * 64 = 2.8e-12, and a walk lands in it with
# probability below 1e-12 per jump.
_EXACT_MARGIN = 2.0 ** -52


def _within(elapsed: np.ndarray, t: float, keys: np.ndarray,
            k: int) -> np.ndarray:
    """elapsed <= t, decided as ``walk_positions`` decides it, for the
    running sums elapsed[j, i] of the walks on keys[i] after k + 2j draws.
    Strict ``<`` keeps t = inf off the exact path."""
    gap = elapsed - t
    keep = gap <= 0.0
    np.abs(gap, out=gap)
    # the margin grows with the draws read: the last row's bounds them all
    if gap.size and gap.min() < _EXACT_MARGIN * (k + 2 * len(gap) + 5) * t:
        for j, row in enumerate(gap):
            near = np.flatnonzero(row < _EXACT_MARGIN * (k + 2 * j + 7) * t)
            if near.size:
                keep[j, near] = _exact_elapsed(keys[near], k + 2 * j) <= t
    return keep


def _exact_elapsed(keys: np.ndarray, k: int) -> np.ndarray:
    """walk_positions' elapsed time after draw k (odd) of each stream: the
    ``-log1p(-u)`` of draws 1, 3, ..., k on Python floats, added in stream
    order."""
    sums = []
    for us in uniforms_at(keys, 1, count=k)[::2].T.tolist():
        elapsed = -log1p(-us[0])
        for u in us[1:]:
            elapsed -= log1p(-u)
        sums.append(elapsed)
    return np.array(sums)


def sample_trajectory(g: Graph, x: int, t: float, rng: Stream) -> Trajectory:
    g.check_vertex(x)
    jumps, absorbed = walk_positions(g, x, check_horizon(t), rng)
    return Trajectory(x, tuple(jumps), t, absorbed)


def discrete_walk(g: Graph, x: int, steps: int, rng: Stream,
                  stop=frozenset()) -> list[int]:
    """Jump-chain positions X(0..k), truncated at the first frontier hit
    or the first jump onto a vertex of `stop` (k = steps otherwise)."""
    g.check_vertex(x)
    boundary = g.walk_tables()[3]
    pick = jump_picker(g)
    path = [x]
    cur = x
    for _ in range(steps):
        if boundary[cur]:
            break
        cur = pick(cur, rng.uniform())
        path.append(cur)
        if cur in stop:
            break
    return path


# ---------------------------------------------------------------------------
# exact series (uniformization)
# ---------------------------------------------------------------------------


def _series_terms(t: float, max_terms: int | None) -> int:
    """The term budget of a series at horizon t (``max_terms_for(t)`` by
    default). Every series passes here: t must pass ``check_horizon``, and
    beyond SERIES_T_MAX raises SeriesToleranceError."""
    if check_horizon(t) > SERIES_T_MAX:
        raise SeriesToleranceError(
            f"uniformization underflows for t > {SERIES_T_MAX:g}")
    return max_terms_for(t) if max_terms is None else max_terms


def _poisson_weights(t: float, tol: float, max_terms: int | None):
    """Poisson(t) pmf sequence long enough that the remaining tail < tol."""
    max_terms = _series_terms(t, max_terms)
    pmf = [math.exp(-t)]
    cum = pmf[0]
    k = 0
    while 1.0 - cum >= tol:
        k += 1
        if k > max_terms:
            raise SeriesToleranceError(
                f"poisson tail still {1.0 - cum:.3e} after {max_terms} terms")
        pmf.append(pmf[-1] * t / k)
        cum += pmf[-1]
    return np.array(pmf), 1.0 - cum


def _gamma_tail_weights(t: float, tol: float, max_terms: int | None):
    """g_k = P(Poisson(t) >= k+1), until sum_{k>K} g_k < tol."""
    # the pmf here rounds as pmf * (t / k), not as in _poisson_weights, so
    # the Green function cannot reuse those weights without changing values
    max_terms = _series_terms(t, max_terms)
    pmf = math.exp(-t)
    cdf = pmf
    gk = [1.0 - cdf]
    consumed = gk[0]
    k = 0
    while t - consumed >= tol:
        k += 1
        if k > max_terms:
            raise SeriesToleranceError(
                f"gamma-tail remainder still {t - consumed:.3e} after "
                f"{max_terms} terms")
        pmf *= t / k
        cdf += pmf
        gk.append(1.0 - cdf)
        consumed += gk[-1]
    return np.array(gk)


def _kernel_slice(g: Graph, dom: np.ndarray):
    """The killed jump kernel on the sorted vertex ids `dom`: the entries of
    ``g.transition_matrix()`` with both ends in dom (so frontier rows absorb)
    as (rows, cols, vals) in local ids, row by row and by column within each
    row, so every product sums each row in vertex order. Only dom's rows are
    read: the cost is O(|dom| + their entries), not O(n)."""
    rows, cols, vals = g.transition_matrix()
    lo = np.searchsorted(rows, dom)
    counts = np.searchsorted(rows, dom, side="right") - lo
    # the entry ids of dom's rows, in order
    e = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                            counts)
    col = np.searchsorted(dom, cols[e])
    keep = dom[np.minimum(col, dom.size - 1)] == cols[e]
    e, c = e[keep], col[keep]
    r = np.searchsorted(dom, rows[e])
    order = np.lexsort((c, r))
    return r[order], c[order], vals[e[order]]


def _local_kernel(g: Graph, center: int, k_terms: int, kill: set[int]):
    """Killed jump kernel on ball(center, k_terms) minus `kill`. Returns
    (sorted ids array, kernel, local index of center)."""
    dom = np.array(sorted(ball(g, center, k_terms) - set(kill)))
    return dom, _kernel_slice(g, dom), int(np.searchsorted(dom, center))


def _weighted_powers(weights: np.ndarray, kernel, v: np.ndarray) -> np.ndarray:
    """sum_k weights[k] M^k v, accumulated in order k = 0, 1, ..., for M =
    (rows, cols, vals); bincount sums each row of M v in entry order."""
    rows, cols, vals = kernel
    acc = weights[0] * v
    for w in weights[1:]:
        v = np.bincount(rows, vals * v[cols], v.size)
        acc += w * v
    return acc


def _row_series(g: Graph, x: int, weights: np.ndarray):
    """(dom, sum_k weights[k] Q^k(x, .)) for the kernel Q on
    ball(x, len(weights)), as distributions over the sorted ids dom."""
    dom, (rows, cols, vals), ix = _local_kernel(g, x, weights.size, kill=set())
    u = np.zeros(len(dom))
    u[ix] = 1.0
    return dom, _weighted_powers(weights, (cols, rows, vals), u)  # Q^T


def exit_probability_exact(g: Graph, S, t: float, tol: float = DEFAULT_TOL,
                           max_terms: int | None = None) -> KilledWalkTable:
    """Exact P_x(tau_{S^c} <= t) for all x in S, for t in [0, SERIES_T_MAX].

    The jump chain restricted to S is sub-stochastic (exit mass is killed,
    rows are not renormalized); survival in S is the Poisson-weighted sum of
    its powers applied to the all-ones vector. S must avoid the truncation
    frontier.
    """
    S = sorted(g.interior_set(S))
    if not S:
        raise GraphError("S must be non-empty")
    pmf, tail = _poisson_weights(t, tol, max_terms)
    surv = _weighted_powers(pmf, _kernel_slice(g, np.array(S)),
                            np.ones(len(S)))
    exit_prob = np.clip(1.0 - surv, 0.0, 1.0)
    return KilledWalkTable(tuple(S), t, {v: float(p) for v, p in zip(S, exit_prob)},
                           tail)


def hitting_probability_exact(g: Graph, x: int, y: int, t: float,
                              tol: float = DEFAULT_TOL,
                              max_terms: int | None = None,
                              max_leakage: float | None = None) -> float:
    """Exact P_x(tau_y <= t) via the killed-at-y series, for t in [0,
    SERIES_T_MAX].

    Exact for the truncated graph; relative to the untruncated one the value
    undercounts by at most the frontier mass, which `max_leakage` can cap
    (raises LeakageBudgetError beyond it).
    """
    g.check_vertex(x, y)
    pmf, tail = _poisson_weights(t, tol, max_terms)
    if x == y:
        return 1.0
    if t == 0:
        return 0.0
    dom, Q, ix = _local_kernel(g, x, pmf.size, kill={y})
    surv = _weighted_powers(pmf, Q, np.ones(len(dom)))[ix]
    if max_leakage is not None:
        _budgeted_row(g, x, t, tol, max_terms, max_leakage)
    return float(min(max(1.0 - surv, 0.0), 1.0 + tail))


@dataclass
class HeatKernelRow:
    """Distribution p_t(x, .) on the local ball, plus leakage diagnostics."""

    source: int
    horizon: float
    support: np.ndarray
    mass: np.ndarray
    boundary_leakage: float
    truncation_error: float

    def prob(self, y: int) -> float:
        hits = np.flatnonzero(self.support == y)
        return float(self.mass[hits[0]]) if hits.size else 0.0

    def row_sum(self) -> float:
        return float(self.mass.sum())


def heat_kernel_row(g: Graph, x: int, t: float, tol: float = DEFAULT_TOL,
                    max_terms: int | None = None) -> HeatKernelRow:
    """p_t(x, .) on the ball the series reaches, for t in [0, SERIES_T_MAX]."""
    pmf, tail = _poisson_weights(t, tol, max_terms)
    dom, acc = _row_series(g, x, pmf)
    leak = float(acc[g.boundary_mask[dom]].sum())
    return HeatKernelRow(x, t, dom, acc, leak, tail)


def _budgeted_row(g: Graph, x: int, t: float, tol: float,
                  max_terms: int | None,
                  max_leakage: float | None) -> HeatKernelRow:
    """heat_kernel_row(g, x, t); raises LeakageBudgetError when its frontier
    mass exceeds `max_leakage` (None: no budget)."""
    row = heat_kernel_row(g, x, t, tol, max_terms)
    if max_leakage is not None and row.boundary_leakage > max_leakage:
        raise LeakageBudgetError(
            f"frontier mass {row.boundary_leakage:.3e} exceeds the budget "
            f"{max_leakage:.3e}")
    return row


def heat_kernel_exact(g: Graph, x: int, y: int, t: float,
                      tol: float = DEFAULT_TOL,
                      max_terms: int | None = None,
                      max_leakage: float | None = None) -> float:
    """p_t(x, y) on the truncated graph, error below tol, for t in [0,
    SERIES_T_MAX].

    Raises LeakageBudgetError when the frontier absorbs more mass than
    `max_leakage` allows, instead of silently returning a value distorted
    relative to the untruncated graph.
    """
    g.check_vertex(x, y)
    if t == 0:
        return 1.0 if x == y else 0.0
    return _budgeted_row(g, x, t, tol, max_terms, max_leakage).prob(y)


def truncated_green(g: Graph, x: int, y: int, t: float,
                    tol: float = DEFAULT_TOL,
                    max_terms: int | None = None,
                    max_leakage: float | None = None) -> float:
    """G_t(x,y) = integral of p_s(x,y) over s in [0,t], for t in [0,
    SERIES_T_MAX].

    Each Poisson weight integrates in closed form to a Gamma tail:
    int_0^t e^{-s} s^k / k! ds = P(Poisson(t) >= k+1), and those tails sum
    to t, giving an exact remainder bound. `max_leakage` caps the admissible
    end-of-horizon frontier mass, as for the heat kernel.
    """
    g.check_vertex(x, y)
    if t == 0:
        return 0.0
    if max_leakage is not None:
        _budgeted_row(g, x, t, tol, max_terms, max_leakage)
    dom, green = _row_series(g, x, _gamma_tail_weights(t, tol, max_terms))
    iy = np.flatnonzero(dom == y)
    return float(green[iy[0]]) if iy.size else 0.0


# ---------------------------------------------------------------------------
# Monte Carlo range statistics
# ---------------------------------------------------------------------------


@dataclass
class RangeStats:
    restricted: Estimate          # E |R(t) cap (B \ H)|
    range_size: Estimate          # E |R(t)|
    small_range_tail: dict[float, Estimate] = field(default_factory=dict)


def range_statistics(g: Graph, x: int, t: float, replicas: int, rng: Stream,
                     B=None, H=(), alphas=()) -> RangeStats:
    """Sample |R(t)|, its restriction to B minus H, and P(|R| <= alpha t).

    Replica r walks on ``rng.child("range", r)``; the replicas run as one
    ``walk_batch``."""
    check_replicas(replicas)
    g.check_vertex(x)
    H = g.vertex_set(H)
    target = None if B is None else g.vertex_set(B) - H
    sizes = []
    restricted = []
    tails = {a: 0 for a in alphas}
    positions, jumps, _ = walk_batch(
        g, x, t, derive_keys(rng.key, "range", count=replicas))
    for row, n in zip(positions.tolist(), jumps.tolist()):
        R = set(row[:n])
        R.add(x)
        sizes.append(len(R))
        restricted.append(len(R & target) if target is not None
                          else len(R) - len(R & H))
        for a in alphas:
            if len(R) <= a * t:
                tails[a] += 1
    tail_est = {a: from_binomial(c, replicas, rng.key)
                for a, c in tails.items()}
    return RangeStats(from_samples(restricted, rng.key),
                      from_samples(sizes, rng.key), tail_est)


def self_intersection_profile(g: Graph, x: int, t: float, m: int,
                              replicas: int, rng: Stream) -> Estimate:
    """Mean number of coincident pairs in the every-m subsampled jump chain
    run for floor(t/2m) subsampled steps.

    Walks absorbed at the truncation frontier stop contributing subsample
    points, which can only remove pairs, so the spectral pair bound stays an
    upper bound on the estimate.
    """
    g.check_vertex(x)
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = int(check_horizon(t) // (2 * m))
    counts = []
    for r in range(replicas):
        if terms == 0:
            counts.append(0)
            continue
        path = discrete_walk(g, x, m * terms, rng.child("selfint", r))
        sub = path[::m]
        counts.append(sum(c * (c - 1) // 2 for c in Counter(sub).values()))
    return from_samples(counts, rng.key)


def self_intersection_bound(t: float, m: int, rho: float) -> float:
    """t rho^m / (2m (1 - rho^m)), the spectral pair-collision bound, for
    a horizon t, a subsampling step m >= 1 and a spectral radius rho in
    (0, 1)."""
    check_horizon(t)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    rm = rho ** m
    return t * rm / (2 * m * (1.0 - rm))
