"""Monte Carlo estimation of survival, cluster statistics, the sharpness
functionals phi and phi-tilde with their explicit constants, critical
brackets, branching-process oracles, and the non-amenable lifespan bound.

phi(S) is the expected number of particles sitting at vertices reached by
stay-inside activation chains that themselves exit S within their lifespan;
phi-tilde additionally weights each exit by the conditional mean jump count.
When phi-tilde drops below 1 the cluster is dominated by a subcritical
branching process, which is what the subcritical scans look for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .graphs import Graph, GraphError, ball
from .frogs import (FrogParams, ParticleField, explore_cluster,
                    _exit_conditional_stats, _replica_closures)
from .rng import Stream, derive_keys
from .stats import Estimate, check_replicas, from_binomial, from_samples
from .walks import check_horizon, exit_probability_exact, walk_batch


# ---------------------------------------------------------------------------
# survival and cluster statistics
# ---------------------------------------------------------------------------


@dataclass
class SurvivalEstimate:
    estimate: Estimate
    censored: int  # replicas that hit the particle budget before deciding


def replica_survival(g: Graph, params: FrogParams, n: int, key: int, *,
                     particle_budget: int | None) -> bool | None:
    """One replica of the survival event on the field with key `key`: True
    if the cluster reaches distance >= n from the origin (for n = 0:
    activates a second vertex, which lies at distance >= 1), False if it
    dies out first, None (censored) if the particle budget runs out first,
    even when the origin's own particles exceed it. A budget of None never
    censors."""
    cl = explore_cluster(g, params, ParticleField(g, key), radius=max(n, 1),
                         schedule="lifo", particle_budget=particle_budget)
    if cl.stop_reason == "radius_reached":
        return True
    return None if cl.stop_reason == "particle_budget" else False


def survival_probability(g: Graph, params: FrogParams, n: int, replicas: int,
                         seed: int, *, particle_budget: int = 2_000_000
                         ) -> SurvivalEstimate:
    """Fraction of replicas whose cluster reaches distance >= n from the
    origin (for n = 0: whose cluster is not just the origin); censored
    replicas (see ``replica_survival``) count as misses and are reported.

    Fields are keyed by (seed, replica) only, so sweeps over lambda or t at
    the same seed ride the monotone coupling: estimates are non-decreasing
    per seed by exact set inclusion.
    """
    if n < 0:
        raise ValueError(f"survival radius must be >= 0, got {n}")
    if n > g.max_radius:
        raise GraphError(f"survival radius {n} exceeds truncation radius")
    outcomes = [replica_survival(g, params, n, Stream(seed, "survival", r).key,
                                 particle_budget=particle_budget)
                for r in range(replicas)]
    return SurvivalEstimate(from_binomial(outcomes.count(True), replicas, seed),
                            outcomes.count(None))


@dataclass
class ClusterTail:
    tail: dict[int, float]        # n -> empirical P(|C| >= n)
    slope: float                  # least-squares slope of log tail, upper half
    r_squared: float
    censored: int                 # replicas counted as >= nmax (budget hits)
    sizes: list[int] = dc_field(repr=False, default_factory=list)


def cluster_size_tail(g: Graph, params: FrogParams, nmax: int, replicas: int,
                      seed: int, *, particle_budget: int = 500_000) -> ClusterTail:
    check_replicas(replicas)
    sizes = []
    censored = 0
    for r in range(replicas):
        fld = ParticleField(g, Stream(seed, "tail", r).key)
        cl = explore_cluster(g, params, fld, vertex_budget=nmax,
                             particle_budget=particle_budget)
        if cl.stop_reason in ("vertex_budget", "particle_budget"):
            censored += cl.stop_reason == "particle_budget"
            sizes.append(nmax)
        else:
            sizes.append(min(len(cl.activated), nmax))
    counts = np.bincount(sizes, minlength=nmax + 1)
    above = np.cumsum(counts[::-1])[::-1]
    tail = {n: above[n] / replicas for n in range(1, nmax + 1)}
    # fit the log tail over its statistically supported upper half: points
    # carried by fewer than ~10 replicas are one-sample steps, not decay
    floor = max(10.0 / replicas, 2.0 / replicas)
    supported = [n for n in range(2, nmax + 1) if tail[n] >= floor]
    slope, r2 = float("nan"), float("nan")
    if supported:
        top = [n for n in supported if n >= supported[-1] / 2]
        if len(top) >= 3:
            xs = np.array(top, dtype=float)
            ys = np.log([tail[n] for n in top])
            slope, intercept = np.polyfit(xs, ys, 1)
            pred = slope * xs + intercept
            ss_res = float(np.sum((ys - pred) ** 2))
            ss_tot = float(np.sum((ys - ys.mean()) ** 2))
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
            slope = float(slope)
    return ClusterTail(tail, slope, r2, censored, sizes)


# ---------------------------------------------------------------------------
# sharpness functionals
# ---------------------------------------------------------------------------


def phi_hat(g: Graph, S, params: FrogParams, replicas: int, seed: int,
            *, tol: float = 1e-10) -> Estimate:
    """Estimate phi(S): exact exit probabilities weighted by sampled
    stay-inside reachability indicators.

    Only the reach indicator is Monte Carlo; the per-vertex exit factor
    comes from the killed-walk series, which removes most of the variance.
    """
    S = g.interior_set(S, containing=g.origin)
    if params.lam == 0 or params.t == 0:
        return Estimate(0.0, 0.0, replicas, seed, "closed-form")
    table = exit_probability_exact(g, S, params.t, tol)
    weights = {x: params.lam * p for x, p in table.exit_prob.items()}
    vals = [sum(weights[x] for x in reached) for reached, _, _ in
            _replica_closures(g, S, params, seed, "phi", replicas)]
    return from_samples(vals, seed, "phi-hat")


def mean_exiters(g: Graph, S, params: FrogParams, replicas: int,
                 seed: int) -> Estimate:
    """Direct estimate of E |N(S)|, the dual form of phi(S)."""
    S = g.interior_set(S, containing=g.origin)
    vals = [sum(exits[x] for x in reached) for reached, _, exits in
            _replica_closures(g, S, params, seed, "exiters", replicas)]
    return from_samples(vals, seed, "exiter-count")


def phi_tilde_hat(g: Graph, S, params: FrogParams, replicas: int, seed: int,
                  *, tol: float = 1e-10,
                  conditional_replicas: int = 2000) -> Estimate:
    """Estimate phi-tilde(S): phi's summand additionally weighted by the
    conditional mean jump count given exit.

    The conditional factor is estimated once per vertex by rejection; a
    vertex with no accepted exits falls back to its geometric cap. Its
    sampling error enters the reported stderr through the delta method.
    """
    S = g.interior_set(S, containing=g.origin)
    if params.lam == 0 or params.t == 0:
        return Estimate(0.0, 0.0, replicas, seed, "closed-form")
    table = exit_probability_exact(g, S, params.t, tol)
    cond_mean: dict[int, float] = {}
    cond_se: dict[int, float] = {}
    xs = sorted(S)
    cond_keys = derive_keys(seed, "cond", np.array(xs, dtype=np.int64))
    for x, stats in zip(xs, _exit_conditional_stats(
            g, S, xs, params.t, conditional_replicas, cond_keys.tolist())):
        if stats.estimate is None:
            cond_mean[x] = stats.bound
            cond_se[x] = 0.0
        else:
            cond_mean[x] = stats.estimate.mean
            cond_se[x] = stats.estimate.stderr
    weights = {x: params.lam * table.exit_prob[x] * cond_mean[x] for x in S}
    vals = []
    reach_freq = {x: 0 for x in S}
    for reached, _, _ in _replica_closures(g, S, params, seed, "phitilde",
                                           replicas):
        for x in reached:
            reach_freq[x] += 1
        vals.append(sum(weights[x] for x in reached))
    base = from_samples(vals, seed, "phi-tilde-hat")
    extra_var = sum(
        (params.lam * table.exit_prob[x] * (reach_freq[x] / replicas)
         * cond_se[x]) ** 2 for x in S)
    return Estimate(base.mean, math.sqrt(base.stderr ** 2 + extra_var),
                    replicas, seed, "phi-tilde-hat")


@dataclass(frozen=True)
class SharpnessConstants:
    delta: float   # probability of a single one-jump relay along a fixed edge
    K: float       # Delta / delta, the shell growth base
    C: float       # phi-tilde / phi comparison constant (inf if > float max)
    c: float       # 1/C, the subcritical threshold for phi
    log_C: float = math.inf   # exact log of C, for reporting when C overflows


def _logsumexp2(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def sharpness_constants(delta_deg: int, lam: float, t: float,
                        *, rel_tol: float = 1e-12) -> SharpnessConstants:
    """Evaluate (delta, K, C, c) for out-degree Delta and parameters (lam, t).

    delta = 1 - exp(-(lam/Delta) t e^{-t}); K = Delta/delta. C sums a
    geometric-vs-factorial series, evaluated in log space because individual
    terms reach e^100 and beyond; truncation stops once the term ratio
    certificate M e t/(r+1) < 1/2 holds and the term is below rel_tol of the
    partial sum. c = 1/C, with the convention C = infinity (c = 0) when
    lam = 0 or t = 0.
    """
    if delta_deg < 1:
        raise GraphError("Delta must be >= 1")
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    check_horizon(t)
    if lam == 0.0 or t == 0.0:
        return SharpnessConstants(0.0, math.inf, math.inf, 0.0, math.inf)
    delta = -math.expm1(-(lam / delta_deg) * t * math.exp(-t))
    if delta == 0.0:
        # t e^{-t} underflowed: the one-jump relay never fires at this
        # horizon and every derived constant degenerates
        return SharpnessConstants(0.0, math.inf, math.inf, 0.0, math.inf)
    K = delta_deg / delta
    try:
        M = 4.0 * delta_deg ** 2 + 2.0 * delta_deg ** 3 * math.exp(t) / (lam * t)
    except OverflowError:
        return SharpnessConstants(delta, K, math.inf, 0.0, math.inf)
    log_M = math.log(M)
    log_head = (math.log(2.0 * (t + 1.0) ** 2 * delta_deg)
                - math.log(-math.expm1(-t)) + (t + 1.0) * log_M)
    log_coef = (math.log(2.0 * t * delta_deg ** 2)
                - math.log(-math.expm1(-t)))
    r = max(1, math.floor(t + 1.0))
    log_total = -math.inf
    log_t = math.log(t)
    while True:
        log_term = (log_coef + (r - 1) * (log_M + log_t - math.log(r))
                    + (r - t))
        log_total = _logsumexp2(log_total, log_term)
        ratio = M * math.e * t / (r + 1)
        if ratio < 0.5 and log_term <= math.log(rel_tol) + _logsumexp2(log_head, log_total):
            break
        r += 1
        if r > 10_000_000:
            break
    log_C = _logsumexp2(log_head, log_total)
    C = math.exp(log_C) if log_C < 709.0 else math.inf
    c = math.exp(-log_C)
    return SharpnessConstants(delta, K, C, c, log_C)


@dataclass
class PhiReport:
    window: str
    phi_hat: Estimate
    phi_tilde_hat: Estimate
    constants: SharpnessConstants
    subcritical: bool  # phi_hat + 3 se below the threshold c


def phi_report(g: Graph, S, params: FrogParams, replicas: int, seed: int,
               *, window_name: str | None = None) -> PhiReport:
    S = set(S)
    consts = sharpness_constants(g.max_interior_degree(), params.lam, params.t)
    ph = phi_hat(g, S, params, replicas, seed)
    pt = phi_tilde_hat(g, S, params, replicas, Stream(seed, "tilde").key)
    sub = ph.mean + 3.0 * ph.stderr < consts.c
    return PhiReport(window_name or f"|S|={len(S)}", ph, pt, consts, sub)


# ---------------------------------------------------------------------------
# critical-parameter search
# ---------------------------------------------------------------------------


@dataclass
class CriticalBracket:
    lo: float
    hi: float
    parameter: str       # "lambda" | "t"
    fixed_value: float
    confident: bool
    notes: str = ""

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")


def _params_at(parameter: str, value: float, fixed_value: float) -> FrogParams:
    """The parameters with the free one ("lambda" or "t") at value."""
    return (FrogParams(value, fixed_value) if parameter == "lambda"
            else FrogParams(fixed_value, value))


def critical_bisection(g: Graph, parameter: str, fixed_value: float, n: int,
                       replicas: int, threshold: float, tol: float, seed: int,
                       *, lo: float, hi: float, max_replicas: int = 64000,
                       particle_budget: int = 500_000) -> CriticalBracket:
    """Bisect the free parameter on the survival estimate crossing threshold.

    A bisection step is taken only when the estimate is >= 3 stderr away
    from the threshold; otherwise replicas double up to a cap, and if noise
    still dominates the widest confident bracket is returned rather than a
    false point.
    """
    if parameter not in ("lambda", "t"):
        raise ValueError("parameter must be 'lambda' or 't'")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0,1)")
    if not lo < hi:
        raise ValueError("need lo < hi")

    def confident_side(value):
        params, reps = _params_at(parameter, value, fixed_value), replicas
        while True:
            est = survival_probability(g, params, n, reps, seed,
                                       particle_budget=particle_budget).estimate
            gap = est.mean - threshold
            if abs(gap) >= 3.0 * max(est.stderr, 1e-12) or est.stderr == 0.0:
                return 1 if gap > 0 else -1
            if reps >= max_replicas:
                return 0
            reps *= 2

    side_lo = confident_side(lo)
    side_hi = confident_side(hi)
    if side_lo >= 0 or side_hi <= 0:
        return CriticalBracket(lo, hi, parameter, fixed_value, False,
                               "no confident crossing inside the search interval")
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        side = confident_side(mid)
        if side == 0:
            return CriticalBracket(a, b, parameter, fixed_value, False,
                                   f"noise floor reached at {mid:.6g}")
        if side > 0:
            b = mid
        else:
            a = mid
    return CriticalBracket(a, b, parameter, fixed_value, True)


@dataclass
class TildeScanRow:
    value: float
    best_phi: Estimate
    best_radius: int
    threshold: float
    subcritical: bool


@dataclass
class TildeScanResult:
    parameter: str
    rows: list[TildeScanRow]
    crossing: tuple[float, float] | None  # bracket where the flag flips


def tilde_critical_scan(g: Graph, parameter: str, fixed_value: float,
                        radii: list[int], grid: list[float], replicas: int,
                        seed: int) -> TildeScanResult:
    """Ball-restricted scan of inf_S phi(S) against the threshold c.

    The infimum runs over the ball family only, so subcritical flags are
    one-sided evidence; rows report the minimizing radius.
    """
    if parameter not in ("lambda", "t"):
        raise ValueError("parameter must be 'lambda' or 't'")
    if not radii:
        raise ValueError("radii must be non-empty")
    delta_deg = g.max_interior_degree()
    rows = []
    for value in grid:
        params = _params_at(parameter, value, fixed_value)
        consts = sharpness_constants(delta_deg, params.lam, params.t)
        best: Estimate | None = None
        best_r = radii[0]
        for r in radii:
            S = ball(g, g.origin, r)
            est = phi_hat(g, S, params, replicas, Stream(seed, "scan", r).key)
            if best is None or est.mean < best.mean:
                best, best_r = est, r
        sub = best.mean + 3.0 * best.stderr < consts.c or params.lam == 0 \
            or params.t == 0
        rows.append(TildeScanRow(value, best, best_r, consts.c, sub))
    crossing = None
    for lo_row, hi_row in zip(rows, rows[1:]):
        if lo_row.subcritical and not hi_row.subcritical:
            crossing = (lo_row.value, hi_row.value)
            break
    return TildeScanResult(parameter, rows, crossing)


# ---------------------------------------------------------------------------
# differential-inequality finite-difference check
# ---------------------------------------------------------------------------


@dataclass
class RussoCheck:
    variant: str              # "lambda" | "t"
    derivative: Estimate      # paired finite difference of the crossing prob
    rhs: float                # threshold side evaluated at the base point
    rhs_se: float
    holds: bool               # derivative >= rhs - 3 combined se
    insufficient: bool        # noise too large to resolve the comparison
    base_prob: Estimate | None = None


def russo_inequality_check(g: Graph, radius: int, params: FrogParams,
                           dstep: float, replicas: int, seed: int,
                           variant: str = "lambda",
                           phi_replicas: int = 20000) -> RussoCheck:
    """Finite-difference form of the growth inequality for the probability
    of crossing out of the ball of the given radius.

    The derivative uses common random numbers (per-seed coupled fields), so
    each replica contributes a monotone indicator difference. The right side
    is (1/lambda) inf phi (1-P) for the lambda variant and
    (lambda e^{-t}/t) inf phi (1-P) for the lifespan variant, with the inf
    over the ball family inside the window.
    """
    if variant not in ("lambda", "t"):
        raise ValueError("variant must be 'lambda' or 't'")
    if not dstep > 0:
        raise ValueError(f"dstep must be > 0, got {dstep}")
    if (params.lam if variant == "lambda" else params.t) == 0:
        raise ValueError(f"the {variant} variant divides by {variant}, "
                         "which must be > 0")
    n = radius + 1   # event: cluster leaves the ball of the given radius
    if variant == "lambda":
        bumped = FrogParams(params.lam + dstep, params.t)
        factor = 1.0 / params.lam
    else:
        bumped = FrogParams(params.lam, params.t + dstep)
        factor = params.lam * math.exp(-params.t) / params.t
    diffs = []
    base_hits = 0
    for r in range(replicas):
        key = Stream(seed, "russo", r).key
        b0 = replica_survival(g, params, n, key, particle_budget=None) is True
        b1 = replica_survival(g, bumped, n, key, particle_budget=None) is True
        base_hits += b0
        diffs.append((b1 - b0) / dstep)
    deriv = from_samples(diffs, seed, "paired-fd")
    base = from_binomial(base_hits, replicas, seed)
    best: Estimate | None = None
    for r in range(0, radius + 1):
        S = ball(g, g.origin, r)
        est = phi_hat(g, S, params, phi_replicas, Stream(seed, "russo-phi", r).key)
        if best is None or est.mean < best.mean:
            best = est
    rhs = factor * best.mean * (1.0 - base.mean)
    rhs_se = factor * math.hypot(best.stderr * (1.0 - base.mean),
                                 best.mean * base.stderr)
    combined = 3.0 * math.hypot(deriv.stderr, rhs_se)
    holds = deriv.mean >= rhs - combined
    insufficient = combined > max(rhs, 1e-9)
    return RussoCheck(variant, deriv, rhs, rhs_se, holds, insufficient, base)


# ---------------------------------------------------------------------------
# branching-process oracle and non-amenable bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GWOracle:
    mean_offspring: float
    extinction: float
    has_exponential_moment: bool
    residual: float


def gw_oracle(lam: float, t: float, tol: float = 1e-12) -> GWOracle:
    """Compound-Poisson branching oracle: offspring pgf
    f(s) = exp(lam (e^{t(s-1)} - 1)), mean lam t.

    Extinction probability is the least fixed point of f on [0,1], found by
    monotone iteration from 0. The total activated mass has an exponential
    moment exactly when lam t < 1.
    """
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    check_horizon(t)

    def f(s: float) -> float:
        return math.exp(lam * math.expm1(t * (s - 1.0)))

    if lam * t <= 1.0:
        q = 1.0
    else:
        q = 0.0
        for _ in range(100000):
            nxt = f(q)
            if abs(nxt - q) <= tol:
                q = nxt
                break
            q = nxt
    return GWOracle(lam * t, q, lam * t < 1.0, abs(f(q) - q))


@dataclass(frozen=True)
class LifespanBound:
    bound: float
    alpha: float
    rho: float
    K_control: float


def nonamenable_t_bound(rho: float, K: float, lam: float) -> LifespanBound:
    """Sufficient lifespan for survival on a non-amenable network:
    200 K^2 (log_rho((1-rho)/(32K)) + 1) / ((1-rho)^2 min(1, lam)),
    with the escape fraction alpha = 1/(4 ceil(log_rho((1-rho)/(32K)))).
    """
    if not 0.0 < rho < 1.0:
        raise GraphError("rho must be in (0,1): amenable input rejected")
    if K < 1.0:
        raise ValueError("K must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    log_rho = math.log((1.0 - rho) / (32.0 * K)) / math.log(rho)
    bound = 200.0 * K * K * (log_rho + 1.0) / ((1.0 - rho) ** 2 * min(1.0, lam))
    alpha = 1.0 / (4.0 * math.ceil(log_rho))
    return LifespanBound(bound, alpha, rho, K)


@dataclass
class GoodSetReport:
    members: set[int]
    fraction: float
    target_fraction: float
    escape_probs: dict[int, float]


def good_set_G_A(g: Graph, A, t: float, alpha: float, replicas: int,
                 seed: int, *, rho: float, K: float) -> GoodSetReport:
    """Estimate G_A = {x in A : P_x(|R(t) minus A| > alpha t) >= (1-rho)/4K}
    and compare |G_A|/|A| with (1-rho)/2K.

    Walk r from x uses ``Stream(seed, "GA", x, r)``; each x's replicas run
    as one ``walk_batch``."""
    A = g.vertex_set(A)
    if not A:
        raise GraphError("A must be non-empty")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    check_replicas(replicas)
    thresh = (1.0 - rho) / (4.0 * K)
    members = set()
    probs = {}
    for x in sorted(A):
        positions, jumps, _ = walk_batch(
            g, x, t, derive_keys(seed, "GA", x, count=replicas))
        hits = sum(len(set(row[:n]) - A) > alpha * t
                   for row, n in zip(positions.tolist(), jumps.tolist()))
        p = hits / replicas
        probs[x] = p
        if p >= thresh:
            members.add(x)
    return GoodSetReport(members, len(members) / len(A),
                         (1.0 - rho) / (2.0 * K), probs)
