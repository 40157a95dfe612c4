"""Coupling and renormalization constructions packaged as runnable
experiments: first-jump Bernoulli edge coupling, coarse-grained block
renormalization on the planar box, schedule-invariance replay, the
linear-growth extinction study, and the non-amenable survival pipeline.

Every experiment returns an ExperimentReport whose metrics carry replica
counts and seeds, and can be serialized to JSON plus the shared CSV schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import (Graph, GraphError, GraphSpec, ball, build_graph,
                     spectral_radius_estimate, stationary_control_constant)
from .frogs import (_SCAN_FIELDS, FrogParams, ParticleField, _arrow_bits,
                    _closure_scan, _field_keys, _reach, _read_arrows,
                    explore_cluster)
from .estimators import nonamenable_t_bound, survival_probability
from .rng import Stream, derive_keys
from .stats import Estimate, check_replicas, from_binomial, from_samples
from .walks import check_horizon, discrete_walk, exit_probability_exact


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    metrics: dict[str, Estimate | float]
    checks: dict[str, bool]
    seed: int

    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, Estimate):
                return {"mean": v.mean, "stderr": v.stderr,
                        "replicas": v.replicas, "seed": v.seed,
                        "method": v.method}
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v
        payload = {
            "experiment": self.name,
            "seed": self.seed,
            "inputs": {k: enc(v) for k, v in self.inputs.items()},
            "metrics": {k: enc(v) for k, v in self.metrics.items()},
            "checks": self.checks,
            "passed": self.passed(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_rows(self) -> list[dict]:
        row = {"experiment": self.name, "seed": self.seed,
               "graph": str(self.inputs.get("graph", "")),
               **{k: self.inputs.get(k, "") for k in ("lambda", "t", "n")}}
        rows = []
        for metric, val in sorted(self.metrics.items()):
            mean, stderr, replicas = (
                (val.mean, val.stderr, val.replicas)
                if isinstance(val, Estimate) else (float(val), 0.0, 1))
            rows.append({**row, "replicas": replicas, "metric": metric,
                         "mean": mean, "stderr": stderr})
        return rows


CSV_HEADER = ["experiment", "graph", "lambda", "t", "n", "replicas", "seed",
              "metric", "mean", "stderr"]


def format_csv(rows: list[dict]) -> str:
    out = [",".join(CSV_HEADER)]
    for row in rows:
        cells = []
        for col in CSV_HEADER:
            v = row.get(col, "")
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def write_report(report: ExperimentReport, outdir) -> tuple[Path, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jpath = outdir / f"{report.name}-{report.seed}.json"
    cpath = outdir / f"{report.name}-{report.seed}.csv"
    jpath.write_text(report.to_json() + "\n", encoding="utf-8")
    cpath.write_text(format_csv(report.csv_rows()), encoding="utf-8")
    return jpath, cpath


# ---------------------------------------------------------------------------
# first-jump Bernoulli edge coupling
# ---------------------------------------------------------------------------


def edge_open_probability(delta_deg: int, lam: float, t: float) -> float:
    """Closed-form per-edge open probability on a Delta-regular graph:
    (1 - exp(-lam (1 - e^{-t}) / Delta))^2."""
    one_side = -math.expm1(-lam * -math.expm1(-check_horizon(t)) / delta_deg)
    return one_side * one_side


def _open_edges(field: ParticleField, params: FrogParams, edges) -> list:
    """The edges (x, y) of `edges`, in order, across which both x and y
    send a first jump under field. The field stores nothing, so each
    vertex's first jumps are kept here: its particles are read once."""
    firsts: dict[int, set[int]] = {}

    def jumps_to(x: int, y: int) -> bool:
        if x not in firsts:
            _, trajs = field.particles(x, params)
            firsts[x] = {tr.jumps[0] for tr in trajs if tr.jumps}
        return y in firsts[x]

    return [(x, y) for x, y in edges if jumps_to(x, y) and jumps_to(y, x)]


# Most (edge, edge) observations of the correlation probe: its 3-stderr
# check then resolves a correlation of 3 / sqrt(20 000) = 0.02.
_INDEPENDENCE_PAIRS = 20_000


def bernoulli_edge_coupling(g: Graph, params: FrogParams, replicas: int,
                            seed: int, *, edge_trials: int = 100_000,
                            inclusion_seeds: int = 5) -> ExperimentReport:
    """Declare an edge open when both endpoints send a first jump across it
    within the lifespan; validate the product closed form, cross-edge
    independence, and per-seed containment of the open cluster in the frog
    cluster on the same field.

    `replicas` counts particle-field replicas; when 0 the count is derived
    from `edge_trials` (each replica contributes one trial per interior
    full-degree edge).
    """
    if g.directed:
        raise GraphError("edge coupling needs an undirected graph")
    delta_deg = g.max_interior_degree()
    # the edges between interior vertices of full degree
    full = g.interior_mask & (np.diff(g.indptr) == delta_deg)
    edges = [(x, y) for x in np.flatnonzero(full).tolist()
             for y in g.out_neighbors(x).tolist() if x < y and full[y]]
    if not edges:
        raise GraphError("no interior edges of full degree")

    p_closed = edge_open_probability(delta_deg, params.lam, params.t)
    need_reps = (replicas if replicas >= 1
                 else max(1, -(-edge_trials // len(edges))))
    opens = 0
    trials = 0
    # vertex-disjoint edge pairs for the correlation probe
    pair_step = max(2, len(edges) // 32)
    pairs = []
    for i in range(0, len(edges) - pair_step, pair_step):
        e1, e2 = edges[i], edges[i + pair_step // 2]
        if len({*e1, *e2}) == 4:
            pairs.append((e1, e2))
    pair_obs: list[tuple[bool, bool]] = []
    inclusion_ok = True
    # field r serves replica r < need_reps and inclusion seed r
    for r in range(max(need_reps, inclusion_seeds)):
        fld = ParticleField(g, Stream(seed, "edges", r).key)
        opened = _open_edges(fld, params, edges)
        if r < need_reps:
            opens += len(opened)
            trials += len(edges)
            if len(pair_obs) < _INDEPENDENCE_PAIRS:
                is_open = set(opened)
                pair_obs += [(e1 in is_open, e2 in is_open)
                             for e1, e2 in pairs]
        if r < inclusion_seeds:
            adj: dict[int, list[int]] = {}
            for x, y in opened:
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
            open_cluster = _reach({g.origin}, lambda v: adj.get(v, ()))
            frog = explore_cluster(g, params, fld, particle_budget=5_000_000)
            inclusion_ok &= open_cluster <= frog.activated
    rate = from_binomial(opens, trials, seed)

    a = np.array([u for u, _ in pair_obs], dtype=float)
    b = np.array([v for _, v in pair_obs], dtype=float)
    if a.std() > 0 and b.std() > 0:
        corr = float(np.corrcoef(a, b)[0, 1])
    else:
        corr = 0.0
    corr_se = 1.0 / math.sqrt(len(pair_obs))
    dev = abs(rate.mean - p_closed)
    checks = {
        "rate_matches_closed_form_3se": dev <= 3.0 * max(rate.stderr, 1e-12),
        "pair_correlation_within_3se": abs(corr) <= 3.0 * corr_se,
        "open_cluster_inside_frog_cluster": inclusion_ok,
    }
    return ExperimentReport(
        "bernoulli_coupling",
        {"graph": g.family, "lambda": params.lam, "t": params.t,
         "delta": delta_deg, "edge_trials": trials},
        {"open_rate": rate, "closed_form": p_closed,
         "pair_correlation": corr, "pair_correlation_se": corr_se},
        checks, seed)


# ---------------------------------------------------------------------------
# renormalization on the planar box
# ---------------------------------------------------------------------------

_NET_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1),
                  (1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass
class NetConfig:
    """Sublattice block structure on a planar box.

    Net sites are the spacing-a sublattice inside the box; net edges join
    the eight adjacent sites (all within graph distance 4a, and a valid
    block net: site percolation on that adjacency is comfortably
    subcritical at 3/4). Balls of radius a//3 around distinct sites are
    disjoint.
    """

    a: int
    net_extent: int          # net sites live in the l1 ball of this many steps
    box_radius: int | None = None

    def __post_init__(self):
        if self.a < 3:
            raise GraphError("spacing a must be >= 3")
        if self.net_extent < 1:
            raise GraphError("net_extent must be >= 1")
        if 2 * (self.a // 3) >= self.a:
            raise GraphError("ball radius a//3 too large for disjointness")
        if self.box_radius is None:
            halo = 2 * self.a + self.a // 3 + 2
            self.box_radius = self.net_extent * self.a + halo

    @property
    def lifespan(self) -> float:
        return float(self.a * self.a)

    def net_sites(self):
        e = self.net_extent
        return [(i * self.a, j * self.a)
                for i in range(-e, e + 1) for j in range(-e, e + 1)
                if abs(i) + abs(j) <= e]


class _CoordIndex:
    """Vertex ids of a planar lattice's points, and balls around them."""

    def __init__(self, g: Graph):
        if g.coords is None:
            raise GraphError("experiment needs a lattice graph with coordinates")
        self._g = g
        self._map = dict(zip(map(tuple, g.coords.tolist()),
                             range(g.vertex_count)))
        self._balls: dict[tuple, set[int]] = {}

    def vid(self, p) -> int:
        v = self._map.get((int(p[0]), int(p[1])))
        if v is None:
            raise GraphError(f"point {p} outside the base box")
        return v

    def ball(self, p, r: int) -> set[int]:
        """ball(g, vid(p), r), shared between calls: do not modify it."""
        key = (int(p[0]), int(p[1]), r)
        if key not in self._balls:
            self._balls[key] = ball(self._g, self.vid(p), r)
        return self._balls[key]


def block_open(g: Graph, idx: _CoordIndex, net: NetConfig, sites, lam: float,
               phase1: ParticleField, phase2: ParticleField) -> dict:
    """Openness of each net site of `sites`, as {site: open}: some vertex
    of the site's small ball conquers a quarter of the ball with the first
    particle wave, and the second wave seeded on that conquered set covers
    all eight neighboring balls through the ball-plus-targets window.

    Both waves read their arrows as bitmasks over the columns of the union
    of the sites' windows, in one ``frogs._arrow_bits`` call: the first
    wave reveals the particles of the small balls, the second those of
    the whole union. A site masks them to its own ball or window
    (``_site_open``), which equals a read of that set alone. Every window
    must avoid the truncation frontier (GraphError otherwise)."""
    half = FrogParams(lam / 2.0, net.lifespan)
    r = net.a // 3

    def around(s):
        return [(s[0] + ox * net.a, s[1] + oy * net.a)
                for ox, oy in _NET_NEIGHBORS]

    balls = {p: idx.ball(p, r) for s in sites for p in [s, *around(s)]}
    union = set().union(*balls.values())
    inner = set().union(*(balls[s] for s in sites))
    verts, (first, second) = _arrow_bits(
        g, union, [(phase1, inner), (phase2, union)], half)
    column = {v: c for c, v in enumerate(verts)}
    bits = {p: sum(1 << column[v] for v in B) for p, B in balls.items()}
    opened = {}
    for s in sites:
        bhat = 0
        for p in around(s):
            bhat |= bits[p]
        opened[s] = _site_open(bits[s], bhat, first, second)
    return opened


def _bit_reach(reached: int, out, within: int, target: int) -> int:
    """The closure of the column bitmask `reached` inside the bitmask
    `within` along out[c], the bitmask of columns that column c points to:
    it adds out[c] & within for each column c it holds, lowest first, and
    returns as soon as it holds every column of target."""
    todo = reached
    while todo and target & ~reached:
        low = todo & -todo
        todo ^= low
        new = out[low.bit_length() - 1] & within & ~reached
        reached |= new
        todo |= new
    return reached


def _site_open(B: int, bhat: int, first, second) -> bool:
    """block_open for one site with small ball B and neighboring balls
    bhat, as column bitmasks, given each wave's arrows by column as
    bitmasks over columns that hold B and bhat (first[c] and second[c], 0
    for a column without particles): some vertex x of B is good, its reach
    in B under the first wave covers a quarter of B, and the second wave's
    closure of that reach inside B | bhat covers bhat.

    The answer is a boolean that no visit order changes, so every reach
    is a bitmask closure (``_bit_reach``); the goods' reaches are tried
    largest first."""
    quota = B.bit_count() / 4.0
    goods, rest = set(), B
    while rest:
        x = rest & -rest
        rest ^= x
        reached = _bit_reach(x, first, B, B)
        if reached.bit_count() >= quota:
            goods.add(reached)
    window = B | bhat
    for reached in sorted(goods, key=int.bit_count, reverse=True):
        if not bhat & ~_bit_reach(reached, second, window, bhat):
            return True
    return False


def good_vertex_decay(g: Graph, center: int, a: int, density: float,
                      sizes, replicas: int, seed: int):
    """P(no good vertex in A) for nested candidate sets A of the given
    sizes inside the radius-a ball, at lifespan a^2.

    Goodness = the candidate's in-ball activation covers a quarter of the
    ball. Nesting makes the probabilities non-increasing in |A| per seed.
    Each field runs one ``frogs._closure_scan`` over the largest set's
    candidates in order, all fields in one ``frogs._read_arrows`` call, so
    only the particles of vertices its reaches pop are revealed. The ball
    must avoid the truncation frontier, where walks are absorbed.
    """
    check_replicas(replicas)
    if any(k < 0 for k in sizes):
        raise ValueError(f"candidate set sizes must be >= 0, got {sizes}")
    B = ball(g, center, a)
    verts = sorted(B)
    # the size-k candidate set is order[:k], so one scan of the largest
    # set per field finds the first good candidate for every size
    order = sorted(B, key=lambda v: (int(g.dist[v]), v))
    column = {v: c for c, v in enumerate(verts)}
    scan = [column[v] for v in order[:max(sizes, default=0)]]
    params = FrogParams(density, float(a * a))
    need = math.ceil(len(B) / 4.0)   # a reach of integer size covers a quarter
    fails = {k: 0 for k in sizes}
    # replica r's field has the key Stream(seed, "decay", r).key, derived
    # a _read_arrows block at a time
    for lo in range(0, replicas, _SCAN_FIELDS):
        keys = derive_keys(seed, "decay",
                           np.arange(lo, min(lo + _SCAN_FIELDS, replicas)))
        for first, _ in _read_arrows(
                g, verts, keys, params,
                lambda _, has: _closure_scan(has, scan, need)):
            for k in fails:
                fails[k] += first >= k
    return {k: from_binomial(fails[k], replicas, seed) for k in sizes}


# The good-vertex decay's candidate set sizes: three points for its slope
# check, all below the 145 vertices of the ball at the default a = 8
_DECAY_SIZES = (4, 16, 64)


def renormalization_experiment(net: NetConfig, lam: float, replicas: int,
                               seed: int, *, decay_density: float = 0.25,
                               decay_replicas: int = 500,
                               max_vertices: int = GraphSpec.max_vertices
                               ) -> ExperimentReport:
    """Two-wave block renormalization: split the particle density in half,
    open a net site when wave one finds a good vertex in its ball and wave
    two conquers the neighboring balls, then read off the open frequency and
    the site-percolation cluster of the renormalized configuration. A box
    of more than max_vertices vertices raises GraphError.
    """
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius,
                              max_vertices=max_vertices))
    idx = _CoordIndex(g)
    sites = net.net_sites()
    site_ids = {s: i for i, s in enumerate(sites)}
    net_adj = {s: [n for n in ((s[0] + ox * net.a, s[1] + oy * net.a)
                               for ox, oy in _NET_NEIGHBORS) if n in site_ids]
               for s in sites}
    per_rep_fraction = []
    open_counts = {s: 0 for s in sites}
    cluster_fracs = []
    for rep in range(replicas):
        # block_open is looked up as a module global, so a wrapper sees the
        # replica's work start; its two waves are one arrow pass each, over
        # every site's ball and then over every site's window
        state = block_open(g, idx, net, sites, lam,
                           ParticleField(g, Stream(seed, "phase1", rep).key),
                           ParticleField(g, Stream(seed, "phase2", rep).key))
        for s in sites:
            open_counts[s] += state[s]
        per_rep_fraction.append(sum(state.values()) / len(sites))
        # renormalized site-percolation cluster of the center site
        if state[(0, 0)]:
            comp = _reach({(0, 0)},
                          lambda u: (w for w in net_adj[u] if state[w]))
            cluster_fracs.append(len(comp) / len(sites))
        else:
            cluster_fracs.append(0.0)
    open_freq = from_samples(per_rep_fraction, seed, "open-fraction")
    site_freqs = {s: c / replicas for s, c in open_counts.items()}
    decay = good_vertex_decay(g, g.origin, net.a, decay_density, _DECAY_SIZES,
                              decay_replicas, Stream(seed, "decay").key)
    dec_means = [decay[k].mean for k in sorted(decay)]
    strict = all(a > b for a, b in zip(dec_means, dec_means[1:]))
    supported = [(k, decay[k].mean) for k in sorted(decay) if decay[k].mean > 0]
    slope = float("nan")
    if len(supported) >= 2:
        # least-squares slope in closed form: np.polyfit's first LAPACK
        # call raises the peak RSS by about 1.4 MB
        xs = np.array([k for k, _ in supported], dtype=float)
        xs -= xs.mean()
        ys = np.log([p for _, p in supported])
        slope = float(xs @ (ys - ys.mean()) / (xs @ xs))
    checks = {
        "open_frequency_at_least_3_quarters": open_freq.mean >= 0.75,
        "decay_strictly_decreasing": strict,
        "decay_log_slope_negative": (not math.isnan(slope)) and slope < 0.0,
    }
    metrics: dict = {
        "open_frequency": open_freq,
        "open_frequency_site_min": min(site_freqs.values()),
        "open_frequency_site_max": max(site_freqs.values()),
        "center_cluster_fraction": from_samples(cluster_fracs, seed),
        "net_sites": float(len(sites)),
    }
    for k in sorted(decay):
        metrics[f"p_no_good_vertex_size_{k}"] = decay[k]
    return ExperimentReport(
        "renormalization",
        {"graph": g.family, "lambda": lam, "t": net.lifespan, "a": net.a,
         "net_extent": net.net_extent, "decay_density": decay_density},
        metrics, checks, seed)


# ---------------------------------------------------------------------------
# schedule invariance replay
# ---------------------------------------------------------------------------


def abelian_invariance_check(g: Graph, params: FrogParams,
                             seeds) -> ExperimentReport:
    """Replay identical particle fields under fifo/lifo/random schedules and
    demand set equality of the activated clusters. A mismatch reports its
    minimal reproducer (seed and schedule pair)."""
    mismatches = []
    sizes = []
    seeds = list(seeds)
    for s in seeds:
        results = {}
        for sched in ("fifo", "lifo", "random"):
            fld = ParticleField(g, s)
            cl = explore_cluster(g, params, fld, schedule=sched,
                                 rng=Stream(s, "sched", sched))
            results[sched] = cl.activated
        sizes.append(len(results["fifo"]))
        base = results["fifo"]
        for sched in ("lifo", "random"):
            if results[sched] != base:
                mismatches.append((s, sched))
    report = ExperimentReport(
        "abelian",
        {"graph": g.family, "lambda": params.lam, "t": params.t,
         "seeds": len(seeds)},
        {"mean_cluster_size": from_samples(sizes, seeds[0] if seeds else 0),
         "mismatches": float(len(mismatches))},
        {"all_schedules_agree": not mismatches},
        seeds[0] if seeds else 0)
    if mismatches:
        report.inputs["first_mismatch"] = mismatches[0]
    return report


# ---------------------------------------------------------------------------
# linear growth
# ---------------------------------------------------------------------------


def annulus_blocking_probability(g: Graph, inner: int, outer: int,
                                 params: FrogParams, tol: float = 1e-10) -> float:
    """Exact probability that no particle of the annulus B(outer) minus
    B(inner) leaves B(outer) within its lifespan: the Poisson-thinning
    closed form exp(-lam * sum of exit probabilities)."""
    S = ball(g, g.origin, outer)
    S = {v for v in S if not g.boundary_mask[v]}
    table = exit_probability_exact(g, S, params.t, tol)
    annulus = [x for x in S if int(g.dist[x]) > inner]
    total = sum(table.exit_prob[x] for x in annulus)
    return math.exp(-params.lam * total)


# Inner radius of the blocking annulus (its closed form is exact at any):
# well clear of the origin, inside a ladder of the default length 240
_BLOCKING_INNER = 50


def linear_growth_experiment(width: int, length: int, params: FrogParams,
                             replicas: int, seed: int,
                             *, distances=(50, 100, 200),
                             particle_budget: int = 2_000_000,
                             max_vertices: int = GraphSpec.max_vertices
                             ) -> ExperimentReport:
    """Survival decay along a ladder, the quasi-1d stand-in for linear
    growth, plus the exact blocking probability of an annulus. Replicas
    that exhaust `particle_budget` are counted once in inputs["censored"]; a
    ladder of more than max_vertices vertices raises GraphError."""
    g = build_graph(GraphSpec("ladder", width=width, length=length,
                              max_vertices=max_vertices))
    runs = {n: survival_probability(g, params, n, replicas, seed,
                                    particle_budget=particle_budget)
            for n in distances}
    ests = {n: sv.estimate for n, sv in runs.items()}
    # the radii share fields and schedule, so a replica censored at one
    # radius is censored at every larger one: count it once, at the largest
    censored = runs[max(distances)].censored
    outer = _BLOCKING_INNER + max(4, int(math.ceil(2 * params.t)) + 2)
    blocking = annulus_blocking_probability(g, _BLOCKING_INNER, outer, params)
    means = [ests[n].mean for n in sorted(ests)]
    checks = {
        "survival_nonincreasing_in_n": all(a >= b for a, b in
                                           zip(means, means[1:])),
        "blocking_probability_positive": blocking > 0.0,
    }
    metrics: dict = {f"survival_to_{n}": ests[n] for n in sorted(ests)}
    metrics["annulus_blocking_probability"] = blocking
    return ExperimentReport(
        "linear_growth",
        {"graph": g.family, "lambda": params.lam, "t": params.t,
         "n": max(distances), "blocking_annulus": (_BLOCKING_INNER, outer),
         "censored": censored},
        metrics, checks, seed)


# ---------------------------------------------------------------------------
# non-amenable pipeline
# ---------------------------------------------------------------------------


def escape_probability(g: Graph, A, horizon: int, replicas: int,
                       seed: int) -> Estimate:
    """Stationary-start probability of not returning to A within the
    horizon (a proxy for never returning): start from pi restricted to A."""
    A = g.vertex_set(A)
    if not A:
        raise GraphError("escape_probability needs a non-empty set")
    starts = sorted(A)
    w = g.pi[starts]
    cum = np.cumsum(w / w.sum())
    hits = 0
    for r in range(replicas):
        st = Stream(seed, "escape", r)
        x = starts[int(np.searchsorted(cum, st.uniform()))]
        path = discrete_walk(g, x, horizon, st, stop=A)
        hits += not any(v in A for v in path[1:])
    return from_binomial(hits, replicas, seed)


# The escape check's ball A: a few steps, small next to the graph's radius
_ESCAPE_RADIUS = 3
# rho_hat at or above this is taken as amenable: the lifespan bound grows
# without limit as 1 - rho goes to 0
_AMENABLE_CUTOFF = 0.995


def nonamenable_pipeline(g: Graph, lam: float, t_list, replicas: int,
                         seed: int, *, survival_radius: int | None = None,
                         spectral_nmax: int | None = None,
                         escape_horizon: int = 150,
                         particle_budget: int = 2_000_000) -> ExperimentReport:
    """Estimate the spectral radius and stationary control, evaluate the
    sufficient-lifespan bound, then bracket the empirical critical lifespan
    by survival measurements over t_list (hi = smallest tested lifespan with
    confidently positive survival). Survival replicas that exhaust
    `particle_budget` are counted in inputs["censored"]; the spectral
    estimate's frontier mass and truncation warning are recorded as
    inputs["spectral_leakage"] and inputs["spectral_truncation_warning"]."""
    if g.directed:
        raise GraphError("pipeline needs an undirected reversible network")
    if spectral_nmax is None:
        spectral_nmax = 2 * min(20, max(2, g.max_radius - 1))
    spec_est = spectral_radius_estimate(g, g.origin, spectral_nmax)
    rho = spec_est.estimate
    if rho >= _AMENABLE_CUTOFF:
        raise GraphError(
            f"estimated spectral radius {rho:.4f} is too close to 1: "
            "amenable input rejected")
    K = stationary_control_constant(g)
    bound = nonamenable_t_bound(rho, K, lam)
    if survival_radius is None:
        survival_radius = min(g.max_radius, 16)
    surv = {}
    censored = 0
    for i, t in enumerate(t_list):
        sv = survival_probability(g, FrogParams(lam, float(t)),
                                  survival_radius, replicas,
                                  Stream(seed, "t", i).key,
                                  particle_budget=particle_budget)
        surv[float(t)] = sv.estimate
        censored += sv.censored
    confident = [t for t, e in surv.items()
                 if e.mean > 0.0 and e.mean - 3.0 * e.stderr > 0.0]
    bracket_hi = min(confident) if confident else math.inf
    below = [t for t in surv if t < bracket_hi]
    bracket_lo = max(below) if below else 0.0
    esc = escape_probability(g, ball(g, g.origin, _ESCAPE_RADIUS),
                             escape_horizon, replicas, Stream(seed, "esc").key)
    checks = {
        "empirical_bracket_below_bound": bracket_hi <= bound.bound,
        "escape_probability_large": esc.mean >= (1.0 - rho) - 0.05,
    }
    metrics: dict = {
        "rho_hat": rho,
        "K_control": K,
        "lifespan_bound": bound.bound,
        "alpha": bound.alpha,
        "escape_probability": esc,
        "bracket_lo": bracket_lo,
        "bracket_hi": bracket_hi,
    }
    for t, e in sorted(surv.items()):
        metrics[f"survival_t_{t:g}"] = e
    return ExperimentReport(
        "nonamenable",
        {"graph": g.family, "lambda": lam, "t": max(t_list),
         "n": survival_radius, "censored": censored,
         "spectral_leakage": spec_est.leakage,
         "spectral_truncation_warning": bool(spec_est.truncation_warning)},
        metrics, checks, seed)
