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
from .frogs import (FrogParams, ParticleField, _reach, _read_arrows,
                    explore_cluster)
from .estimators import nonamenable_t_bound, survival_probability
from .rng import Stream, derive_keys
from .stats import Estimate, check_replicas, from_binomial, from_samples
from .walks import check_horizon, exit_probability_exact, jump_picker


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
        graph = str(self.inputs.get("graph", ""))
        lam = self.inputs.get("lambda", "")
        t = self.inputs.get("t", "")
        n = self.inputs.get("n", "")
        rows = []
        for metric, val in sorted(self.metrics.items()):
            if isinstance(val, Estimate):
                rows.append(dict(experiment=self.name, graph=graph, **{
                    "lambda": lam}, t=t, n=n, replicas=val.replicas,
                    seed=self.seed, metric=metric, mean=val.mean,
                    stderr=val.stderr))
            else:
                rows.append(dict(experiment=self.name, graph=graph, **{
                    "lambda": lam}, t=t, n=n, replicas=1, seed=self.seed,
                    metric=metric, mean=float(val), stderr=0.0))
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


def _first_jump_open(field: ParticleField, params: FrogParams,
                     x: int, y: int) -> bool:
    eta, trajs = field.particles(x, params)
    return any(tr.jumps and tr.jumps[0] == y for tr in trajs)


def bernoulli_edge_coupling(g: Graph, params: FrogParams, replicas: int,
                            seed: int, *, edge_trials: int = 100_000,
                            independence_pairs: int = 20_000,
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
    interior = g.interior_mask
    delta_deg = g.max_interior_degree()
    edges = []
    for x in range(g.vertex_count):
        if not interior[x] or g.degree(x) != delta_deg:
            continue
        for y in g.out_neighbors(x):
            y = int(y)
            if x < y and interior[y] and g.degree(y) == delta_deg:
                edges.append((x, y))
    if not edges:
        raise GraphError("no interior edges of full degree")

    p_closed = edge_open_probability(delta_deg, params.lam, params.t)
    per_rep = len(edges)
    need_reps = replicas if replicas >= 1 else max(1, -(-edge_trials // per_rep))
    opens = 0
    trials = 0
    # vertex-disjoint edge pairs for the correlation probe
    pair_step = max(2, len(edges) // 32)
    pairs = []
    for i in range(0, len(edges) - pair_step, pair_step):
        e1, e2 = edges[i], edges[i + pair_step // 2]
        if len({*e1, *e2}) == 4:
            pairs.append((e1, e2))
    pair_obs: list[tuple[int, int]] = []
    for r in range(need_reps):
        fld = ParticleField(g, Stream(seed, "edges", r).key)
        opened = {}
        for (x, y) in edges:
            o = (_first_jump_open(fld, params, x, y)
                 and _first_jump_open(fld, params, y, x))
            opened[(x, y)] = o
            opens += o
            trials += 1
        if len(pair_obs) < independence_pairs:
            for e1, e2 in pairs:
                pair_obs.append((opened[e1], opened[e2]))
    rate = from_binomial(opens, trials, seed)

    a = np.array([u for u, _ in pair_obs], dtype=float)
    b = np.array([v for _, v in pair_obs], dtype=float)
    if a.std() > 0 and b.std() > 0:
        corr = float(np.corrcoef(a, b)[0, 1])
    else:
        corr = 0.0
    corr_se = 1.0 / math.sqrt(len(pair_obs))

    inclusion_ok = True
    for s in range(inclusion_seeds):
        fld = ParticleField(g, Stream(seed, "edges", s).key)
        adj: dict[int, list[int]] = {}
        for (x, y) in edges:
            if (_first_jump_open(fld, params, x, y)
                    and _first_jump_open(fld, params, y, x)):
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
        open_cluster = _reach({g.origin}, lambda v: adj.get(v, ()))
        frog = explore_cluster(g, params, fld, particle_budget=5_000_000)
        if not open_cluster <= frog.activated:
            inclusion_ok = False
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
        self._map = {tuple(int(c) for c in p): i for i, p in enumerate(g.coords)}
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

    The first wave of every site is revealed in one arrow pass over the
    union of the small balls; a site's arrows are that pass's landings
    restricted to its own ball, so they equal a pass over the ball alone.
    The second wave reveals phase2's particles one vertex at a time, site
    by site in the order given."""
    t = net.lifespan
    half = FrogParams(lam / 2.0, t)
    r = net.a // 3
    balls = {s: idx.ball(s, r) for s in sites}
    verts = sorted(set().union(*balls.values()))
    [arrows] = _read_arrows(g, verts, [phase1], half, _read_all)
    arrows = {verts[c]: [verts[y] for y in out] for c, out in arrows.items()}
    return {s: _site_open(idx, net, s, B, arrows, half, phase2)
            for s, B in balls.items()}


def _read_all(_, has):
    """A ``frogs._read_arrows`` scan that reads every particle-bearing
    vertex in one wave and returns their arrows by column."""
    cols = [c for c, h in enumerate(has) if h]
    return dict(zip(cols, (yield cols)))


def _site_open(idx: _CoordIndex, net: NetConfig, site, B: set, arrows: dict,
               half: FrogParams, phase2: ParticleField) -> bool:
    """block_open for one site with small ball B, given the ascending
    first-wave arrows of the particle-bearing vertices of a superset of
    B."""
    # a set filled in ascending order iterates as the one a pass over B
    # alone builds, so the second wave reveals in the same order
    inner = {x: {y for y in arrows.get(x, ()) if y in B} for x in B}
    quota = len(B) / 4.0
    goods = []
    for x in sorted(B):
        reached = _reach({x}, inner.__getitem__)
        if len(reached) >= quota:
            goods.append((len(reached), x, reached))
    if not goods:
        return False
    goods.sort(key=lambda item: (-item[0], item[1]))
    bhat: set[int] = set()
    for ox, oy in _NET_NEIGHBORS:
        bhat |= idx.ball((site[0] + ox * net.a, site[1] + oy * net.a),
                         net.a // 3)
    window = B | bhat

    def out(x):
        # the second wave wakes window vertices only
        _, trajs = phase2.particles(x, half)
        return (v for tr in trajs for v in tr.jumps if v in window)

    # bhat lies inside the window, so every target visited is reached
    return any(bhat.issubset(_reach(set(reached), out, bhat.issubset))
               for _, _, reached in goods)


def good_vertex_decay(g: Graph, center: int, a: int, density: float,
                      sizes, replicas: int, seed: int):
    """P(no good vertex in A) for nested candidate sets A of the given
    sizes inside the radius-a ball, at lifespan a^2.

    Goodness = the candidate's in-ball activation covers a quarter of the
    ball. Nesting makes the probabilities non-increasing in |A| per seed.
    The ball must avoid the truncation frontier, where walks are absorbed.
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
    # replica r's field has the seed Stream(seed, "decay", r).key
    fields = (ParticleField(g, s)
              for s in derive_keys(seed, "decay", count=replicas).tolist())
    for first in _read_arrows(g, verts, fields, params,
                              lambda _, has: _first_good(has, scan, need)):
        for k in fails:
            fails[k] += first >= k
    return {k: from_binomial(fails[k], replicas, seed) for k in sizes}


def _first_good(has, scan, need: int):
    """One field's decay scan, as a ``frogs._read_arrows`` scan with
    particle mask has: the index in `scan` of the first candidate column
    whose reach along the arrows has at least need vertices (inf if none).
    Each reach is ``frogs._reach({x}, out, lambda r: len(r) >= need)``
    with out(x) read by a one-column yield, once per vertex."""
    known: dict[int, list[int]] = {}
    for i, start in enumerate(scan):
        reached = bytearray(len(has))
        reached[start] = 1
        size, stack = 1, [start]
        while stack and size < need:
            x = stack.pop()
            if has[x] and x not in known:
                [known[x]] = yield [x]
            for w in known.get(x, ()):
                if not reached[w]:
                    reached[w] = 1
                    size += 1
                    if size >= need:
                        break
                    stack.append(w)
        if size >= need:
            return i
    return math.inf


def _site_states(g: Graph, idx: _CoordIndex, net: NetConfig, sites,
                 lam: float, seed: int, rep: int) -> dict:
    """Openness of every net site in replica rep, from one block_open call
    (looked up as a module global, so a wrapper sees the replica's work
    start): its first wave is one arrow pass over every site's ball. The
    replica's two fields (and the trajectories they cache) are released
    on return."""
    phase1 = ParticleField(g, Stream(seed, "phase1", rep).key)
    phase2 = ParticleField(g, Stream(seed, "phase2", rep).key)
    return block_open(g, idx, net, sites, lam, phase1, phase2)


def renormalization_experiment(net: NetConfig, lam: float, replicas: int,
                               seed: int, *, decay_density: float = 0.25,
                               decay_sizes=(4, 16, 64),
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
        state = _site_states(g, idx, net, sites, lam, seed, rep)
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
    decay = good_vertex_decay(g, g.origin, net.a, decay_density, decay_sizes,
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


def linear_growth_experiment(width: int, length: int, params: FrogParams,
                             replicas: int, seed: int,
                             *, distances=(50, 100, 200),
                             blocking_inner: int = 50,
                             particle_budget: int = 2_000_000,
                             max_vertices: int = GraphSpec.max_vertices
                             ) -> ExperimentReport:
    """Survival decay along a ladder, the quasi-1d stand-in for linear
    growth, plus the exact blocking probability of an annulus. Replicas
    that exhaust `particle_budget` are counted in inputs["censored"]; a
    ladder of more than max_vertices vertices raises GraphError."""
    g = build_graph(GraphSpec("ladder", width=width, length=length,
                              max_vertices=max_vertices))
    ests = {}
    censored = 0
    for n in distances:
        sv = survival_probability(g, params, n, replicas, seed,
                                  particle_budget=particle_budget)
        ests[n] = sv.estimate
        censored += sv.censored
    outer = blocking_inner + max(4, int(math.ceil(2 * params.t)) + 2)
    blocking = annulus_blocking_probability(g, blocking_inner, outer, params)
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
         "n": max(distances), "blocking_annulus": (blocking_inner, outer),
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
    boundary = g.walk_tables()[2]
    pick = jump_picker(g)
    hits = 0
    for r in range(replicas):
        st = Stream(seed, "escape", r)
        x = starts[int(np.searchsorted(cum, st.uniform()))]
        cur = x
        returned = False
        for _ in range(horizon):
            if boundary[cur]:
                break
            cur = pick(cur, st.uniform())
            if cur in A:
                returned = True
                break
        hits += not returned
    return from_binomial(hits, replicas, seed)


def nonamenable_pipeline(g: Graph, lam: float, t_list, replicas: int,
                         seed: int, *, survival_radius: int | None = None,
                         spectral_nmax: int | None = None,
                         escape_radius: int = 3,
                         escape_horizon: int = 150,
                         amenable_cutoff: float = 0.995,
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
    if rho >= amenable_cutoff:
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
    esc = escape_probability(g, ball(g, g.origin, escape_radius),
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
