import json
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogsim import (FrogParams, GraphError, GraphSpec, NetConfig,
                     ParticleField, Stream,
                     abelian_invariance_check, annulus_blocking_probability,
                     ball, bernoulli_edge_coupling, build_graph,
                     edge_open_probability, escape_probability,
                     linear_growth_experiment, nonamenable_pipeline,
                     renormalization_experiment, write_report)
from frogsim import frogs
from frogsim.estimators import replica_survival
from frogsim.experiments import (_NET_NEIGHBORS, _CoordIndex, _site_open,
                                 block_open, good_vertex_decay)
from frogsim.stats import Estimate

from conftest import (SpliceField, read_all_arrows, reads_of,
                      spy_trajectories, spy_wave_arrows)


def test_edge_open_probability_closed_form():
    # independent evaluation of the two-sided first-jump product
    lam, t, delta = 2.0, 1.0, 3
    side = 1 - math.exp(-lam * (1 - math.exp(-t)) / delta)
    assert abs(edge_open_probability(delta, lam, t) - side * side) < 1e-14


def test_edge_open_probability_degenerate():
    assert edge_open_probability(3, 0.0, 1.0) == 0.0
    assert edge_open_probability(3, 2.0, 0.0) == 0.0


def test_bernoulli_edge_coupling_checks(tree8):
    rep = bernoulli_edge_coupling(tree8, FrogParams(2.0, 1.0), 0, 42,
                                  edge_trials=40_000, inclusion_seeds=3)
    assert rep.passed(), rep.checks
    assert rep.metrics["open_rate"].replicas >= 40_000


@pytest.mark.parametrize("replicas", [2, 7])
def test_edge_coupling_reads_each_vertex_once_per_replica(monkeypatch, tree8,
                                                          replicas):
    # the field stores nothing, so the coupling keeps each vertex's first
    # jumps; the inclusion check reuses the open edges of the replicas it
    # shares a field with and reads its other fields once too
    reads = []
    particles = ParticleField.particles

    def spy(field, x, params):
        reads.append((field.seed, x))
        return particles(field, x, params)

    monkeypatch.setattr(ParticleField, "particles", spy)
    rep = bernoulli_edge_coupling(tree8, FrogParams(2.0, 1.0), replicas, 9,
                                  inclusion_seeds=4)
    assert rep.metrics["open_rate"].replicas > 0
    assert len(reads) == len(set(reads)) > 0
    assert {seed for seed, _ in reads} == {
        Stream(9, "edges", r).key for r in range(max(replicas, 4))}


def test_bernoulli_coupling_rejects_directed(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("frogsim-graph v1 directed\n0 1 1\n1 0 1\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    with pytest.raises(GraphError):
        bernoulli_edge_coupling(g, FrogParams(1, 1), 0, 1)


def test_abelian_experiment(tree8):
    rep = abelian_invariance_check(tree8, FrogParams(1.0, 1.0), range(200))
    assert rep.checks["all_schedules_agree"]
    assert rep.metrics["mismatches"] == 0.0


def test_renormalization_experiment_small():
    net = NetConfig(a=8, net_extent=1)
    rep = renormalization_experiment(net, 4.0, 8, 77, decay_replicas=250)
    assert rep.checks["open_frequency_at_least_3_quarters"]
    assert rep.checks["decay_strictly_decreasing"]
    assert rep.checks["decay_log_slope_negative"]
    assert rep.metrics["net_sites"] == 5.0


def test_net_config_validation():
    with pytest.raises(GraphError):
        NetConfig(a=2, net_extent=1)
    with pytest.raises(GraphError):
        NetConfig(a=8, net_extent=0)
    cfg = NetConfig(a=9, net_extent=2)
    sites = cfg.net_sites()
    assert (0, 0) in sites and len(sites) == 13
    assert cfg.lifespan == 81.0


def test_block_openness_locality():
    """Openness of a net site depends only on particles in its small ball
    and the conquest targets: re-sampling everything else changes nothing."""
    net = NetConfig(a=8, net_extent=1)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius))
    idx = _CoordIndex(g)
    site = (0, 0)
    v = idx.vid(site)
    window = ball(g, v, net.a // 3)
    for ox, oy in ((1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (1, -1), (-1, 1), (-1, -1)):
        window |= ball(g, idx.vid((ox * net.a, oy * net.a)), net.a // 3)
    for seed in range(6):
        p1 = ParticleField(g, Stream(seed, "p1").key)
        p2 = ParticleField(g, Stream(seed, "p2").key)
        base = block_open(g, idx, net, [site], 4.0, p1, p2)
        # splice in a completely different field outside the dependency set
        other1 = ParticleField(g, Stream(seed, "noise1").key)
        other2 = ParticleField(g, Stream(seed, "noise2").key)
        spliced = block_open(g, idx, net, [site], 4.0,
                             SpliceField(window, p1, other1),
                             SpliceField(window, p2, other2))
        assert spliced == base


def test_linear_growth_experiment():
    rep = linear_growth_experiment(2, 240, FrogParams(2.0, 2.0), 200, 5,
                                   distances=(25, 50, 100))
    assert rep.checks["survival_nonincreasing_in_n"]
    assert rep.checks["blocking_probability_positive"]
    assert rep.metrics["survival_to_100"].mean <= rep.metrics["survival_to_25"].mean


@pytest.mark.parametrize("budget, censored", [(200, 4), (300, 2)])
def test_linear_growth_counts_each_censored_replica_once(budget, censored):
    # the radii share each replica's field and schedule: at budget 300, 2
    # of the 6 replicas are censored at radii 50 and 100 (the sum over
    # radii is 4); at 200, 3, 4 and 4 of them at radii 25, 50 and 100 (11)
    g = build_graph(GraphSpec("ladder", width=2, length=120))
    params, radii = FrogParams(3.0, 2.0), (25, 50, 100)
    rep = linear_growth_experiment(2, 120, params, 6, 3, distances=radii,
                                   particle_budget=budget)
    keys = [Stream(3, "survival", r).key for r in range(6)]
    assert rep.inputs["censored"] == censored == sum(
        None in [replica_survival(g, params, n, key, particle_budget=budget)
                 for n in radii] for key in keys)


def test_annulus_blocking_matches_generator_oracle():
    # independent oracle: kill the jump chain outside B(outer) and compute
    # survival with a dense matrix exponential of the killed generator
    import numpy as np
    from scipy.linalg import expm

    g = build_graph(GraphSpec("ladder", width=2, length=30))
    inner, outer, lam, t = 6, 10, 1.5, 2.0
    S = sorted(v for v in ball(g, 0, outer) if not g.boundary_mask[v])
    loc = {v: i for i, v in enumerate(S)}
    n = len(S)
    Q = np.zeros((n, n))
    for v in S:
        for u in g.out_neighbors(v):
            if int(u) in loc:
                Q[loc[v], loc[int(u)]] += 1.0 / g.degree(v)
    gen = Q - np.eye(n)
    surv = expm(gen * t) @ np.ones(n)
    total = sum(1.0 - surv[loc[v]] for v in S if g.dist[v] > inner)
    oracle = math.exp(-lam * total)
    val = annulus_blocking_probability(g, inner, outer, FrogParams(lam, t))
    assert abs(val - oracle) < 1e-8
    assert val > 0.0


def test_nonamenable_pipeline_tree(tree12):
    rep = nonamenable_pipeline(tree12, 1.0, [0.5, 4.0], 300, 8,
                               survival_radius=12)
    assert rep.checks["empirical_bracket_below_bound"]
    assert rep.checks["escape_probability_large"]
    assert rep.metrics["K_control"] == 1.0
    assert 0.9 < rep.metrics["rho_hat"] < 0.96


def test_nonamenable_pipeline_rejects_amenable(z2_box40):
    with pytest.raises(GraphError):
        nonamenable_pipeline(z2_box40, 1.0, [1.0], 10, 9)


def make_expander_file(tmp_path, n=400, seed=12345):
    """Deterministic random cubic graph: a Hamiltonian cycle plus a seeded
    perfect matching, resampled until simple. Near-Ramanujan with high
    probability, so the return-decay estimate sits well below one over a
    sub-mixing horizon."""
    rng = Stream(seed)
    for attempt in range(200):
        perm = list(range(n))
        rng.child(attempt).shuffle(perm)
        pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
        cycle = {(i, (i + 1) % n) for i in range(n)}
        cycle |= {(b, a) for a, b in cycle}
        if all(a != b and (a, b) not in cycle for a, b in pairs):
            break
    else:
        raise RuntimeError("no simple matching found")
    lines = ["frogsim-graph v1 undirected"]
    lines += [f"{i} {(i + 1) % n} 1.0" for i in range(n)]
    lines += [f"{a} {b} 1.0" for a, b in pairs]
    p = tmp_path / "expander.txt"
    p.write_text("\n".join(lines) + "\n")
    return build_graph(GraphSpec("weighted_file", path=str(p)))


def test_nonamenable_pipeline_accepts_expander_file(tmp_path):
    g = make_expander_file(tmp_path)
    assert not g.boundary_mask.any()
    # closed finite stand-in: keep the no-return horizon below the mixing
    # scale, after which every finite walk revisits any fixed set
    rep = nonamenable_pipeline(g, 1.0, [10.0], 200, 13, spectral_nmax=30,
                               escape_horizon=10)
    assert 0.8 < rep.metrics["rho_hat"] < 0.99
    assert rep.metrics[f"survival_t_10"].mean > 0.5
    assert rep.checks["empirical_bracket_below_bound"]


def test_escape_probability_tree(tree12):
    est = escape_probability(tree12, ball(tree12, 0, 3), 150, 2000, 10)
    # walk from the outer shell escapes with chance (2/3) * (1/2) = 1/3;
    # the shell carries 12 of the 22 ball vertices under uniform pi
    expect = (12 / 22) / 3
    assert abs(est.mean - expect) <= 3 * est.stderr + 0.01


@pytest.mark.parametrize("bad", [-1, 766, 2.5, True])
def test_escape_probability_rejects_bad_vertex_ids(tree8, bad):
    with pytest.raises(GraphError, match="invalid vertex"):
        escape_probability(tree8, [0, bad], 20, 10, 1)


def test_escape_probability_rejects_empty_set(tree8):
    with pytest.raises(GraphError, match="non-empty"):
        escape_probability(tree8, [], 20, 10, 1)


def test_report_serialization(tmp_path, tree8):
    rep = abelian_invariance_check(tree8, FrogParams(0.5, 0.5), range(20))
    jpath, cpath = write_report(rep, tmp_path)
    payload = json.loads(jpath.read_text())
    assert payload["experiment"] == "abelian"
    assert payload["passed"] is True
    header = cpath.read_text().splitlines()[0]
    assert header == "experiment,graph,lambda,t,n,replicas,seed,metric,mean,stderr"


# -- golden renormalization outputs ---------------------------------------
# float.hex of every metric (mean, stderr, replicas for estimates), recorded
# on the per-particle reveal before the arrows were built in batches.
# Key: (a, net_extent, lambda, decay_density, replicas, decay_replicas, seed).
GOLDEN_RENORM = {
    (8, 2, 4.0, 0.25, 1, 120, 1): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.a000000000000p+3",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x1.1111111111111p-6",
                                     "0x1.7ef164867fb8fp-7", 120),
        "p_no_good_vertex_size_4": ("0x1.8000000000000p-2",
                                    "0x1.6a09e667f3bcdp-5", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (8, 2, 4.0, 0.25, 1, 120, 2): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.a000000000000p+3",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x1.1111111111111p-6",
                                     "0x1.7ef164867fb8fp-7", 120),
        "p_no_good_vertex_size_4": ("0x1.a222222222222p-2",
                                    "0x1.6f930da6617b8p-5", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (8, 2, 4.0, 0.25, 1, 120, 3): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.a000000000000p+3",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x1.5555555555555p-5",
                                     "0x1.2adea9643c151p-6", 120),
        "p_no_good_vertex_size_4": ("0x1.2aaaaaaaaaaabp-2",
                                    "0x1.53e87b956e247p-5", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (9, 1, 4.0, 0.5, 1, 120, 1): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x0.0p+0", "0x0.0p+0", 120),
        "p_no_good_vertex_size_4": ("0x1.0000000000000p-3",
                                    "0x1.eea3950a8511ep-6", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (9, 1, 4.0, 0.5, 1, 120, 2): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x0.0p+0", "0x0.0p+0", 120),
        "p_no_good_vertex_size_4": ("0x1.6666666666666p-3",
                                    "0x1.1c260203a393ap-5", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (9, 1, 4.0, 0.5, 1, 120, 3): {
        "center_cluster_fraction": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.0000000000000p+0", "0x0.0p+0", 1),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.0000000000000p+0",
        "p_no_good_vertex_size_16": ("0x0.0p+0", "0x0.0p+0", 120),
        "p_no_good_vertex_size_4": ("0x1.0000000000000p-3",
                                    "0x1.eea3950a8511ep-6", 120),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 120),
    },
    (8, 1, 2.0, 0.25, 3, 60, 1): {
        "center_cluster_fraction": ("0x1.9999999999999p-1",
                                    "0x1.d8f7208e6b82ep-4", 3),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.9999999999999p-1", "0x1.d8f7208e6b82ep-4", 3),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.5555555555555p-2",
        "p_no_good_vertex_size_16": ("0x1.1111111111111p-6",
                                     "0x1.0ec813a58caffp-6", 60),
        "p_no_good_vertex_size_4": ("0x1.bbbbbbbbbbbbcp-2",
                                    "0x1.0608f1d892a8cp-4", 60),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 60),
    },
    (8, 1, 2.0, 0.25, 3, 60, 2): {
        "center_cluster_fraction": ("0x1.3333333333333p-1",
                                    "0x1.38d6509b0208ep-2", 3),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.7777777777778p-1", "0x1.693bb5fcff870p-3", 3),
        "open_frequency_site_max": "0x1.0000000000000p+0",
        "open_frequency_site_min": "0x1.5555555555555p-1",
        "p_no_good_vertex_size_16": ("0x1.1111111111111p-5",
                                     "0x1.7baf0cfe7d7ccp-6", 60),
        "p_no_good_vertex_size_4": ("0x1.eeeeeeeeeeeefp-2",
                                    "0x1.083fad2631ed9p-4", 60),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 60),
    },
    (8, 1, 2.0, 0.25, 3, 60, 3): {
        "center_cluster_fraction": ("0x1.1111111111111p-3",
                                    "0x1.1111111111112p-3", 3),
        "net_sites": "0x1.4000000000000p+2",
        "open_frequency": ("0x1.5555555555555p-2", "0x1.693bb5fcff871p-3", 3),
        "open_frequency_site_max": "0x1.5555555555555p-1",
        "open_frequency_site_min": "0x0.0p+0",
        "p_no_good_vertex_size_16": ("0x1.999999999999ap-5",
                                     "0x1.ccfd55cfb4683p-6", 60),
        "p_no_good_vertex_size_4": ("0x1.3333333333333p-2",
                                    "0x1.e4a52f7c75ef2p-5", 60),
        "p_no_good_vertex_size_64": ("0x0.0p+0", "0x0.0p+0", 60),
    },
}

# good_vertex_decay on a Z^2 box of radius 24 around the origin, a = 8,
# sizes (4, 16, 64), 40 replicas, seed 11: {size: (mean, stderr) hex}
GOLDEN_DECAY = {
    0.0: {4: ("0x1.0000000000000p+0", "0x0.0p+0"),
          16: ("0x1.0000000000000p+0", "0x0.0p+0"),
          64: ("0x1.0000000000000p+0", "0x0.0p+0")},
    2.0: {4: ("0x1.999999999999ap-6", "0x1.9472957f2765bp-6"),
          16: ("0x0.0p+0", "0x0.0p+0"),
          64: ("0x0.0p+0", "0x0.0p+0")},
}


def _hex(v):
    if isinstance(v, Estimate):
        return (v.mean.hex(), v.stderr.hex(), v.replicas)
    return float(v).hex()


@pytest.mark.parametrize("case", sorted(GOLDEN_RENORM))
def test_renormalization_golden(case):
    a, extent, lam, density, replicas, decay_replicas, seed = case
    rep = renormalization_experiment(NetConfig(a=a, net_extent=extent), lam,
                                     replicas, seed, decay_density=density,
                                     decay_replicas=decay_replicas)
    assert {k: _hex(v) for k, v in rep.metrics.items()} == GOLDEN_RENORM[case]


@pytest.mark.parametrize("density", sorted(GOLDEN_DECAY))
def test_good_vertex_decay_golden(density):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=24))
    decay = good_vertex_decay(g, g.origin, 8, density, (4, 16, 64), 40, 11)
    assert {k: (e.mean.hex(), e.stderr.hex()) for k, e in decay.items()} \
        == GOLDEN_DECAY[density]
    assert all(e.replicas == 40 for e in decay.values())


def nested_decay_fails(g, center, a, density, sizes, replicas, seed):
    """good_vertex_decay's failure counts as the nested loop computed them:
    every size re-tries the candidates of the smaller sizes."""
    B = ball(g, center, a)
    order = sorted(B, key=lambda v: (int(g.dist[v]), v))
    quota = len(B) / 4.0
    need = math.ceil(quota)
    fails = {k: 0 for k in sizes}
    fields = [ParticleField(g, Stream(seed, "decay", r).key)
              for r in range(replicas)]
    params = FrogParams(density, float(a * a))
    for arrows in read_all_arrows(g, B, fields, params):
        good_found = set()
        for k in sorted(sizes):
            ok = any(x in good_found for x in order[:k])
            if not ok:
                for x in order[:k]:
                    reach = frogs._reach({x}, arrows.__getitem__,
                                         lambda r: len(r) >= need)
                    if len(reach) >= quota:
                        good_found.add(x)
                        ok = True
                        break
            if not ok:
                fails[k] += 1
    return fails


def test_good_vertex_decay_scan_matches_nested_loop():
    # |B| = 61 for a = 5; 64 and 100 lie above it, and 0 fails every field
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    a, replicas, seed = 5, 60, 13
    seen = set()
    for density in (0.1, 0.3, 0.6):
        for sizes in ((64, 4, 16), (0, 4), (2, 100, 9)):
            ref = nested_decay_fails(g, g.origin, a, density, sizes,
                                     replicas, seed)
            got = good_vertex_decay(g, g.origin, a, density, sizes,
                                    replicas, seed)
            assert list(got) == list(sizes)
            assert {k: round(e.mean * replicas) for k, e in got.items()} \
                == ref
            seen |= set(ref.values())
    # the cases hold all-fail, none-fail and in-between sizes
    assert 0 in seen and replicas in seen and len(seen) > 3



@pytest.mark.parametrize("cap", [1, 7, None])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.6, 2.0])
def test_good_vertex_decay_waves_match_nested_loop(monkeypatch, density, cap):
    # one field in flight, blocks of 7 fields (the last one short), and
    # every field in one block
    if cap is not None:
        monkeypatch.setattr(frogs, "_SCAN_FIELDS", cap)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    a, replicas, seed, sizes = 5, 30, 17, (1, 4, 16, 64)
    ref = nested_decay_fails(g, g.origin, a, density, sizes, replicas, seed)
    got = good_vertex_decay(g, g.origin, a, density, sizes, replicas, seed)
    assert {k: round(e.mean * replicas) for k, e in got.items()} == ref


def scan_reads(g, center, a, density, sizes, replicas, seed):
    """The (field seed, vertex) pairs with particles whose arrows the
    nested loop's scan reads, up to each field's first good candidate,
    and the walks at those pairs."""
    B = ball(g, center, a)
    order = sorted(B, key=lambda v: (int(g.dist[v]), v))
    need = math.ceil(len(B) / 4.0)
    params = FrogParams(density, float(a * a))
    fields = [ParticleField(g, Stream(seed, "decay", r).key)
              for r in range(replicas)]
    pairs, walks = set(), 0
    for fld, arrows in zip(fields, read_all_arrows(g, B, fields, params)):
        read = set()

        def out(x):
            read.add(x)
            return sorted(arrows[x])

        for x in order[:max(sizes)]:
            if len(frogs._reach({x}, out, lambda r: len(r) >= need)) >= need:
                break
        for x in read:
            eta = fld.count_at(x, density)
            if eta:
                pairs.add((fld.seed, x))
                walks += eta
    return pairs, walks


@pytest.mark.parametrize("density", [0.25, 0.6, 2.0])
def test_good_vertex_decay_reveals_only_what_its_scans_read(monkeypatch,
                                                            density):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    a, replicas, seed, sizes = 5, 40, 23, (4, 16, 64)
    want, want_walks = scan_reads(g, g.origin, a, density, sizes, replicas,
                                  seed)
    monkeypatch.setattr(frogs, "_SCAN_FIELDS", 9)
    spied = spy_wave_arrows(monkeypatch)
    good_vertex_decay(g, g.origin, a, density, sizes, replicas, seed)
    revealed = [(seed, x) for seed, x, _ in spied]
    walks = sum(eta for _, _, eta in spied)
    assert len(revealed) == len(set(revealed))     # no pair twice
    assert set(revealed) == want and walks == want_walks > 0


def test_good_vertex_decay_input_checks():
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    for replicas in (0, -3):
        with pytest.raises(ValueError, match="replicas"):
            good_vertex_decay(g, g.origin, 5, 0.5, (4,), replicas, 1)
    with pytest.raises(ValueError, match="sizes"):
        good_vertex_decay(g, g.origin, 5, 0.5, (4, -1), 10, 1)
    # size 0 is the empty candidate set, which every field fails
    assert good_vertex_decay(g, g.origin, 5, 0.5, (0,), 10, 1)[0].mean == 1.0


@pytest.mark.parametrize("a", [12, 20])
def test_good_vertex_decay_rejects_a_ball_on_the_frontier(a):
    # the radius-12 box's frontier is the sphere of radius 12
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    with pytest.raises(GraphError, match="frontier"):
        good_vertex_decay(g, g.origin, a, 0.5, (4,), 10, 1)
    with pytest.raises(GraphError, match="frontier"):
        good_vertex_decay(g, 1, 11, 0.5, (4,), 10, 1)
    assert good_vertex_decay(g, g.origin, 11, 0.5, (4,), 10, 1)[4].replicas \
        == 10


# Recorded on the cascade loop that block_open ran before it moved onto
# frogs._reach: one replica of the renormalization fields (seed 1; a = 8,
# net_extent = 2). Per net site in order: (open, the distinct phase2
# particles read by then). The count is of the second-wave particles that
# the lazy cascade (lazy_block_open) reveals.
GOLDEN_BLOCK_OPEN = {
    (4.0, 0): [(True, 160), (True, 230), (True, 245), (True, 292),
               (True, 439), (True, 470), (True, 503), (True, 560),
               (True, 655), (True, 680), (True, 717), (True, 735),
               (True, 840)],
    (4.0, 1): [(True, 122), (True, 188), (True, 274), (True, 316),
               (True, 448), (True, 470), (True, 490), (True, 533),
               (True, 593), (True, 635), (True, 679), (True, 717),
               (True, 777)],
    (2.0, 0): [(True, 94), (True, 145), (True, 157), (True, 185),
               (True, 256), (False, 274), (True, 297), (True, 317),
               (True, 365), (False, 398), (True, 415), (True, 432),
               (False, 470)],
}

def lazy_block_open(idx, net, site, lam, phase1, phase2):
    """block_open for one site with both waves read one particle at a
    time through field.particles: the reference. The second wave is the
    lazy cascade, frogs._reach over phase2's particles restricted to the
    window, revealing a vertex's particles when the reach pops it."""
    half = FrogParams(lam / 2.0, net.lifespan)
    r = net.a // 3
    B = idx.ball(site, r)
    inner = {}
    for x in B:
        _, trajs = phase1.particles(x, half)
        # filled in ascending order, as block_open's arrows are
        inner[x] = {y for y in sorted({v for tr in trajs for v in tr.jumps})
                    if y in B and y != x}
    goods = []
    for x in sorted(B):
        reached = frogs._reach({x}, inner.__getitem__)
        if len(reached) >= len(B) / 4.0:
            goods.append((len(reached), x, reached))
    goods.sort(key=lambda item: (-item[0], item[1]))
    bhat = set()
    for ox, oy in _NET_NEIGHBORS:
        bhat |= idx.ball((site[0] + ox * net.a, site[1] + oy * net.a), r)
    window = B | bhat

    def out(x):
        _, trajs = phase2.particles(x, half)
        return (v for tr in trajs for v in tr.jumps if v in window)

    return any(bhat.issubset(frogs._reach(set(reached), out, bhat.issubset))
               for _, _, reached in goods)


@pytest.mark.parametrize("lam,rep", sorted(GOLDEN_BLOCK_OPEN))
def test_block_open_golden(monkeypatch, lam, rep):
    net = NetConfig(a=8, net_extent=2)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius))
    idx = _CoordIndex(g)
    sites = net.net_sites()
    read = spy_trajectories(monkeypatch)

    def fields():
        read.clear()
        return (ParticleField(g, Stream(1, "phase1", rep).key),
                ParticleField(g, Stream(1, "phase2", rep).key))

    q1, q2 = fields()
    want = [(lazy_block_open(idx, net, s, lam, q1, q2), reads_of(read, q2))
            for s in sites]
    assert want == GOLDEN_BLOCK_OPEN[(lam, rep)]
    p1, p2 = fields()
    got = [block_open(g, idx, net, [s], lam, p1, p2)[s] for s in sites]
    assert got == [opened for opened, _ in want]
    assert reads_of(read, p2) == 0    # every second wave is one arrow pass
    p1, p2 = fields()
    assert list(block_open(g, idx, net, sites, lam, p1, p2).values()) == got
    assert not read


def replica_block_open(g, idx, net, lam, p1, p2, per_site):
    """block_open over every net site: one call, or one call a site."""
    sites = net.net_sites()
    if not per_site:
        return block_open(g, idx, net, sites, lam, p1, p2)
    return {s: block_open(g, idx, net, [s], lam, p1, p2)[s] for s in sites}


@pytest.mark.parametrize("a,extent", [(6, 1), (6, 2), (8, 1), (8, 2)])
def test_block_open_replica_call_equals_site_calls(monkeypatch, a, extent):
    # one pass per wave over every site opens the same sites as a call
    # per site and as the lazy reference; no second-wave particle is
    # read one at a time
    net = NetConfig(a=a, net_extent=extent)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius))
    idx = _CoordIndex(g)
    sites = net.net_sites()
    opened = set()
    read = spy_trajectories(monkeypatch)

    def fields():
        read.clear()
        return (ParticleField(g, Stream(a, "phase1", extent).key),
                ParticleField(g, Stream(a, "phase2", extent).key))

    for lam in (1.0, 2.0, 4.0):
        runs = []
        for per_site in (False, True):
            p1, p2 = fields()
            state = replica_block_open(g, idx, net, lam, p1, p2, per_site)
            assert list(state) == sites
            assert reads_of(read, p2) == 0
            assert per_site or reads_of(read, p1) == 0
            runs.append(state)
        q1, q2 = fields()
        assert runs[0] == runs[1] == {
            s: lazy_block_open(idx, net, s, lam, q1, q2) for s in sites}
        opened |= set(runs[0].values())
    assert opened == {False, True}


@pytest.fixture(scope="module")
def net_boxes():
    """NetConfig(a, net_extent=1), its Z^2 box and the box's _CoordIndex
    for an a, built once."""
    built = {}

    def get(a):
        if a not in built:
            net = NetConfig(a=a, net_extent=1)
            g = build_graph(GraphSpec("lattice_box", d=2,
                                      radius=net.box_radius))
            built[a] = net, g, _CoordIndex(g)
        return built[a]

    return get


@pytest.mark.parametrize("batch", [True, False])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.sampled_from([3, 4, 5]), lam=st.integers(0, 600),
       seed=st.integers(0, 2**16))
def test_block_open_equals_lazy_reference_on_z2(net_boxes, batch, a, lam,
                                                seed):
    # lambda on a grid of 0.01 over [0, 6]; every wave read in lockstep
    # passes, or one walk at a time
    lam = lam / 100
    net, g, idx = net_boxes(a)
    sites = net.net_sites()
    p1 = ParticleField(g, Stream(seed, "phase1").key)
    p2 = ParticleField(g, Stream(seed, "phase2").key)
    with mock.patch.object(frogs, "_STAY_BATCH_WALKS",
                           0 if batch else math.inf):
        got = block_open(g, idx, net, sites, lam, p1, p2)
    assert got == {s: lazy_block_open(idx, net, s, lam, p1, p2)
                   for s in sites}


def test_block_open_replica_call_equals_site_calls_on_splice(monkeypatch):
    net = NetConfig(a=8, net_extent=1)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius))
    idx = _CoordIndex(g)
    sites = net.net_sites()
    inner = ball(g, g.origin, 10)
    read = spy_trajectories(monkeypatch)

    def fields():
        read.clear()
        p = {s: ParticleField(g, Stream(3, "splice", s).key) for s in range(4)}
        return p, SpliceField(inner, p[0], p[1]), SpliceField(inner, p[2], p[3])

    runs = []
    for per_site in (False, True):
        p, p1, p2 = fields()
        runs.append(replica_block_open(g, idx, net, 2.0, p1, p2, per_site))
        assert reads_of(read, p[2]) == reads_of(read, p[3]) == 0
        assert per_site or reads_of(read, p[0]) == reads_of(read, p[1]) == 0
    q, q1, q2 = fields()
    assert runs[0] == runs[1] == {
        s: lazy_block_open(idx, net, s, 2.0, q1, q2) for s in sites}
    # the lazy second wave reads particles on both sides of the splice
    assert reads_of(read, q[2]) > 0 and reads_of(read, q[3]) > 0


def reference_site_open(B, bhat, first, second):
    """block_open's decision for one site as sets and frogs._reach, from
    each wave's arrows as {x: the ascending vertices x points to} over
    supersets of B and of B | bhat: the reference for the bitmask
    decision."""
    inner = {x: {y for y in first.get(x, ()) if y in B} for x in B}
    goods = []
    for x in sorted(B):
        reached = frogs._reach({x}, inner.__getitem__)
        if len(reached) >= len(B) / 4.0:
            goods.append((len(reached), x, reached))
    goods.sort(key=lambda item: (-item[0], item[1]))
    window = B | bhat

    def out(x):
        return (y for y in second.get(x, ()) if y in window)

    return any(bhat.issubset(frogs._reach(set(reached), out, bhat.issubset))
               for _, _, reached in goods)


def bitmask_site_open(B, bhat, first, second):
    """_site_open on the same arguments, each vertex its own column."""
    def bits(vs):
        return sum(1 << v for v in set(vs))

    width = 1 + max([*B, *bhat, *first, *second,
                     *(y for arrows in (first, second)
                       for ys in arrows.values() for y in ys)])
    return _site_open(bits(B), bits(bhat),
                      [bits(first.get(c, ())) for c in range(width)],
                      [bits(second.get(c, ())) for c in range(width)])


SITE_CASES = [
    # no good vertex: every reach in B is its start alone, under a quarter
    (set(range(8)), {20, 21}, {}, {x: [20, 21] for x in range(8)}, False),
    # empty arrow lists: singletons are good in a ball of 4, and none wakes
    # bhat
    ({0, 1, 2, 3}, {10}, {x: [] for x in range(4)},
     {x: [] for x in (0, 1, 2, 3, 10)}, False),
    # the first good vertex (the largest reach, {0, 1}) misses bhat, and a
    # later one, 3, conquers it
    ({0, 1, 2, 3}, {10, 11}, {0: [1], 1: [0]},
     {0: [2], 3: [10], 10: [11]}, True),
    # a reach inside a failed closure ({2} in {0, 1, 2}) fails as well,
    # and a later one conquers bhat
    ({0, 1, 2, 3}, {10, 11}, {0: [1], 1: [0]},
     {0: [2], 3: [10, 11]}, True),
    # bhat vertices with no particles: 5 is reached directly, 6 only
    # through 5, which points nowhere
    ({0, 1}, {5, 6}, {}, {0: [5, 6]}, True),
    ({0, 1}, {5, 6}, {}, {0: [5], 1: [5]}, False),
    ({0, 1}, {5, 6}, {}, {0: [5], 5: [6]}, True),
    # arrows off the window do not carry the closure
    ({0, 1}, {5}, {}, {0: [9], 9: [5]}, False),
    # first-wave arrows off B do not count toward the quarter
    (set(range(8)), {9}, {0: [1, 20, 21, 22]}, {0: [9]}, True),
    (set(range(8)), {9}, {0: [20, 21, 22]}, {0: [9]}, False),
]


@pytest.mark.parametrize("B,bhat,first,second,opened", SITE_CASES)
def test_site_open_hand_built(B, bhat, first, second, opened):
    assert reference_site_open(B, bhat, first, second) == opened
    assert bitmask_site_open(B, bhat, first, second) == opened


def test_site_open_equals_set_reference_on_random_arrows():
    # random balls and arrows over a few more vertices than B | bhat, some
    # vertices without particles (no entry) and some with empty lists
    opened = set()
    for seed in range(400):
        rnd = random.Random(seed)
        n = rnd.randint(1, 24)
        universe = list(range(n + rnd.randint(0, 6)))
        B = set(rnd.sample(universe[:n], rnd.randint(1, n)))
        bhat = set(rnd.sample(universe, rnd.randint(1, len(universe)))) - B
        if not bhat:
            continue
        density = rnd.choice((0.05, 0.15, 0.4))

        def arrows(xs):
            return {x: sorted(y for y in universe if y != x
                              and rnd.random() < density)
                    for x in xs if rnd.random() < 0.8}

        first, second = arrows(B), arrows(universe)
        want = reference_site_open(B, bhat, first, second)
        assert bitmask_site_open(B, bhat, first, second) == want, seed
        opened.add(want)
    assert opened == {False, True}


def test_block_open_replica_memory():
    # one replica of renorm_z2's block_open (lambda = 4, a = 8,
    # net_extent = 2, seed 1), after a warm call that fills the ball cache:
    # a tracemalloc peak of 1.21-1.30 MB while both waves' arrows were
    # lists, and 0.93-0.94 MB with bitmask arrows and the pass's byte mask
    net = NetConfig(a=8, net_extent=2)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=net.box_radius))
    idx = _CoordIndex(g)
    sites = net.net_sites()
    p1 = ParticleField(g, Stream(1, "phase1", 0).key)
    p2 = ParticleField(g, Stream(1, "phase2", 0).key)
    want = block_open(g, idx, net, sites, 4.0, p1, p2)
    tracemalloc.start()
    try:
        got = block_open(g, idx, net, sites, 4.0, p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and all(got.values())
    assert peak < 1.1e6


@pytest.mark.parametrize("box_radius", [25, 26])
def test_block_open_windows_must_avoid_the_frontier(box_radius):
    # a = 8, net_extent = 1: the small balls reach l1 radius 10 and the
    # outer sites' neighboring balls l1 radius 26, on or past the
    # frontier (the default box radius is 28)
    net = NetConfig(a=8, net_extent=1, box_radius=box_radius)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=box_radius))
    idx = _CoordIndex(g)
    p1, p2 = ParticleField(g, 1), ParticleField(g, 2)
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        block_open(g, idx, net, net.net_sites(), 2.0, p1, p2)
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        block_open(g, idx, net, [(8, 0)], 2.0, p1, p2)
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        renormalization_experiment(net, 2.0, 1, 1, decay_replicas=5)
    # the centre site's window reaches l1 radius 18
    assert block_open(g, idx, net, [(0, 0)], 2.0, p1, p2) == {(0, 0): True}
