import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogsim import (FrogParams, GraphError, GraphSpec, ParticleField,
                     SpliceField, Stream, arrow_closure, ball, build_graph,
                     ep_exploration_sample, exit_conditional_jumps,
                     explore_cluster, from_samples, good_set_G_A,
                     good_vertices, restricted_activation,
                     sphere_activation_profile)
from frogsim import frogs
from frogsim.rng import derive_keys
from frogsim.walks import walk_batch

from conftest import read_all_arrows


def make_out_tree(tmp_path, degree=3, depth=5):
    lines = ["frogsim-graph v1 directed"]
    nxt = 1
    frontier = [0]
    for _ in range(depth):
        new = []
        for v in frontier:
            for _ in range(degree):
                lines.append(f"{v} {nxt} 1.0")
                new.append(nxt)
                nxt += 1
        frontier = new
    p = tmp_path / "out_tree.txt"
    p.write_text("\n".join(lines) + "\n")
    return build_graph(GraphSpec("weighted_file", path=str(p)))


def test_params_validation():
    with pytest.raises(ValueError):
        FrogParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        FrogParams(1.0, math.inf)


def test_field_requery_identical(tree8):
    fld = ParticleField(tree8, 99)
    p = FrogParams(1.3, 0.9)
    assert fld.particles(5, p) == fld.particles(5, p)
    # an independent instance with the same seed replays identically
    fld2 = ParticleField(tree8, 99)
    assert fld.particles(5, p) == fld2.particles(5, p)


def test_field_poisson_counts(tree8):
    fld = ParticleField(tree8, 4)
    lam = 2.0
    counts = [fld.count_at(x, lam) for x in range(4000)]
    mean = sum(counts) / len(counts)
    assert abs(mean - lam) < 3 * math.sqrt(lam / len(counts))


def test_cluster_trivial_cases(tree8):
    assert explore_cluster(tree8, FrogParams(0.0, 1.0),
                           ParticleField(tree8, 1)).activated == {0}
    cl = explore_cluster(tree8, FrogParams(1.0, 0.0), ParticleField(tree8, 1))
    assert cl.activated == {0} and cl.stop_reason == "exhausted"


def test_cluster_subcritical_rarely_reaches_radius(tree12):
    # lam t = 0.5: certain extinction, radius-12 hits should be absent
    hits = 0
    for seed in range(500):
        cl = explore_cluster(tree12, FrogParams(0.5, 1.0),
                             ParticleField(tree12, seed), radius=12)
        hits += cl.stop_reason == "radius_reached"
    assert hits <= 2


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_abelian_schedule_invariance(tree8, seed):
    params = FrogParams(1.0, 1.0)
    sets = []
    for sched in ("fifo", "lifo", "random"):
        cl = explore_cluster(tree8, params, ParticleField(tree8, seed),
                             schedule=sched, rng=Stream(seed, sched))
        sets.append(cl.activated)
    assert sets[0] == sets[1] == sets[2]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_monotone_coupling_in_both_parameters(z2_box20, seed):
    small = explore_cluster(z2_box20, FrogParams(0.6, 0.7),
                            ParticleField(z2_box20, seed))
    big = explore_cluster(z2_box20, FrogParams(0.9, 1.2),
                          ParticleField(z2_box20, seed))
    assert small.activated <= big.activated


def test_total_particles_counts_activated_vertices(tree8):
    params = FrogParams(1.5, 1.0)
    fld = ParticleField(tree8, 31)
    cl = explore_cluster(tree8, params, fld)
    assert cl.total_particles == sum(fld.count_at(v, 1.5) for v in cl.activated)


def test_particle_budget_stop(tree12):
    cl = explore_cluster(tree12, FrogParams(3.0, 3.0),
                         ParticleField(tree12, 11), particle_budget=10)
    assert cl.stop_reason == "particle_budget"


def test_activated_mass_tail_decays_exponentially(tree8):
    # subcritical regime: the total number of woken particles has an
    # exponential moment, visible as log-linear tail decay
    import numpy as np

    totals = []
    for seed in range(3000):
        cl = explore_cluster(tree8, FrogParams(0.5, 1.0),
                             ParticleField(tree8, seed))
        totals.append(cl.total_particles)
    kmax = 25
    counts = np.bincount(np.minimum(totals, kmax), minlength=kmax + 1)
    tail = np.cumsum(counts[::-1])[::-1] / len(totals)
    ks = [k for k in range(1, kmax) if tail[k] >= 10 / len(totals)]
    slope = np.polyfit(ks, np.log(tail[ks]), 1)[0]
    assert slope < -0.1


# -- restricted activation ----------------------------------------------


def test_harpoon_reflexive_and_zero_density(tree8):
    S = ball(tree8, 0, 2)
    ra = restricted_activation(tree8, S, FrogParams(0.0, 1.0),
                               ParticleField(tree8, 3))
    assert ra.harpoon[0] is True
    assert sum(ra.harpoon.values()) == 1 and ra.exiters == 0


def test_harpoon_subset_of_cluster(tree8):
    params = FrogParams(1.0, 1.0)
    S = ball(tree8, 0, 2)
    for seed in range(100):
        ra = restricted_activation(tree8, S, params, ParticleField(tree8, seed))
        cl = explore_cluster(tree8, params, ParticleField(tree8, seed))
        assert {x for x, h in ra.harpoon.items() if h} <= cl.activated


def test_singleton_window_exiters(z2_box20):
    # every particle at the origin that jumps at all leaves S = {0}
    params = FrogParams(2.0, 1.0)
    vals = []
    for seed in range(4000):
        fld = ParticleField(z2_box20, seed)
        ra = restricted_activation(z2_box20, {0}, params, fld)
        vals.append(ra.exiters)
    est = from_samples(vals, 0)
    expect = params.lam * (1 - math.exp(-params.t))
    assert abs(est.mean - expect) <= 3 * est.stderr


@pytest.mark.parametrize("call", [
    lambda g, w: restricted_activation(g, w, FrogParams(1, 1),
                                       ParticleField(g, 0)),
    lambda g, w: sphere_activation_profile(g, w, FrogParams(1, 1), 2,
                                           Stream(0)),
    lambda g, w: exit_conditional_jumps(g, w, 0, 1.0, 5, Stream(0)),
    lambda g, w: arrow_closure(g, w, 0, FrogParams(1, 1),
                               ParticleField(g, 0)),
    lambda g, w: good_vertices(g, w, FrogParams(1, 1), Stream(0)),
    lambda g, w: good_set_G_A(g, w, 1.0, 0.1, 3, 0, rho=0.5, K=1.0),
])
def test_vertex_sets_reject_non_integer_ids(tree8, call):
    # int() used to truncate 2.5 to the vertex 2 without a word
    for v in (2.5, 2.0, True, "2"):
        with pytest.raises(GraphError, match="invalid vertex"):
            call(tree8, [0, 1, v])


# Recorded on the stack loop that _stay_closure ran before it moved onto
# frogs._reach: S = ball(origin, 3), field seeds 1, 2, 3; per reached
# vertex x, (x, stay_sets[x], exit_counts[x]).
GOLDEN_STAY_CLOSURE = {
    "z2": [  # Z^2 box of radius 20, (lambda, t) = (2, 1.5)
        [(0, (0, 1, 2, 3), 0), (3, (0, 1), 0), (4, (0, 1, 2), 0),
         (9, (0, 1, 2), 1), (10, (0,), 0), (11, (0, 1, 2, 3), 1),
         (19, (0,), 1), (21, (0, 1), 0)],
        [(0, (0, 1, 2), 0), (1, (0,), 0), (2, (1, 2), 1), (3, (0,), 1),
         (5, (0,), 0), (6, (0,), 0), (7, (0,), 0), (8, (0, 1), 0),
         (9, (), 0), (10, (1, 2, 3), 1), (11, (0,), 0), (14, (0, 1), 1),
         (15, (0, 1, 2, 3), 0), (16, (), 0), (21, (1,), 1), (23, (), 1)],
        [(0, (0,), 0), (3, (0, 1), 0), (4, (), 1), (9, (), 0),
         (11, (0, 1, 2), 0), (21, (), 0)]],
    "tree8": [  # (lambda, t) = (1.5, 1)
        [(0, (0, 1, 2), 0), (2, (0,), 0), (3, (0,), 0), (7, (0, 1), 0),
         (9, (1, 2), 2), (17, (), 0)],
        [(0, (0, 1), 0), (2, (0, 1), 0), (3, (0,), 0), (7, (0,), 0),
         (8, (0,), 0), (16, (), 0)],
        [(0, (), 0)]],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STAY_CLOSURE))
def test_stay_closure_golden(name, z2_box20, tree8):
    g, params = {"z2": (z2_box20, FrogParams(2.0, 1.5)),
                 "tree8": (tree8, FrogParams(1.5, 1.0))}[name]
    S = ball(g, g.origin, 3)
    got = frogs._stay_closure(g, S, g.origin, params,
                              [ParticleField(g, seed) for seed in (1, 2, 3)])
    assert len(got) == 3
    for (reached, stay, exits), want in zip(got, GOLDEN_STAY_CLOSURE[name]):
        assert set(stay) == set(exits) == reached
        assert [(x, stay[x], exits[x]) for x in sorted(reached)] == want


def reference_stay_closure(g, S, start, params, field):
    """_stay_closure's triple for one field, revealing each vertex's
    particles through field.particles as the closure pops it."""
    stay_sets, exit_counts = {}, {}

    def out(x):
        eta, trajs = field.particles(x, params)
        stay = tuple(i for i, tr in enumerate(trajs) if tr.visited <= S)
        stay_sets[x] = stay
        exit_counts[x] = eta - len(stay)
        return (v for i in stay for v in trajs[i].jumps)

    return frogs._reach({start}, out), stay_sets, exit_counts


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("lam,t", [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0)])
@pytest.mark.parametrize("window", ["z2-3", "z2-5", "tree8-3", "z2-3-off"])
def test_stay_closure_equals_per_field_path(monkeypatch, z2_box20, tree8,
                                            window, lam, t, batch):
    # every wave batched, or every wave read through field.particles
    monkeypatch.setattr(frogs, "_STAY_BATCH_WALKS", 0 if batch else math.inf)
    name, radius, *off = window.split("-")
    g = z2_box20 if name == "z2" else tree8
    S = ball(g, g.origin, int(radius))
    # "off": start at a vertex on the window's edge
    start = max(S, key=lambda v: (g.dist[v], v)) if off else g.origin
    params = FrogParams(lam, t)
    fields = [ParticleField(g, s) for s in range(300)]
    fields += [ParticleField(g, -7), ParticleField(g, 2**70 + 3)]
    got = frogs._stay_closure(g, S, start, params, fields)
    assert len(got) == len(fields)
    for (reached, stay, exits), fld in zip(got, fields):
        want = reference_stay_closure(g, S, start, params,
                                      ParticleField(g, fld.seed))
        assert list(reached) == list(want[0])
        assert stay == want[1] and exits == want[2]


@pytest.mark.parametrize("batch", [True, False])
def test_stay_closure_splices_zero_density_and_outside_start(
        monkeypatch, z2_box20, batch):
    monkeypatch.setattr(frogs, "_STAY_BATCH_WALKS", 0 if batch else math.inf)
    g = z2_box20
    S = ball(g, g.origin, 4)
    core = ball(g, g.origin, 1)
    p = [ParticleField(g, s) for s in range(40, 46)]
    fields = [SpliceField(core, p[0], p[1]), p[2],
              SpliceField(S, SpliceField(core, p[3], p[4]), p[5])] * 30
    params = FrogParams(2.0, 1.5)
    for start in (g.origin, max(S) + 1):        # the second lies outside S
        assert start == g.origin or start not in S
        got = frogs._stay_closure(g, S, start, params, fields)
        for (reached, stay, exits), fld in zip(got, fields):
            want = reference_stay_closure(g, S, start, params, fld)
            assert list(reached) == list(want[0])
            assert stay == want[1] and exits == want[2]
    got = frogs._stay_closure(g, S, g.origin, FrogParams(0.0, 1.0), fields)
    assert got == [({g.origin}, {g.origin: ()}, {g.origin: 0})] * len(fields)


def test_replica_closures_blocks(monkeypatch, tree8):
    S = ball(tree8, 0, 3)
    params = FrogParams(1.5, 1.0)
    whole = list(frogs._replica_closures(tree8, S, params, 5, "phi", 70))
    monkeypatch.setattr(frogs, "_CLOSURE_FIELDS", 16)
    assert list(frogs._replica_closures(tree8, S, params, 5, "phi", 70)) \
        == whole
    for r in (0, 33, 69):
        want = reference_stay_closure(tree8, S, 0, params, ParticleField(
            tree8, Stream(5, "phi", r).key))
        assert list(whole[r][0]) == list(want[0])
        assert whole[r][1:] == want[1:]


# -- good vertices -------------------------------------------------------


def test_good_vertices_singleton(z2_box20):
    assert good_vertices(z2_box20, {5}, FrogParams(0.0, 1.0), Stream(1)) == {5}


def test_good_vertices_zero_density_empty(z2_box20):
    B = ball(z2_box20, 0, 2)
    assert len(B) >= 5
    assert good_vertices(z2_box20, B, FrogParams(0.0, 64.0), Stream(2)) == set()


def test_good_vertices_exist_in_active_regime():
    g = build_graph(GraphSpec("lattice_box", d=2, radius=24))
    B = ball(g, 0, 8)
    found = 0
    trials = 50
    for s in range(trials):
        found += bool(good_vertices(g, B, FrogParams(1.0, 64.0),
                                    Stream(60, s)))
    assert found >= 0.9 * trials


def test_arrow_closure_reflexive_and_contained(z2_box20):
    B = ball(z2_box20, 0, 3)
    fld = ParticleField(z2_box20, 8)
    A = arrow_closure(z2_box20, B, 0, FrogParams(1.0, 1.0), fld)
    assert 0 in A and A <= B


# Recorded on the per-particle arrow loop, before the arrows were built in
# batches: Z^2 box of radius 24.
GOLDEN_GOOD_VERTICES = {
    # B = ball(0, 8), (lambda, t) = (1, 64), rng Stream(60, s): the first
    # good vertex, [min(good)]
    "stop1": [[0], [0], [1], [0], [0]],
    # B = ball(0, 3), (lambda, t) = (0.5, 6), rng Stream(61, s)
    "all": [[2, 23], [22], [2, 6, 14, 17, 22], [0, 7, 8, 9, 14],
            [4, 10, 13, 19, 21, 22]],
}
# arrow_closure from every x of ball(0, 3), field seed 8, (lambda, t) = (1, 1)
GOLDEN_ARROW_CLOSURE = [
    [0], [0, 1, 2, 4, 8, 10, 22], [2], [3], [2, 4, 8, 10, 22], [5, 14],
    [0, 1, 2, 4, 6, 8, 10, 22], [0, 1, 2, 4, 7, 8, 10, 17, 22], [8], [9],
    [2, 8, 10, 22], [11], [12], [5, 13, 14], [14], [15], [16], [17], [18],
    [19], [8, 20], [21], [22], [23], [12, 24]]


def test_good_vertices_and_arrow_closure_golden():
    g = build_graph(GraphSpec("lattice_box", d=2, radius=24))
    B8, B3 = ball(g, 0, 8), ball(g, 0, 3)
    assert [[min(good_vertices(g, B8, FrogParams(1.0, 64.0), Stream(60, s)))]
            for s in range(5)] == GOLDEN_GOOD_VERTICES["stop1"]
    assert [sorted(good_vertices(g, B3, FrogParams(0.5, 6.0), Stream(61, s)))
            for s in range(5)] == GOLDEN_GOOD_VERTICES["all"]
    fld = ParticleField(g, 8)
    assert [sorted(arrow_closure(g, B3, x, FrogParams(1.0, 1.0), fld))
            for x in sorted(B3)] == GOLDEN_ARROW_CLOSURE


def reference_arrows(B, pick, params):
    """The arrows of B read one particle at a time; pick(x) is the plain
    ParticleField that holds x's particles."""
    arrows = {}
    for x in B:
        _, trajs = pick(x).particles(x, params)
        reach = set()
        for tr in trajs:
            reach |= tr.visited & B
        reach.discard(x)
        arrows[x] = reach
    return arrows


@pytest.mark.parametrize("cap", [1, 40, 300, 4096])
def test_read_arrows_matches_particles(monkeypatch, cap):
    # caps that put one field in flight with a pass per walk, and every
    # field in flight with several passes per wave, or one pass
    monkeypatch.setattr(frogs, "_ARROW_WALKS", cap)
    monkeypatch.setattr(frogs, "_SCAN_FIELDS", cap)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=6))
    B = ball(g, 3, 4)
    window, core = ball(g, 3, 2), ball(g, 0, 1)
    params = FrogParams(1.5, 5.0)
    p = {s: ParticleField(g, s) for s in (1, -7, 2**70 + 3, 11, 12, 5)}
    cases = [(p[s], lambda x, s=s: p[s]) for s in (1, -7, 2**70 + 3)]
    cases.append((SpliceField(window, p[11], p[12]),
                  lambda x: p[11] if x in window else p[12]))
    cases.append((SpliceField(core, p[1], SpliceField(window, p[-7], p[5])),
                  lambda x: p[1] if x in core
                  else p[-7] if x in window else p[5]))
    cases.append((p[5], lambda x: p[5]))
    fields = [field for field, _ in cases]
    got = read_all_arrows(g, B, iter(fields), params)
    assert len(got) == len(cases)
    for arrows, (_, pick) in zip(got, cases):
        assert arrows == reference_arrows(B, pick, params)
    empty = read_all_arrows(g, B, fields[:2], FrogParams(0.0, 5.0))
    assert empty == [{x: set() for x in B}] * 2
    # frontier vertices, which _read_arrows rejects, at the wave level
    edge = B | {v for v in range(g.vertex_count) if g.boundary_mask[v]}
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        read_all_arrows(g, edge, fields, params)
    verts = np.array(sorted(edge), dtype=np.int64)
    nb = verts.size
    wave = [(f, c) for f in range(len(fields)) for c in range(nb)]
    cols = frogs._wave_arrows(g, verts, frogs._columns(verts), fields, wave,
                              params)
    for f, (_, pick) in enumerate(cases):
        assert {x: {int(verts[y]) for y in out} for x, out in zip(
            verts.tolist(), cols[f * nb:(f + 1) * nb])} \
            == reference_arrows(edge, pick, params)


def test_wave_arrows_pass_size_does_not_change_arrows(monkeypatch):
    # a radius-8 ball off the origin, so B's id span holds vertices outside
    # B; lambda = 0.25 and 2 bracket the decay and block_open densities
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    B = ball(g, 40, 8)
    verts = np.array(sorted(B), dtype=np.int64)
    look, nb = frogs._columns(verts), verts.size
    p = {s: ParticleField(g, s) for s in range(1, 6)}
    fields = [p[1], p[2], SpliceField(ball(g, 40, 3), p[3], p[4]), p[5]]
    every = [(f, c) for f in range(len(fields)) for c in range(nb)]
    some = [(f, c) for f, c in every if c % 7 == 0]
    runs = {}
    for lam in (0.25, 2.0):
        params = FrogParams(lam, 16.0)
        # a pass per walk, passes that split a field's pairs, and one
        # pass for all
        for cap in (1, 37, 80, 2048, 10**6):
            monkeypatch.setattr(frogs, "_ARROW_WALKS", cap)
            runs[lam, cap] = (
                frogs._wave_arrows(g, verts, look, fields, every, params),
                frogs._wave_arrows(g, verts, look, fields, some, params))
        full, part = runs[lam, 2048]
        assert len(full) == len(every) and len(part) == len(some)
        assert part == [full[f * nb + c] for f, c in some]
        assert any(full)
        for cap in (1, 37, 80, 10**6):
            assert runs[lam, cap] == runs[lam, 2048]
    # the per-particle reference, on the splice and one plain field
    params = FrogParams(0.25, 16.0)
    inner = ball(g, 40, 3)
    full = runs[0.25, 37][0]
    for f, pick in ((2, lambda x: p[3] if x in inner else p[4]),
                    (0, lambda x: p[1])):
        assert {x: {int(verts[y]) for y in out} for x, out in zip(
            verts.tolist(), full[f * nb:(f + 1) * nb])} \
            == reference_arrows(B, pick, params)


def pair_jumps_reference(g, B, xs, seeds, counts, t):
    """_pair_jumps' codes from walk_batch, one pair at a time: p |B| + the
    rank in B of each vertex of B other than xs[p] that pair p's particles
    visit."""
    verts = sorted(B)
    codes = set()
    for p, (x, seed, n) in enumerate(zip(xs, seeds, counts)):
        keys = derive_keys(seed, "traj", x, count=n)
        positions, _, _ = walk_batch(g, x, t, keys)
        codes |= {p * len(verts) + verts.index(y)
                  for y in positions.ravel().tolist() if y in B and y != x}
    return sorted(codes)


@pytest.mark.parametrize("shape", ["scattered", "singleton"])
def test_pair_jumps_column_lookup(shape):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=10))
    if shape == "scattered":
        # every other vertex of a ball: the id span between B's ends holds
        # as many vertices outside B as in it
        B = set(sorted(ball(g, 30, 4))[::2])
    else:
        B = {30}
    verts = np.array(sorted(B), dtype=np.int64)
    # 29 and 31 lie outside the scattered B and 30 and 52 inside it, where
    # a pair's own vertex must not appear among its codes
    xs = np.array([30, 31, 30, 52, 29], dtype=np.int64)
    seeds = derive_keys(5, "pj", count=xs.size)
    counts = np.array([3, 2, 0, 4, 5])
    look = frogs._columns(verts)
    assert look.size == verts[-1] - verts[0] + 2 and look[-1] == -1
    got = frogs._pair_jumps(g, verts, look, xs, seeds, counts, 6.0)
    ref = pair_jumps_reference(g, B, xs.tolist(), seeds.tolist(),
                               counts.tolist(), 6.0)
    assert got.tolist() == ref and ref



@pytest.mark.parametrize("fields_cap,walks_cap", [(1, 2048), (3, 5), (512, 1)])
def test_read_arrows_reveals_each_read_pair_once(monkeypatch, fields_cap,
                                                 walks_cap):
    # one field in flight, blocks of three fields with waves split into
    # passes of at most 5 walks, and one block with a pass per pair
    monkeypatch.setattr(frogs, "_SCAN_FIELDS", fields_cap)
    monkeypatch.setattr(frogs, "_ARROW_WALKS", walks_cap)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    B = ball(g, 40, 5)
    verts = sorted(B)
    p = {s: ParticleField(g, s) for s in range(1, 6)}
    inner = ball(g, 40, 2)
    fields = [p[1], SpliceField(inner, p[2], p[3]), p[4], p[5]]
    picks = [lambda x: p[1], lambda x: p[2] if x in inner else p[3],
             lambda x: p[4], lambda x: p[5]]
    params = FrogParams(0.7, 9.0)
    seen = []

    def scan(i, has):
        # every particle-bearing column, read in descending order in
        # lists of 1, 2, 3, ... columns
        cols = [c for c in range(len(verts) - 1, -1, -1) if has[c]]
        got, size = {}, 1
        while cols:
            read, cols = cols[:size], cols[size:]
            got.update(zip(read, (yield read)))
            size += 1
        seen.append(i)
        return got

    revealed = []
    pair_jumps = frogs._pair_jumps

    def spy(g, verts, look, xs, seeds, counts, t):
        assert counts.sum() <= walks_cap or counts.size == 1
        revealed.extend(zip(seeds.tolist(), xs.tolist()))
        return pair_jumps(g, verts, look, xs, seeds, counts, t)

    monkeypatch.setattr(frogs, "_pair_jumps", spy)
    got = list(frogs._read_arrows(g, B, iter(fields), params, scan))
    assert sorted(seen) == [0, 1, 2, 3]
    for arrows, pick in zip(got, picks):
        ref = reference_arrows(B, pick, params)
        assert {verts[c]: {verts[y] for y in out} for c, out in arrows.items()} \
            == {x: ref[x] for x in B if pick(x).count_at(x, params.lam)}
        assert all(out == sorted(out) for out in arrows.values())
    # each pair with particles revealed once, the others never
    want = {(fld.source(x).seed, x) for fld in fields for x in verts
            if fld.count_at(x, params.lam)}
    assert len(revealed) == len(set(revealed)) and set(revealed) == want
    revealed.clear()
    empty = frogs._read_arrows(g, B, fields, FrogParams(0.0, 9.0), scan)
    assert list(empty) == [{}] * 4
    assert revealed == []


def test_arrow_closure_reveals_reached_vertices_only(monkeypatch):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=24))
    B = ball(g, 0, 20)
    params = FrogParams(0.3, 2.0)
    fld = ParticleField(g, 4)
    arrows = reference_arrows(B, lambda x: fld, params)
    revealed = []
    pair_jumps = frogs._pair_jumps

    def spy(g, verts, look, xs, seeds, counts, t):
        revealed.extend(xs.tolist())
        return pair_jumps(g, verts, look, xs, seeds, counts, t)

    monkeypatch.setattr(frogs, "_pair_jumps", spy)
    for x in sorted(B)[::40]:
        full = frogs._reach({x}, arrows.__getitem__)
        revealed.clear()
        assert arrow_closure(g, B, x, params, fld) == full
        # each particle-bearing reached vertex once
        assert sorted(revealed) == sorted(
            v for v in full if fld.count_at(v, params.lam))
        for k in (1, 2, 5):
            revealed.clear()
            got = arrow_closure(g, B, x, params, fld, stop_size=k)
            assert x in got and got <= full and len(got) == min(k, len(full))
            assert set(revealed) <= got
            if k == 1:
                assert got == {x} and revealed == []


@pytest.mark.parametrize("splice", [False, True])
def test_good_vertices_equal_per_candidate_reach(monkeypatch, z2_box20,
                                                 splice):
    g, B = z2_box20, ball(z2_box20, 0, 3)
    params = FrogParams(0.5, 6.0)
    if splice:
        # each candidate's field answers from another seed off ball(0, 1)
        plain, core = frogs.ParticleField, ball(g, 0, 1)
        monkeypatch.setattr(frogs, "ParticleField", lambda g, key: SpliceField(
            core, plain(g, key), plain(g, key ^ 1)))
    rng = Stream(61, 2)
    want = set()
    for x in sorted(B):
        fld = frogs.ParticleField(g, rng.child("goodv", x).key)
        arrows = reference_arrows(B, fld.source, params)
        if len(frogs._reach({x}, arrows.__getitem__)) >= len(B) / 4:
            want.add(x)
    assert 0 < len(want) < len(B)
    assert good_vertices(g, B, params, rng) == want


def test_arrow_closure_rejects_stop_size_below_one(z2_box20):
    B = ball(z2_box20, 0, 3)
    fld = ParticleField(z2_box20, 8)
    for k in (0, -1):
        with pytest.raises(ValueError, match="stop_size"):
            arrow_closure(z2_box20, B, 0, FrogParams(1.0, 1.0), fld,
                          stop_size=k)


@pytest.mark.parametrize("call", [
    lambda g, B: good_vertices(g, B, FrogParams(1.0, 4.0), Stream(3)),
    lambda g, B: arrow_closure(g, B, 0, FrogParams(1.0, 4.0),
                               ParticleField(g, 3)),
])
def test_arrow_readers_reject_the_truncation_frontier(call):
    # the radius-10 box's frontier is the sphere of radius 10
    g = build_graph(GraphSpec("lattice_box", d=2, radius=10))
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        call(g, ball(g, 0, 12))
    call(g, ball(g, 0, 9))


def test_read_arrows_memory_does_not_grow_with_B_squared():
    # a boolean (pair with particles) x |B| matrix would take about
    # 0.39 * |B|^2 bytes here (|B| = 3281: 4.2 MB); the arrows of |B|
    # vertices take about 1 MB
    g = build_graph(GraphSpec("lattice_box", d=2, radius=45))
    B = ball(g, 0, 40)
    fld = ParticleField(g, 9)
    tracemalloc.start()
    try:
        [arrows] = read_all_arrows(g, B, [fld], FrogParams(0.5, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arrows) == len(B)
    assert peak < 0.5 * 0.39 * len(B) ** 2


# -- exploration process -------------------------------------------------


def test_ep_zero_density(tree8):
    ep = ep_exploration_sample(tree8, {0}, FrogParams(0.0, 1.0), Stream(5))
    assert ep.generation_sizes == [1, 0]


def test_ep_singleton_window_mean_children(tmp_path):
    # on an outward tree every visited vertex is fresh, so the per-particle
    # child count is exactly the jump count: E[Z1] = lam * t
    g = make_out_tree(tmp_path, degree=3, depth=6)
    lam, t = 0.8, 1.2
    vals = []
    for rep in range(4000):
        ep = ep_exploration_sample(g, {0}, FrogParams(lam, t),
                                   Stream(17, rep), max_generations=1)
        vals.append(ep.generation_sizes[1])
    est = from_samples(vals, 17)
    assert abs(est.mean - lam * t) <= 3 * est.stderr


def test_ep_first_generation_dominated_by_phi_tilde(tree8):
    # the per-parent child mean is capped by the weighted window functional
    from frogsim import phi_tilde_hat

    S = ball(tree8, 0, 2)
    params = FrogParams(0.3, 1.0)
    z1 = []
    for rep in range(3000):
        ep = ep_exploration_sample(tree8, S, params, Stream(42, rep),
                                   max_generations=1)
        z1.append(ep.generation_sizes[1] if len(ep.generation_sizes) > 1 else 0)
    est = from_samples(z1, 42)
    pt = phi_tilde_hat(tree8, S, params, 3000, 43, conditional_replicas=4000)
    assert est.mean <= pt.mean + 3 * math.hypot(est.stderr, pt.stderr)


def test_ep_subcritical_dies(tree8):
    sizes = []
    for rep in range(200):
        ep = ep_exploration_sample(tree8, ball(tree8, 0, 2),
                                   FrogParams(0.3, 1.0), Stream(23, rep))
        assert not ep.budget_exhausted
        sizes.append(len(ep.generation_sizes))
        assert ep.generation_sizes[-1] == 0
    assert max(sizes) < 50


# -- shell profile and conditional jumps ---------------------------------


def test_sphere_profile_shapes(tree8):
    S = ball(tree8, 0, 4)
    prof = sphere_activation_profile(tree8, S, FrogParams(1.0, 1.0), 300,
                                     Stream(29))
    assert set(prof) == {1, 2, 3, 4, 5}  # interior depths of a radius-4 ball
    for est in prof.values():
        assert est.mean >= 0.0


def test_sphere_profile_zero_density(tree8):
    S = ball(tree8, 0, 3)
    prof = sphere_activation_profile(tree8, S, FrogParams(0.0, 1.0), 50,
                                     Stream(30))
    # only the origin is ever reached; it sits at depth 4 in a radius-3 ball
    assert prof[4].mean == 1.0
    assert all(prof[r].mean == 0.0 for r in prof if r != 4)


def test_exit_conditional_jumps_singleton(z2_box20):
    t = 1.0
    stats = exit_conditional_jumps(z2_box20, {0}, 0, t, 40_000, Stream(31))
    expect = t / (1 - math.exp(-t))  # mean of N given N >= 1
    assert stats.estimate is not None
    assert abs(stats.estimate.mean - expect) <= 3 * stats.estimate.stderr
    assert stats.bound == 4 * (t + 1)  # Delta^{D_x} (t + D_x) at depth one


def test_exit_conditional_small_t_limit(z2_box20):
    # single-jump exits dominate: E[N | N >= 1] = t/(1-e^{-t}) -> 1
    t = 0.05
    stats = exit_conditional_jumps(z2_box20, {0}, 0, t, 50_000, Stream(33))
    assert stats.estimate is not None
    expect = t / (1 - math.exp(-t))
    assert abs(stats.estimate.mean - expect) <= 3 * stats.estimate.stderr
    assert stats.estimate.mean < 1.05


def test_exit_conditional_zero_accepts(tree8):
    S = ball(tree8, 0, 4)
    stats = exit_conditional_jumps(tree8, S, 0, 0.01, 200, Stream(37))
    assert stats.accepted == 0 and stats.estimate is None
    assert stats.exit_rate == 0.0


def reference_exit_jumps(g, S, x, t, replicas, rng):
    """The jump counts of the walks that leave S, read off walk_batch's
    padded position matrix."""
    positions, jumps, _ = walk_batch(
        g, x, t, derive_keys(rng.key, "exitcond", count=replicas))
    outside = np.ones(g.vertex_count + 1, dtype=bool)
    outside[list(S)] = False
    outside[-1] = False                       # the padding
    return jumps[outside[positions].any(axis=1)].tolist()


@pytest.mark.parametrize("cap", [1, 700, 4096, 10**6])
def test_exit_conditional_stats_match_walk_batch(monkeypatch, z2_box20, cap):
    # one vertex per pass, several, and the whole window in one pass
    monkeypatch.setattr(frogs, "_EXIT_WALKS", cap)
    g = z2_box20
    S = ball(g, 0, 3)
    xs = sorted(S)
    rngs = [Stream(91, "cond", x) for x in xs]
    got = frogs._exit_conditional_stats(g, S, xs, 2.0, 300,
                                        [r.key for r in rngs])
    for x, rng, stats in zip(xs, rngs, got):
        counts = reference_exit_jumps(g, S, x, 2.0, 300, rng)
        assert stats.accepted == len(counts)
        assert stats.exit_rate == len(counts) / 300
        want = from_samples(counts, rng.key) if counts else None
        assert stats.estimate == want
        assert stats == exit_conditional_jumps(g, S, x, 2.0, 300, rng)
