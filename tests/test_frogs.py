import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frogsim import (ExitJumpStats, FrogParams, GraphError, GraphSpec,
                     ParticleField, Stream, arrow_closure, ball,
                     build_graph, distance_to_complement,
                     ep_exploration_sample, exit_conditional_jumps,
                     explore_cluster, from_samples, good_set_G_A,
                     good_vertices, restricted_activation,
                     sphere_activation_profile)
from frogsim import experiments, frogs, walks
from frogsim.experiments import (_SCAN_FIELDS, good_vertex_decay,
                                 renormalization_experiment)
from frogsim.frogs import _reach
from frogsim.rng import derive_keys
from frogsim.walks import lockstep_walks, walk_batch, walk_positions

from conftest import (SpliceField, key_at, keys_of, read_all,
                      read_all_arrows, spy_trajectories, spy_wave_arrows,
                      stay_keys)


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
# vertex x, (x, the indices of x's particles whose walks stay in S, the
# number of the others).
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
    fields = [ParticleField(g, seed) for seed in (1, 2, 3)]
    got = list(frogs._stay_closure(g, S, g.origin, params,
                                   stay_keys(fields, S, g.origin)))
    assert len(got) == 3
    for (reached, exiters), fld, want in zip(got, fields,
                                            GOLDEN_STAY_CLOSURE[name]):
        assert sorted(reached) == [x for x, _, _ in want]
        assert exiters == sum(exits for _, _, exits in want)
        ra = restricted_activation(g, S, params, fld)
        assert ra.exiters == exiters
        assert [(x, ra.stay_sets[x],
                 fld.count_at(x, params.lam) - len(ra.stay_sets[x]))
                for x in sorted(ra.stay_sets)] == want
        assert {x for x, h in ra.harpoon.items() if h} == reached


def reference_stay_closure(g, S, start, params, field):
    """One field's stay-inside closure, revealing each vertex's particles
    through field.particles as the closure pops it: the reached set, and
    for each reached x the indices of its particles whose walks stay in S
    and the number of the others."""
    stay_sets, exit_counts = {}, {}

    def out(x):
        eta, trajs = field.particles(x, params)
        stay = tuple(i for i, tr in enumerate(trajs) if tr.visited <= S)
        stay_sets[x] = stay
        exit_counts[x] = eta - len(stay)
        return (v for i in stay for v in trajs[i].jumps)

    return frogs._reach({start}, out), stay_sets, exit_counts


def check_closure(got, want):
    """A (reached, exiters) of _stay_closure against reference_stay_closure:
    the same vertices added in the same order, and the exit total."""
    reached, exiters = got
    assert added(reached) == added(want[0])
    assert exiters == sum(want[2].values())


def check_restricted(g, S, params, field, want):
    """restricted_activation on the window S from the origin against
    reference_stay_closure: the stay sets of every reached vertex, the exit
    total and the harpoon."""
    ra = restricted_activation(g, S, params, field)
    assert ra.stay_sets == want[1] and list(ra.stay_sets) == sorted(want[0])
    assert ra.exiters == sum(want[2].values())
    assert ra.harpoon == {x: x in want[0] for x in S}


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("lam,t", [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0),
                                   (1.0, 12.0)])
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
    got = list(frogs._stay_closure(g, S, start, params,
                                   stay_keys(fields, S, start)))
    assert len(got) == len(fields)
    for f, (closure, fld) in enumerate(zip(got, fields)):
        want = reference_stay_closure(g, S, start, params,
                                      ParticleField(g, fld.seed))
        check_closure(closure, want)
        if not off and (f < 5 or f >= 300):
            check_restricted(g, S, params, fld, want)


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
        got = list(frogs._stay_closure(g, S, start, params,
                                       stay_keys(fields, S, start)))
        for f, (closure, fld) in enumerate(zip(got, fields)):
            want = reference_stay_closure(g, S, start, params, fld)
            check_closure(closure, want)
            if start == g.origin and f < 3:
                check_restricted(g, S, params, fld, want)
    got = list(frogs._stay_closure(g, S, g.origin, FrogParams(0.0, 1.0),
                                   stay_keys(fields, S, g.origin)))
    assert got == [({g.origin}, 0)] * len(fields)
    assert restricted_activation(g, S, FrogParams(0.0, 1.0),
                                 fields[0]).stay_sets == {g.origin: ()}


def test_replica_closures_blocks(monkeypatch, tree8):
    S = ball(tree8, 0, 3)
    params = FrogParams(1.5, 1.0)
    whole = list(frogs._replica_closures(tree8, S, params, [(5, "phi")], 70))
    monkeypatch.setattr(frogs, "_CLOSURE_FIELDS", 16)
    assert list(frogs._replica_closures(tree8, S, params, [(5, "phi")], 70)) \
        == whole
    for r in (0, 33, 69):
        want = reference_stay_closure(tree8, S, 0, params, ParticleField(
            tree8, Stream(5, "phi", r).key))
        check_closure(whole[r], want)


def test_replica_keys_derived_a_block_at_a_time(monkeypatch, tree8):
    # the replica keys are derived one block of fields at a time, so the
    # keys held stay bounded for any replica count
    derived = []

    def spy(seed, *labels, count=None):
        keys = derive_keys(seed, *labels, count=count)
        if labels[0] in ("phi", "decay"):
            derived.append((labels[0], keys.size))
        return keys

    # the closures derive their keys in frogs, the decay in experiments
    monkeypatch.setattr(frogs, "derive_keys", spy)
    monkeypatch.setattr(experiments, "derive_keys", spy)
    monkeypatch.setattr(frogs, "_CLOSURE_FIELDS", 16)
    S = ball(tree8, 0, 3)
    list(frogs._replica_closures(tree8, S, FrogParams(1.5, 1.0),
                                 [(5, "phi")], 70))
    assert derived == [("phi", 16)] * 4 + [("phi", 6)]
    derived.clear()
    replicas = _SCAN_FIELDS + 40
    good_vertex_decay(tree8, 0, 2, 0.0, (1, 4), replicas, 3)
    assert derived == [("decay", _SCAN_FIELDS), ("decay", 40)]
    # renorm_z2's decay replicas stay in one block
    defaults = renormalization_experiment.__kwdefaults__
    assert defaults["decay_replicas"] <= _SCAN_FIELDS


def random_graph_text(kind, seed):
    """A seeded random graph in the weighted-file format: "undirected"
    (irregular, degrees 1-6, unit weights), "digraph" (weighted; about a
    fifth of the vertices have no out-edge and become frontier sinks) or
    "loops" (undirected, weighted, with self-loops)."""
    rnd = random.Random(seed)
    n = rnd.randint(8, 60)
    if kind == "digraph":
        sinks = set(rnd.sample(range(1, n), max(1, n // 5)))
        lines = ["frogsim-graph v1 directed"]
        for u in range(n):
            if u not in sinks:
                for v in rnd.sample(range(n), rnd.randint(1, min(5, n))):
                    lines.append(f"{u} {v} {rnd.choice((0.3, 1.0, 1.7, 4.0))}")
        return "\n".join(lines) + "\n"
    cap = [rnd.randint(1, 6) for _ in range(n)]
    degree = [0] * n
    edges = set()
    for u in range(1, n):          # a random tree, so every degree is >= 1
        v = rnd.choice([w for w in range(u) if degree[w] < 6])
        edges.add((v, u))
        degree[u] += 1
        degree[v] += 1
    for _ in range(3 * n):
        u, v = rnd.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in edges \
                and degree[u] < cap[u] and degree[v] < cap[v]:
            edges.add((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    if kind == "loops":
        edges |= {(u, u) for u in rnd.sample(range(n), rnd.randint(1, n))}
    weight = (lambda: 1.0) if kind == "undirected" else (
        lambda: rnd.choice((0.5, 1.0, 2.5)))
    lines = ["frogsim-graph v1 undirected"]
    lines += [f"{u} {v} {weight()}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def random_graphs(tmp_path_factory):
    """random_graph_text's graph for a (kind, seed), built once."""
    built = {}

    def get(kind, seed):
        if (kind, seed) not in built:
            p = tmp_path_factory.mktemp("graphs") / f"{kind}-{seed}.txt"
            p.write_text(random_graph_text(kind, seed))
            built[kind, seed] = build_graph(GraphSpec("weighted_file",
                                                      path=str(p)))
        return built[kind, seed]

    return get


class InsertionOrder(set):
    """A set that also lists its members in the order they were added."""

    def __init__(self, items=()):
        super().__init__(items)
        self.order = list(self)

    def add(self, x):
        if x not in self:
            self.order.append(x)
        super().add(x)


def added(reached):
    """The vertices of a closure in the order they were added (a closure
    of its start alone is a plain set)."""
    return getattr(reached, "order", list(reached))


def recording_reach(reached, out, done=None):
    """frogs._reach on an InsertionOrder copy of `reached`: the order in
    which it adds vertices sets a closure's iteration order, which the
    small ids of random_graph_text's graphs rarely show (a set of ints
    below its table size iterates in ascending order)."""
    return _reach(InsertionOrder(reached), out, done)


@pytest.mark.parametrize("batch", [True, False])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["undirected", "digraph", "loops"]),
       graph_seed=st.integers(0, 7), lam=st.integers(0, 400),
       t=st.integers(0, 7000), radius=st.integers(0, 3),
       outside=st.booleans(), splices=st.lists(st.integers(0, 2**16),
                                                max_size=3),
       seed=st.integers(0, 2**16))
def test_stay_closure_equals_reference_on_random_graphs(
        random_graphs, batch, kind, graph_seed, lam, t, radius, outside,
        splices, seed):
    # lambda and t on grids of 0.01 over [0, 4] and [0, 70]: derandomized
    # float strategies mostly draw the ends of their ranges
    lam, t = lam / 100, t / 100
    g = random_graphs(kind, graph_seed)
    # the window avoids the frontier (the digraphs' sinks)
    S = {v for v in ball(g, g.origin, radius) if not g.boundary_mask[v]}
    rest = sorted(set(range(g.vertex_count)) - S)
    start = rest[seed % len(rest)] if outside and rest else g.origin
    params = FrogParams(lam, t)
    fields = [ParticleField(g, seed + i) for i in range(3)]
    fields += [SpliceField(random.Random(s).sample(range(g.vertex_count),
                                                   g.vertex_count // 2),
                           ParticleField(g, s), ParticleField(g, ~s))
               for s in splices]
    with mock.patch.object(frogs, "_STAY_BATCH_WALKS",
                           0 if batch else math.inf), \
            mock.patch.object(frogs, "_reach", recording_reach):
        got = list(frogs._stay_closure(g, S, start, params,
                                       stay_keys(fields, S, start)))
        with mock.patch.object(frogs, "_CLOSURE_FIELDS", 1):
            replicas = list(frogs._replica_closures(g, S, params,
                                                    [(seed, "phi")], 2))
        assert len(got) == len(fields) and len(replicas) == 2
        for closure, fld in zip(got, fields):
            want = reference_stay_closure(g, S, start, params, fld)
            check_closure(closure, want)
            if start == g.origin:
                check_restricted(g, S, params, fld, want)
        for r, closure in enumerate(replicas):
            want = reference_stay_closure(g, S, g.origin, params,
                                          ParticleField(g, Stream(seed, "phi",
                                                                  r).key))
            check_closure(closure, want)


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
    """The arrows of B read one particle at a time; pick(x) is the field
    whose particles() gives x's particles."""
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
    cols = frogs._wave_arrows(g, verts, frogs._columns(verts),
                              keys_of(fields, verts.tolist()), wave, params)
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
    keys = keys_of(fields, verts.tolist())
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
                frogs._wave_arrows(g, verts, look, keys, every, params),
                frogs._wave_arrows(g, verts, look, keys, some, params))
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


def test_small_waves_read_the_arrows_of_a_pass(monkeypatch):
    # the same pairs read through field.particles (the rule's small-wave
    # path) and through lockstep passes, on every other vertex of a ball
    # so that B's id span holds vertices outside B
    g = build_graph(GraphSpec("lattice_box", d=2, radius=12))
    B = set(sorted(ball(g, 40, 5))[::2])
    verts = np.array(sorted(B), dtype=np.int64)
    look = frogs._columns(verts)
    wave = [(f, c) for f in range(3) for c in range(0, verts.size, 2)]

    read = spy_trajectories(monkeypatch)

    def fields():
        read.clear()
        p = [ParticleField(g, s) for s in range(1, 5)]
        return [p[0], SpliceField(ball(g, 40, 2), p[1], p[2]), p[3]]

    for lam, t in ((0.25, 64.0), (2.0, 16.0), (0.0, 8.0)):
        params = FrogParams(lam, t)
        runs = []
        for rule in (0, math.inf):
            monkeypatch.setattr(frogs, "_STAY_BATCH_WALKS", rule)
            flds = fields()
            runs.append(frogs._wave_arrows(
                g, verts, look, keys_of(flds, verts.tolist()), wave, params))
            # only the small-wave path reads single trajectories
            assert bool(read) == (rule == math.inf and lam > 0)
        assert runs[0] == runs[1]
        assert len(runs[0]) == len(wave) and any(runs[0]) == (lam > 0)
    monkeypatch.undo()
    read = spy_trajectories(monkeypatch)
    # the default rule reads a wave of up to 23 walks one walk at a time
    # and one of 24 or more in a pass, whatever its number of pairs
    params = FrogParams(2.0, 16.0)
    size, walks = 0, 0
    while walks < frogs._STAY_BATCH_WALKS + 8:
        size += 1
        flds = fields()
        walks = sum(flds[f].count_at(int(verts[c]), params.lam)
                    for f, c in wave[:size])
        frogs._wave_arrows(g, verts, look, keys_of(flds, verts.tolist()),
                           wave[:size], params)
        assert len(read) == (walks if walks < frogs._STAY_BATCH_WALKS else 0)


def arrow_codes(g, verts, xs, seeds, counts, t, batch=True):
    """The arrows rule's mask reduction over one pass of the pairs (field
    seed seeds[p], vertex xs[p], counts[p] particles) against the sorted
    vertex array verts, walked in lockstep (or, unless batch, one walk at
    a time), as the ascending codes p |verts| + each arrow's column."""
    look = frogs._columns(verts)
    with mock.patch.object(frogs, "_STAY_BATCH_WALKS",
                           0 if batch else math.inf):
        lens, cols = frogs._arrow_rule(
            verts, look, frogs._column_of(verts, look, xs),
            *frogs._walk_landings(g, seeds, xs, counts, t))
    return (np.repeat(np.arange(xs.size), lens) * verts.size + cols).tolist()


def pair_jumps_reference(g, B, xs, seeds, counts, t):
    """arrow_codes from walk_batch, one pair at a time: p |B| + the rank in
    B of each vertex of B other than xs[p] that pair p's particles
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
    got = arrow_codes(g, verts, xs, seeds, counts, 6.0)
    ref = pair_jumps_reference(g, B, xs.tolist(), seeds.tolist(),
                               counts.tolist(), 6.0)
    assert got == ref and ref


@pytest.mark.parametrize("draws", [2, 2**14])
def test_pair_jumps_at_long_horizon_match_single_walks(monkeypatch, draws):
    # t = 64 on a radius-10 box, where walks reach the frontier: a pass of
    # about 40 walks runs in blocks of many jumps, or of one jump with a
    # cap of 2 draws. The reference reads each particle's walk through
    # ParticleField.trajectory, one draw at a time.
    monkeypatch.setattr(walks, "_BLOCK_DRAWS", draws)
    g = build_graph(GraphSpec("lattice_box", d=2, radius=10))
    B = set(sorted(ball(g, 30, 5))[::2])
    verts = np.array(sorted(B), dtype=np.int64)
    xs = np.array(sorted(B)[::3] + [29, 31], dtype=np.int64)
    seeds = derive_keys(6, "pj64", count=xs.size)
    counts = frogs._vertex_counts(seeds, xs, 3.0)
    got = arrow_codes(g, verts, xs, seeds, counts, 64.0)
    ref = set()
    for p, (x, seed, n) in enumerate(zip(xs.tolist(), seeds.tolist(),
                                         counts.tolist())):
        for i in range(n):
            jumps = ParticleField(g, seed).trajectory(x, i, 64.0).jumps
            ref |= {p * verts.size + int(np.searchsorted(verts, y))
                    for y in jumps if y in B and y != x}
    assert 30 <= counts.sum() <= 60
    assert got == sorted(ref)


@pytest.mark.parametrize("batch", [True, False])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["undirected", "digraph", "loops"]),
       graph_seed=st.integers(0, 7), lam=st.integers(0, 400),
       t=st.integers(0, 7000), radius=st.integers(0, 3),
       budget=st.integers(1, 3), splice=st.booleans(),
       seed=st.integers(0, 2**16))
def test_arrow_mask_equals_pair_jumps_on_random_graphs(
        random_graphs, batch, kind, graph_seed, lam, t, radius, budget,
        splice, seed):
    # the mask reduction against pair_jumps_reference: one pass over pairs
    # on and off B (arrow_codes), and _wave_arrows under a mask budget of a
    # few bytes, so every pass holds one pair, also one whose row alone
    # is larger, on one key a field or spliced rows of keys
    lam, t = lam / 100, t / 100          # on grids of 0.01
    g = random_graphs(kind, graph_seed)
    B = {v for v in ball(g, g.origin, radius) if not g.boundary_mask[v]}
    verts = np.array(sorted(B), dtype=np.int64)
    nb = verts.size
    rnd = random.Random(seed)
    xs = np.array(rnd.sample(range(g.vertex_count), min(6, g.vertex_count)),
                  dtype=np.int64)
    seeds = derive_keys(seed, "pj", count=xs.size)
    counts = np.array([rnd.randint(0, 4) for _ in xs.tolist()])
    assert arrow_codes(g, verts, xs, seeds, counts, t, batch) \
        == pair_jumps_reference(g, B, xs.tolist(), seeds.tolist(),
                                counts.tolist(), t)
    p = [ParticleField(g, seed + k) for k in range(3)]
    fields = [p[0], SpliceField(rnd.sample(range(g.vertex_count),
                                           g.vertex_count // 2), p[1], p[2])
              if splice else p[1]]
    keys = keys_of(fields, verts.tolist())
    assert keys.ndim == (2 if splice else 1)
    wave = [(f, c) for f in range(2) for c in range(nb)]
    rnd.shuffle(wave)
    passes = []
    walk_landings = frogs._walk_landings

    def spy(g, seeds, xs, counts, t):
        passes.append(counts.size)
        return walk_landings(g, seeds, xs, counts, t)

    with mock.patch.multiple(frogs, _STAY_BATCH_WALKS=0 if batch
                             else math.inf, _MASK_BYTES=budget,
                             _walk_landings=spy):
        got = frogs._wave_arrows(g, verts, frogs._columns(verts), keys, wave,
                                 FrogParams(lam, t))
    assert passes == [1] * len(wave) and budget < 2 * (nb + 1)
    wxs = [int(verts[c]) for _, c in wave]
    want = pair_jumps_reference(
        g, B, wxs, [key_at(fields[f], x) for (f, _), x in zip(wave, wxs)],
        [fields[f].count_at(x, lam) for (f, _), x in zip(wave, wxs)], t)
    assert [p * nb + c for p, cols in enumerate(got) for c in cols] == want



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

    walk_landings = frogs._walk_landings

    def spy(g, seeds, xs, counts, t):
        assert counts.sum() <= walks_cap or counts.size == 1
        return walk_landings(g, seeds, xs, counts, t)

    monkeypatch.setattr(frogs, "_walk_landings", spy)
    spied = spy_wave_arrows(monkeypatch)
    got = list(frogs._read_arrows(g, B, keys_of(fields, verts), params,
                                  scan))
    revealed = [(seed, x) for seed, x, _ in spied]
    assert sorted(seen) == [0, 1, 2, 3]
    for arrows, pick in zip(got, picks):
        ref = reference_arrows(B, pick, params)
        assert {verts[c]: {verts[y] for y in out} for c, out in arrows.items()} \
            == {x: ref[x] for x in B if pick(x).count_at(x, params.lam)}
        assert all(out == sorted(out) for out in arrows.values())
    # each pair with particles revealed once, the others never
    want = {(key_at(fld, x), x) for fld in fields for x in verts
            if fld.count_at(x, params.lam)}
    assert len(revealed) == len(set(revealed)) and set(revealed) == want
    spied.clear()
    empty = frogs._read_arrows(g, B, keys_of(fields, verts),
                               FrogParams(0.0, 9.0), scan)
    assert list(empty) == [{}] * 4
    assert spied == []


def reference_closure(arrows, has, starts, stop):
    """frogs._closure_scan by frogs._reach over ascending arrows: the
    index of the first start whose reach holds stop vertices (inf if
    none), that reach (the last one if none), and the particle-bearing
    vertices the reaches pop, each once, in the order first popped."""
    reads = []

    def out(x):
        if has(x) and x not in reads:
            reads.append(x)
        return sorted(arrows[x])

    reach = set()
    for i, x in enumerate(starts):
        reach = frogs._reach({x}, out, lambda r: len(r) >= stop)
        if len(reach) >= stop:
            return i, reach, reads
    return math.inf, reach, reads


def test_arrow_closure_reveals_reached_vertices_only(monkeypatch):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=24))
    B = ball(g, 0, 20)
    params = FrogParams(0.3, 2.0)
    fld = ParticleField(g, 4)
    arrows = reference_arrows(B, lambda x: fld, params)
    spied = spy_wave_arrows(monkeypatch)

    def has(x):
        return fld.count_at(x, params.lam) > 0

    for x in sorted(B)[::40]:
        full = frogs._reach({x}, arrows.__getitem__)
        for k in (None, 1, 2, 5, 30):
            _, want, reads = reference_closure(
                arrows, has, [x], math.inf if k is None else k)
            spied.clear()
            got = arrow_closure(g, B, x, params, fld, stop_size=k)
            assert got == want and len(got) == min(k or math.inf, len(full))
            # the particle-bearing vertices the reach pops, one a wave, in
            # the order it pops them; all of the reach without stop_size
            assert [v for _, v, _ in spied] == reads
            if k is None:
                assert got == full and set(reads) == {v for v in full
                                                      if has(v)}


@pytest.mark.parametrize("splice", [False, True])
def test_good_vertices_equal_per_candidate_reach(monkeypatch, z2_box20,
                                                 splice):
    g, B = z2_box20, ball(z2_box20, 0, 3)
    params = FrogParams(0.5, 6.0)
    rng = Stream(61, 2)
    core = ball(g, 0, 1)
    if splice:
        # each candidate's field answers from another key off ball(0, 1):
        # the candidate keys reach the engine as rows, the candidate key on
        # the core's columns and key ^ 1 off them
        read_arrows = frogs._read_arrows

        def spliced(g, B, keys, params, scan):
            inside = np.isin(sorted(B), sorted(core))[None, :]
            rows = np.where(inside, keys[:, None], keys[:, None] ^ np.uint64(1))
            return read_arrows(g, B, rows, params, scan)

        monkeypatch.setattr(frogs, "_read_arrows", spliced)
    want, reads = set(), set()
    for x in sorted(B):
        key = rng.child("goodv", x).key
        fld = SpliceField(core, ParticleField(g, key), ParticleField(
            g, key ^ 1)) if splice else ParticleField(g, key)
        arrows = reference_arrows(B, lambda _: fld, params)
        if len(frogs._reach({x}, arrows.__getitem__)) >= len(B) / 4:
            want.add(x)
        # the particle-bearing vertices its reach pops before the quarter
        _, _, popped = reference_closure(
            arrows, lambda v: fld.count_at(v, params.lam) > 0, [x],
            math.ceil(len(B) / 4))
        reads |= {(key_at(fld, v), v) for v in popped}
    assert 0 < len(want) < len(B)
    spied = spy_wave_arrows(monkeypatch)
    assert good_vertices(g, B, params, rng) == want
    revealed = [(seed, v) for seed, v, _ in spied]
    assert len(revealed) == len(set(revealed)) and set(revealed) == reads


@pytest.mark.parametrize("stop", [1, 3, 8, 20, 42])
@pytest.mark.parametrize("starts", [[], [0], "distance", "reversed"])
def test_closure_scan_finds_the_first_covering_start(monkeypatch, z2_box20,
                                                     starts, stop):
    g, B = z2_box20, ball(z2_box20, 0, 4)
    verts = sorted(B)
    if starts == "distance":
        starts = sorted(B, key=lambda v: (int(g.dist[v]), v))[:12]
    elif starts == "reversed":
        starts = verts[::-3]
    column = {v: c for c, v in enumerate(verts)}
    params = FrogParams(1.0, 3.0)
    fields = [ParticleField(g, s) for s in range(10)]
    spied = spy_wave_arrows(monkeypatch)
    got = list(frogs._read_arrows(
        g, verts, keys_of(fields, verts), params,
        lambda _, has: frogs._closure_scan(
            has, [column[v] for v in starts], stop)))
    firsts, want_reads = set(), set()
    for fld, (first, mask) in zip(fields, got):
        want_first, reach, reads = reference_closure(
            reference_arrows(B, lambda _: fld, params),
            lambda v: fld.count_at(v, params.lam) > 0, starts, stop)
        assert first == want_first and len(mask) == len(verts)
        assert {verts[c] for c, m in enumerate(mask) if m} == reach
        firsts.add(first)
        want_reads |= {(key_at(fld, v), v) for v in reads}
    revealed = [(seed, v) for seed, v, _ in spied]
    assert len(revealed) == len(set(revealed)) and set(revealed) == want_reads
    if stop == 42 or not starts:                 # |B| = 41
        assert firsts == {math.inf}


@pytest.mark.parametrize("batch", [True, False])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["undirected", "digraph", "loops"]),
       graph_seed=st.integers(0, 7), lam=st.integers(0, 400),
       t=st.integers(0, 7000), radius=st.integers(0, 3),
       splice=st.one_of(st.none(), st.integers(0, 2**16)),
       one_walk=st.booleans(), seed=st.integers(0, 2**16),
       stop=st.integers(1, 12))
def test_arrow_driver_equals_reference_on_random_graphs(
        random_graphs, batch, kind, graph_seed, lam, t, radius, splice,
        one_walk, seed, stop):
    # _read_arrows with the read-everything scan and with the
    # closure scan, against arrows and reaches read one particle at a time
    g = random_graphs(kind, graph_seed)
    B = {v for v in ball(g, g.origin, radius) if not g.boundary_mask[v]}
    verts = sorted(B)
    # lambda in [0, 4] and t in [0, 70], in hundredths
    lam, t = lam / 100, t / 100
    params = FrogParams(lam, t)
    plain = ParticleField(g, seed)
    fields, picks = [plain], [lambda x: plain]
    if splice is not None:
        # a splice and a splice nested in another, over random vertex sets
        n = g.vertex_count
        inner = set(random.Random(splice).sample(range(n), n // 2))
        core = set(random.Random(~splice).sample(range(n), n // 3))
        p_in, p_out, p_core = (ParticleField(g, k)
                               for k in (splice, ~splice, splice + 1))
        fields += [SpliceField(inner, p_in, p_out),
                   SpliceField(core, p_core, SpliceField(inner, p_in, p_out))]
        picks += [lambda x: p_in if x in inner else p_out,
                  lambda x: p_core if x in core
                  else p_in if x in inner else p_out]
    starts = [(seed + 5 * k) % len(verts) for k in range(3)]
    caps = dict(_ARROW_WALKS=1, _SCAN_FIELDS=1) if one_walk else {}
    with mock.patch.multiple(frogs, _STAY_BATCH_WALKS=0 if batch else math.inf,
                             **caps):
        got = read_all_arrows(g, B, fields, params)
        scans = list(frogs._read_arrows(
            g, verts, keys_of(fields, verts), params,
            lambda _, has: frogs._closure_scan(has, starts, stop)))
    assert len(got) == len(scans) == len(fields)
    for arrows, (first, mask), pick in zip(got, scans, picks):
        want = reference_arrows(B, pick, params)
        assert arrows == want
        want_first, reach, _ = reference_closure(
            want, lambda v: pick(v).count_at(v, lam) > 0,
            [verts[c] for c in starts], stop)
        assert first == want_first
        assert {verts[c] for c, m in enumerate(mask) if m} == reach


@pytest.mark.parametrize("batch", [True, False])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["undirected", "digraph", "loops"]),
       graph_seed=st.integers(0, 7), lam=st.integers(0, 400),
       t=st.integers(0, 7000), radius=st.integers(1, 3),
       outside=st.booleans(), seed=st.integers(0, 2**16))
def test_spliced_key_rows_on_random_graphs(random_graphs, batch, kind,
                                           graph_seed, lam, t, radius,
                                           outside, seed):
    # fields whose keys change across the window's columns reach both
    # engines as 2-D key rows; a plain field's key, as one key a field or
    # the same key in every column, gives the same closures and arrows
    lam, t = lam / 100, t / 100      # on grids of 0.01
    g = random_graphs(kind, graph_seed)
    S = {v for v in ball(g, g.origin, radius) if not g.boundary_mask[v]}
    assume(len(S) >= 2)
    verts = sorted(S)
    rest = sorted(set(range(g.vertex_count)) - S)
    start = rest[seed % len(rest)] if outside and rest else g.origin
    params = FrogParams(lam, t)
    p = [ParticleField(g, seed + k) for k in range(4)]
    # every other window vertex (and a random half of the rest) in inner,
    # every third from the second in core
    inner = set(verts[::2]) | set(random.Random(seed).sample(rest,
                                                             len(rest) // 2))
    core = set(verts[1::3])
    spliced = [SpliceField(inner, p[0], p[1]),
               SpliceField(core, p[2], SpliceField(inner, p[3], p[0]))]
    cols = [*verts, start]
    rows = keys_of(spliced, cols)
    assert rows.shape == (2, len(cols))
    assert all(len(set(row[:-1].tolist())) > 1 for row in rows)
    flat = keys_of(p[1:3], cols)
    assert flat.shape == (2,)

    def closures(keys):
        return [(added(reached), exiters) for reached, exiters in
                frogs._stay_closure(g, S, start, params, keys)]

    def arrows(keys):
        return list(frogs._read_arrows(g, verts, keys, params, read_all))

    with mock.patch.object(frogs, "_STAY_BATCH_WALKS",
                           0 if batch else math.inf), \
            mock.patch.object(frogs, "_reach", recording_reach):
        got = list(frogs._stay_closure(g, S, start, params, rows))
        for closure, fld in zip(got, spliced):
            check_closure(closure, reference_stay_closure(g, S, start, params,
                                                          fld))
        assert closures(flat) == closures(flat[:, None].repeat(len(cols), 1))
        assert arrows(flat) == arrows(flat[:, None].repeat(len(verts), 1))
        got = read_all_arrows(g, S, spliced, params)
    assert got == [reference_arrows(S, lambda x, f=fld: f, params)
                   for fld in spliced]


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
    lambda g, B: frogs._arrow_bits(g, B, [(ParticleField(g, 3), B)],
                                   FrogParams(1.0, 4.0)),
])
def test_arrow_readers_reject_the_truncation_frontier(call):
    # the radius-10 box's frontier is the sphere of radius 10
    g = build_graph(GraphSpec("lattice_box", d=2, radius=10))
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        call(g, ball(g, 0, 12))
    call(g, ball(g, 0, 9))


def test_arrow_bits_rejects_sources_off_the_set(z2_box20):
    B = ball(z2_box20, 0, 3)
    with pytest.raises(ValueError, match="sources must lie in B"):
        frogs._arrow_bits(z2_box20, B, [(ParticleField(z2_box20, 3),
                                         ball(z2_box20, 0, 4))],
                          FrogParams(1.0, 4.0))


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


def test_explore_cluster_memory_per_particle_is_bounded(tree12):
    # a field stores no trajectory, so a run holds only its own bookkeeping
    # (pending particles, activation order, activated set): about 100 bytes
    # a particle here; a field that kept each revealed walk held over 300
    tree12.walk_tables()                  # built on a graph's first walk
    field = ParticleField(tree12, 12345)
    tracemalloc.start()
    try:
        cl = explore_cluster(tree12, FrogParams(3.0, 2.0), field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cl.stop_reason == "exhausted" and cl.total_particles == 3911
    assert peak < 160 * cl.total_particles


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


# Recorded on the exploration that read its stay sets off _stay_closure:
# (generation_sizes, clipped_parents) of ep_exploration_sample with rng
# Stream(7, rep), per (graph, window radius, max_generations) and
# (lambda, t). On the Z^2 box of radius 20 every child window ball(v, 10)
# with d(v) >= 10 clips at the frontier.
GOLDEN_EP = {
    ("tree8", 2, 3): {
        (0.3, 3.0): {20: ([1, 6, 3, 3], 1), 29: ([1, 3, 5, 0], 0),
                     46: ([1, 6, 4, 0], 1)},
        (1.0, 3.0): {1: ([1, 3, 10, 13], 6), 2: ([1, 4, 25, 45], 8),
                     3: ([1, 3, 7, 13], 4), 7: ([1, 4, 14, 19], 3)}},
    ("z2", 10, 2): {
        (0.3, 30.0): {7: ([1, 62, 3967], 29), 28: ([1, 19, 1123], 6),
                      29: ([1, 19, 21], 2)},
        (1.0, 4.0): {2: ([1, 28, 516], 20), 5: ([1, 44, 1172], 35)}},
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EP))
def test_ep_exploration_golden(case, tree8, z2_box20):
    name, radius, gens = case
    g = tree8 if name == "tree8" else z2_box20
    S = ball(g, g.origin, radius)
    for (lam, t), runs in GOLDEN_EP[case].items():
        for rep, (sizes, clipped) in runs.items():
            ep = ep_exploration_sample(g, S, FrogParams(lam, t),
                                       Stream(7, rep), max_generations=gens)
            assert (ep.generation_sizes, ep.clipped_parents) \
                == (sizes, clipped)
            assert not ep.budget_exhausted


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
    # passes of one walk, of several vertices' walks, and one for them all
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


def check_exit_stats(g, S, t, replicas, seed, cap):
    """_exit_conditional_stats on every vertex of S with a path out, with
    passes of at most cap walks, against walk_positions walk by walk: a
    walk exits if a position lies off S, and N is its number of jumps.
    Only the walks with at least d(x, S^c) jumps may be walked, pooled
    into passes of cap walks (the last one takes the rest)."""
    depth = distance_to_complement(g, S)
    xs = sorted(depth)
    seeds = [Stream(seed, "cond", x).key for x in xs]
    passes = []

    def spy(g, starts, t, keys):
        passes.append(starts.size)
        return lockstep_walks(g, starts, t, keys)

    with mock.patch.object(frogs, "_EXIT_WALKS", cap), \
            mock.patch.object(frogs, "lockstep_walks", spy):
        got = frogs._exit_conditional_stats(g, S, xs, t, replicas, seeds)
    delta, can = g.max_interior_degree(), 0
    for x, key, stats in zip(xs, seeds, got):
        counts = []
        for r in range(replicas):
            jumps, _ = walk_positions(g, x, t, Stream(key, "exitcond", r))
            can += len(jumps) >= depth[x]
            if any(v not in S for v in jumps):
                counts.append(len(jumps))
        d = depth[x]
        assert stats == ExitJumpStats(
            from_samples(counts, key) if counts else None,
            delta ** d * (t + d), len(counts), len(counts) / replicas)
    assert sum(passes) == can
    assert set(passes[:-1]) <= {cap} and passes[-1:] <= [cap]


@pytest.mark.parametrize("cap", [1, 5, frogs._EXIT_WALKS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["undirected", "digraph", "loops"]),
       graph_seed=st.integers(0, 7), t=st.integers(0, 7000),
       radius=st.integers(0, 3), replicas=st.integers(1, 12),
       seed=st.integers(0, 2**16))
def test_exit_conditional_stats_equal_per_walk_reference(
        random_graphs, cap, kind, graph_seed, t, radius, replicas, seed):
    # t on a grid of 0.01 over [0, 70], on both sides of _BLOCK_HORIZON;
    # the digraphs' walks stop on frontier sinks off the window
    g = random_graphs(kind, graph_seed)
    S = {v for v in ball(g, g.origin, radius) if not g.boundary_mask[v]}
    check_exit_stats(g, S, t / 100, replicas, seed, cap)


@pytest.mark.parametrize("t", [0.7, 9.0])
def test_exit_conditional_stats_chunk_replicas(random_graphs, z2_box20, t):
    # more replicas than one pass holds, at the default pass size
    replicas = frogs._EXIT_WALKS + 300
    check_exit_stats(z2_box20, ball(z2_box20, 0, 1), t, replicas, 5,
                     frogs._EXIT_WALKS)
    g = random_graphs("digraph", 3)
    S = {v for v in ball(g, g.origin, 2) if not g.boundary_mask[v]}
    check_exit_stats(g, S, t, replicas, 6, frogs._EXIT_WALKS)


def test_exit_conditional_jumps_memory_is_flat(z2_box20):
    # 40 000 walks from the origin of the window {0} run in passes of at
    # most _EXIT_WALKS walks; one 40 000-walk pass peaked at about 3.5 MB
    # under tracemalloc. The accepted jump counts themselves (about 25 000
    # list entries) take 0.2 MB.
    exit_conditional_jumps(z2_box20, {0}, 0, 1.0, 10, Stream(3))
    tracemalloc.start()
    try:
        stats = exit_conditional_jumps(z2_box20, {0}, 0, 1.0, 40_000,
                                       Stream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.accepted > 20_000
    assert peak < 1.2e6
