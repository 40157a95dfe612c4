import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import iv

from frogsim import (GraphError, GraphSpec, SeriesToleranceError, Stream,
                     ball, build_graph, discrete_walk, exit_probability_exact,
                     heat_kernel_exact, heat_kernel_row,
                     hitting_probability_exact, range_statistics,
                     sample_jump_count, sample_trajectory,
                     self_intersection_bound, self_intersection_profile,
                     spectral_radius_estimate, truncated_green)
from frogsim import exit_conditional_jumps, good_set_G_A, walks
from frogsim.experiments import escape_probability
from frogsim.rng import derive_keys, uniforms_at
from frogsim.walks import walk_batch, walk_positions
from conftest import WEIGHTED_DIGRAPH


# -- sampling ----------------------------------------------------------


def test_jump_count_zero_horizon():
    s = Stream(1)
    assert all(sample_jump_count(0.0, s) == 0 for _ in range(20))


def test_jump_count_mean():
    s = Stream(2)
    n = 400_000
    mean = sum(sample_jump_count(1.0, s) for _ in range(n)) / n
    assert abs(mean - 1.0) < 3.0 / math.sqrt(n)  # CLT: 3 sigma/sqrt(n), sigma=1


def test_jump_count_chernoff_tail():
    # standard Poisson Chernoff rate at L=2:
    # P(N > (1+L)t) <= exp(-t ((1+L) log(1+L) - L))
    t, L = 4.0, 2.0
    bound = math.exp(-t * ((1 + L) * math.log(1 + L) - L))
    s = Stream(3)
    n = 200_000
    exceed = sum(sample_jump_count(t, s) > (1 + L) * t for _ in range(n)) / n
    assert exceed <= bound


def test_trajectory_zero_horizon(z2_box20):
    tr = sample_trajectory(z2_box20, 0, 0.0, Stream(4))
    assert tr.jumps == () and tr.visited == {0}


def test_trajectory_mean_jumps(z2_box40):
    s = Stream(5)
    n = 50_000
    mean = sum(sample_trajectory(z2_box40, 0, 1.0, s.child(i)).jump_count
               for i in range(n)) / n
    assert abs(mean - 1.0) < 0.015


def test_trajectory_first_jump_rate(z2_box40):
    # P(range not a singleton) = P(first Exp(1) clock <= t) = 1 - e^{-1}
    s = Stream(6)
    n = 40_000
    moved = sum(sample_trajectory(z2_box40, 0, 1.0, s.child(i)).jump_count > 0
                for i in range(n)) / n
    p = 1 - math.exp(-1)
    assert abs(moved - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_trajectory_stops_at_frontier():
    g = build_graph(GraphSpec("lattice_box", d=1, radius=2))
    absorbed = 0
    for i in range(2000):
        tr = sample_trajectory(g, 0, 30.0, Stream(7, i))
        if tr.absorbed:
            absorbed += 1
            assert g.boundary_mask[tr.jumps[-1]]
            assert not any(g.boundary_mask[v] for v in tr.jumps[:-1])
    assert absorbed > 1900  # t=30 on a radius-2 segment almost surely exits


# -- exact series ------------------------------------------------------


def test_exit_probability_singleton(z2_box20):
    tab = exit_probability_exact(z2_box20, {0}, 1.0)
    assert abs(tab.exit_prob[0] - (1 - math.exp(-1))) < 1e-10
    assert tab.truncation_error < 1e-10


def test_exit_probability_zero_horizon(z2_box20):
    tab = exit_probability_exact(z2_box20, ball(z2_box20, 0, 2), 0.0)
    assert all(p == 0.0 for p in tab.exit_prob.values())


def test_exit_probability_two_state_generator_oracle(z1_box):
    # S = {origin, +1}: continuous-time generator on two states, killed
    # outside; survival = expm oracle
    S = [0, 2]
    assert z1_box.dist[2] == 1
    tab = exit_probability_exact(z1_box, S, 1.0)
    Q = np.array([[-1.0, 0.5], [0.5, -1.0]])
    surv = expm(Q * 1.0) @ np.ones(2)
    assert abs(tab.exit_prob[0] - (1 - surv[0])) < 1e-9
    assert abs(tab.exit_prob[2] - (1 - surv[1])) < 1e-9


def test_exit_probability_monotone_in_time(tree8):
    S = ball(tree8, 0, 2)
    prev = {x: 0.0 for x in S}
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        tab = exit_probability_exact(tree8, S, t)
        for x in S:
            assert tab.exit_prob[x] >= prev[x] - 1e-12
        prev = tab.exit_prob


def test_exit_probability_monotone_under_enlargement(tree8):
    small = ball(tree8, 0, 1)
    big = ball(tree8, 0, 3)
    t_small = exit_probability_exact(tree8, small, 1.5)
    t_big = exit_probability_exact(tree8, big, 1.5)
    for x in small:
        assert t_small.exit_prob[x] >= t_big.exit_prob[x] - 1e-12


SERIES_VERTEX_CALLS = [
    pytest.param(lambda g, v: exit_probability_exact(g, {0, v}, 1.0),
                 id="exit-window"),
    pytest.param(lambda g, v: hitting_probability_exact(g, 0, v, 2.0),
                 id="hitting-target"),
    pytest.param(lambda g, v: hitting_probability_exact(g, v, 0, 2.0),
                 id="hitting-start"),
    pytest.param(lambda g, v: hitting_probability_exact(g, v, v, 2.0),
                 id="hitting-same"),
    pytest.param(lambda g, v: heat_kernel_exact(g, 0, v, 1.0),
                 id="heat-target"),
    pytest.param(lambda g, v: heat_kernel_exact(g, v, v, 0.0),
                 id="heat-same-t0"),
    pytest.param(lambda g, v: heat_kernel_row(g, v, 1.0), id="heat-row"),
    pytest.param(lambda g, v: truncated_green(g, 0, v, 1.0),
                 id="green-target"),
    pytest.param(lambda g, v: truncated_green(g, v, 0, 0.0),
                 id="green-start-t0"),
    pytest.param(lambda g, v: spectral_radius_estimate(g, v, 8),
                 id="spectral"),
]


@pytest.mark.parametrize("call", SERIES_VERTEX_CALLS)
def test_series_reject_out_of_range_vertices(tree8, call):
    # -1 would otherwise index from the end and n past it; a far-away y
    # must not read as an unreachable target
    for v in (-1, tree8.vertex_count, 10**6):
        with pytest.raises(GraphError, match=f"invalid vertex {v}"):
            call(tree8, v)


@pytest.mark.parametrize("call", SERIES_VERTEX_CALLS)
def test_series_reject_non_integer_vertices(tree8, call):
    # a float id inside [0, n) used to read as a vertex (2.5 as a target
    # gave 5.6e-11 or 0.0, a window truncated it with int(), a start of
    # 0.5 ended in numpy's IndexError); a bool is not a vertex id either
    for v in (2.5, 0.5, np.float64(2.0), True, np.bool_(True), "2", None):
        with pytest.raises(GraphError, match="invalid vertex"):
            call(tree8, v)


def test_series_accept_numpy_integer_vertices(tree8):
    assert (hitting_probability_exact(tree8, np.int64(0), np.int32(2), 2.0)
            == hitting_probability_exact(tree8, 0, 2, 2.0))
    assert (exit_probability_exact(tree8, {0, np.uint8(1)}, 1.0).exit_prob
            == exit_probability_exact(tree8, {0, 1}, 1.0).exit_prob)


def test_series_tolerance_budget(z2_box20):
    with pytest.raises(SeriesToleranceError):
        exit_probability_exact(z2_box20, {0}, 5.0, tol=1e-10, max_terms=3)


def test_leakage_budget_enforced():
    from frogsim import LeakageBudgetError
    g = build_graph(GraphSpec("lattice_box", d=1, radius=4))
    # a horizon of 40 on a radius-4 segment drains almost all mass
    with pytest.raises(LeakageBudgetError):
        heat_kernel_exact(g, 0, 0, 40.0, max_leakage=0.5)
    with pytest.raises(LeakageBudgetError):
        truncated_green(g, 0, 0, 40.0, max_leakage=0.5)
    with pytest.raises(LeakageBudgetError):
        hitting_probability_exact(g, 0, 1, 40.0, max_leakage=0.5)
    # comfortably inside the budget at a short horizon
    assert heat_kernel_exact(g, 0, 0, 0.5, max_leakage=0.5) > 0.0


@pytest.mark.parametrize("family,kwargs", [
    ("lattice_box", dict(d=2, radius=12)),
    ("regular_tree", dict(degree=3, depth=8)),
    ("ladder", dict(width=2, length=30)),
])
def test_exit_probability_matches_monte_carlo(family, kwargs):
    g = build_graph(GraphSpec(family, **kwargs))
    rng = Stream(11, family)
    for trial in range(10):
        r = 1 + rng.randint(3)
        S = ball(g, g.origin, r)
        S = {v for v in S if not g.boundary_mask[v]}
        xs = sorted(S)
        x = xs[rng.randint(len(xs))]
        t = 0.5 + rng.uniform() * 1.5
        tab = exit_probability_exact(g, S, t)
        n = 2500
        hits = 0
        for i in range(n):
            tr = sample_trajectory(g, x, t, rng.child("mc", trial, i))
            hits += any(v not in S for v in tr.jumps)
        p = tab.exit_prob[x]
        se = math.sqrt(max(p * (1 - p), 1e-9) / n)
        assert abs(hits / n - p) <= 3 * se + 1e-9


def test_hitting_probability_trivia(z2_box20):
    assert hitting_probability_exact(z2_box20, 3, 3, 1.0) == 1.0
    assert hitting_probability_exact(z2_box20, 0, 3, 0.0) == 0.0


def test_hitting_probability_neighbors_vs_mc(z2_box40):
    y = 1  # a lattice neighbor of the origin
    p = hitting_probability_exact(z2_box40, 0, y, 1.0)
    rng = Stream(13)
    n = 60_000
    hits = sum(y in sample_trajectory(z2_box40, 0, 1.0, rng.child(i)).visited
               for i in range(n))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_heat_kernel_zero_horizon(z2_box20):
    assert heat_kernel_exact(z2_box20, 0, 0, 0.0) == 1.0
    assert heat_kernel_exact(z2_box20, 0, 1, 0.0) == 0.0


def test_heat_kernel_z1_bessel(z1_box):
    # rate-1 walk on the integers: p_t(0,0) = e^{-t} I_0(t)
    val = heat_kernel_exact(z1_box, 0, 0, 1.0, tol=1e-12)
    assert abs(val - math.exp(-1) * iv(0, 1.0)) < 1e-10


def test_heat_kernel_row_sums_and_reversibility(tree8, z2_box40):
    for g, t in ((tree8, 2.0), (z2_box40, 5.0)):
        row = heat_kernel_row(g, g.origin, t)
        assert abs(row.row_sum() - 1.0) < 1e-9
        x, y = 0, 2
        fwd = heat_kernel_exact(g, x, y, t)
        bwd = heat_kernel_exact(g, y, x, t)
        assert abs(g.pi[x] * fwd - g.pi[y] * bwd) < 1e-9


def test_heat_kernel_z2_decay(z2_box40):
    vals = {t: t * heat_kernel_exact(z2_box40, 0, 0, t) for t in (10.0, 20.0, 40.0)}
    lo, hi = min(vals.values()), max(vals.values())
    assert hi / lo < 1.10
    # cross-check against the product of two half-rate 1d kernels
    for t, v in vals.items():
        oracle = (math.exp(-t / 2) * iv(0, t / 2)) ** 2
        assert abs(v / t - oracle) < 1e-8


def test_truncated_green_zero(z2_box20):
    assert truncated_green(z2_box20, 0, 0, 0.0) == 0.0


def test_truncated_green_z2_log_growth():
    # planar on-diagonal growth is log t with slope 1/pi: the raw G/log t
    # ratio carries a large O(1) offset (0.73 vs 0.53 at e^2, e^4), so test
    # the log-increments, which the series oracle puts at 0.658 and 0.639
    g = build_graph(GraphSpec("lattice_box", d=2, radius=60))
    vals = {k: truncated_green(g, 0, 0, math.e ** k) for k in (2, 4, 6)}
    inc1 = vals[4] - vals[2]
    inc2 = vals[6] - vals[4]
    assert abs(inc1 - inc2) / inc1 < 0.10
    assert abs(inc2 - 2 / math.pi) / (2 / math.pi) < 0.15


def test_truncated_green_z3_bounded():
    g = build_graph(GraphSpec("lattice_box", d=3, radius=40))
    v50 = truncated_green(g, 0, 0, 50.0)
    v100 = truncated_green(g, 0, 0, 100.0)
    assert v50 <= v100 <= 1.1 * v50


def test_truncated_green_small_time_quadrature(z1_box):
    # independent oracle: composite Simpson quadrature of the heat kernel
    t = 2.0
    xs = np.linspace(0, t, 41)
    ys = [heat_kernel_exact(z1_box, 0, 0, float(s), tol=1e-12) for s in xs]
    simpson = (xs[1] - xs[0]) / 3 * (
        ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-2:2]))
    assert abs(truncated_green(z1_box, 0, 0, t) - simpson) < 1e-6


# -- range statistics --------------------------------------------------


def test_range_zero_horizon(z2_box20):
    rs = range_statistics(z2_box20, 0, 0.0, 50, Stream(17))
    assert rs.range_size.mean == 1.0 and rs.range_size.stderr == 0.0


def test_range_restriction(z2_box20):
    B = ball(z2_box20, 0, 3)
    H = ball(z2_box20, 0, 1)
    rs = range_statistics(z2_box20, 0, 2.0, 400, Stream(18), B=B, H=H)
    assert 0.0 <= rs.restricted.mean <= len(B) - len(H)


def test_range_tree_linear_lower_tail(tree12):
    rs = range_statistics(tree12, 0, 100.0, 300, Stream(19), alphas=(0.05,))
    assert rs.small_range_tail[0.05].mean <= 0.05


def test_self_intersection_trivia(z2_box20):
    est = self_intersection_profile(z2_box20, 0, 10.0, 6, 50, Stream(20))
    assert est.mean == 0.0  # subsequence has <= 1 term
    est2 = self_intersection_profile(z2_box20, 0, 200.0, 1, 200, Stream(21))
    assert est2.mean > 0.0


def test_self_intersection_tree_bound(tree12):
    rho = 2 * math.sqrt(2) / 3
    est = self_intersection_profile(tree12, 0, 200.0, 20, 400, Stream(22))
    assert est.mean <= self_intersection_bound(200.0, 20, rho) + 3 * est.stderr


# -- bit-identical sampling --------------------------------------------

# Exact outputs recorded from the reference implementation: (jumps,
# absorbed, stream state afterwards) for four walks from the origin, then
# a 15-step discrete walk. The weighted digraph (WEIGHTED_DIGRAPH) has
# non-dyadic weights and a sink (vertex 4), so the cumulative-weight search
# and absorption are both pinned; the bench references cover unweighted
# graphs only.
GOLDEN_WALKS = {
    "z2": (12.0, [
        ([2, 10, 20], True, 14106975560638721906),
        ([4, 10, 4, 0, 1, 7, 15], True, 12785930626639778197),
        ([2, 6, 14], True, 712443159847498968),
        ([2, 8, 18], True, 2941558123090068132),
    ], ([0, 2, 10, 22], 4454090107324014186)),
    "tree": (6.0, [
        ([2, 0, 1, 0, 1], False, 11287941002177256744),
        ([3, 0, 2, 6, 2, 6], False, 6483475733755098219),
        ([3, 9, 20, 9, 20], False, 7094685534063757917),
        ([3, 0, 2, 0, 1, 4, 11, 25], True, 10293201746742259471),
    ], ([0, 1, 4, 11, 25], 14762851282179855011)),
    "weighted": (10.0, [
        ([1, 2, 1, 4], True, 7452420019496555697),
        ([3, 2, 1, 0, 2, 1, 4], True, 12771876137414862897),
        ([3, 2, 1, 2, 1, 2, 0, 3, 2, 1, 2, 1, 0], False, 61452408277225642),
        ([1, 2, 0, 1, 0, 3], False, 5709435474534736942),
    ], ([0, 3, 2, 0, 1, 2, 3, 2, 1, 2, 1, 2, 1, 0, 3, 2],
        7269628211827918528)),
}


def golden_graph(name, tmp_path):
    if name == "z2":
        return build_graph(GraphSpec("lattice_box", d=2, radius=3))
    if name == "tree":
        return build_graph(GraphSpec("regular_tree", degree=3, depth=4))
    p = tmp_path / "weighted.txt"
    p.write_text(WEIGHTED_DIGRAPH)
    return build_graph(GraphSpec("weighted_file", path=str(p)))


@pytest.mark.parametrize("name", sorted(GOLDEN_WALKS))
def test_walk_sampling_golden(name, tmp_path):
    g = golden_graph(name, tmp_path)
    t, walks, (path, path_state) = GOLDEN_WALKS[name]
    for k, (jumps, absorbed, state) in enumerate(walks):
        s = Stream(31, name, k)
        assert walk_positions(g, 0, t, s) == (jumps, absorbed)
        assert s._state == state
    s = Stream(5, "dw", name)
    assert discrete_walk(g, 0, 15, s) == path
    assert s._state == path_state


def test_walk_from_frontier_draws_nothing(tmp_path):
    g = golden_graph("weighted", tmp_path)
    s = Stream(3)
    assert walk_positions(g, 4, 5.0, s) == ([], True)
    assert s._state == Stream(3)._state


# escape_probability(g, [0, 1], 20, 50, 9): same jump chain, other caller
GOLDEN_ESCAPE = {
    "z2": (0.3, 0.0648074069840786),
    "tree": (0.32, 0.06596969000988256),
    "weighted": (0.08, 0.03836665218650176),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ESCAPE))
def test_escape_probability_golden(name, tmp_path):
    est = escape_probability(golden_graph(name, tmp_path), [0, 1], 20, 50, 9)
    assert (est.mean, est.stderr) == GOLDEN_ESCAPE[name]


# Long walks read their uniforms in numpy blocks (walks._walk_blocked).
# Recorded on the per-draw implementation before the block path existed:
# (jump count, last vertex, sha256 prefix of repr(jumps), absorbed, stream
# state afterwards) for walks from the origin of the renormalization box.
# At t = 2500 a walk needs more draws than one block holds, so it refills.
GOLDEN_LONG_Z2 = {
    ("renorm", 64.0): [
        (78, 139, "a2d4cc9285bb1be3", False, 921268868960641550),
        (63, 313, "095625c59a3bd64b", False, 8853649962741521659),
        (59, 14, "bb083749148f7a16", False, 3039376356514663885),
        (59, 109, "8527e547fb422e8e", False, 5460498188812295969),
    ],
    ("renorm-long", 2500.0): [
        (1274, 2560, "769469cc93034cc6", True, 11063919112552373105),
        (1270, 2576, "19b726494d2f4f89", True, 8680812244786513069),
        (548, 2584, "eec6806d6dfad48c", True, 15473159657809138343),
    ],
}


def jumps_digest(jumps):
    return hashlib.sha256(repr(jumps).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN_LONG_Z2))
def test_long_walk_golden_z2(case):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=36))
    label, t = case
    for k, (count, last, digest, absorbed, state) in enumerate(
            GOLDEN_LONG_Z2[case]):
        s = Stream(31, label, k)
        jumps, hit = walk_positions(g, 0, t, s)
        assert (len(jumps), jumps[-1], jumps_digest(jumps), hit) == \
            (count, last, digest, absorbed)
        assert s._state == state


# Weighted digraph walks from vertex 2 at t = 40 and from 0 at t = 8 (the
# first horizon on the block path), recorded like GOLDEN_LONG_Z2. The sink
# absorbs every walk long before a block of the natural size runs out, so
# the test also shrinks the block cap to force refills mid-walk.
GOLDEN_LONG_WEIGHTED = {
    ("weighted-long", 2, 40.0): [
        ([1, 4], True, 14604107877053826621),
        ([0, 3, 0, 1, 2, 3, 2, 1, 2, 0, 3, 4], True, 12737964433841918114),
        ([0, 1, 2, 0, 3, 2, 1, 4], True, 16101474870163041850),
        ([1, 0, 1, 2, 1, 2, 3, 2, 1, 2, 1, 2, 1, 4], True,
         11574786581226965161),
        ([1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 2, 1, 0, 1, 2, 1, 0, 1, 2, 0, 3, 2,
          0, 3, 2, 0, 3, 2, 0, 3, 4], True, 5671028305773289011),
        ([0, 1, 0, 3, 0, 1, 2, 0, 3, 0, 1, 2, 1, 2, 1, 4], True,
         1200212065000183461),
    ],
    ("weighted-8", 0, 8.0): [
        ([3, 2, 0, 3, 2], False, 4418218651140727617),
        ([3, 0, 1, 2, 0, 1, 2, 1], False, 13906753214159292415),
        ([3, 2, 0, 1, 2, 1], False, 3854597822483625286),
        ([3, 2, 0, 2, 0, 2, 1, 2], False, 8115374471522390646),
        ([3, 2, 1, 0, 1, 0, 1, 4], True, 8515702264471914910),
        ([1, 2, 1, 0, 3], False, 13070294016832439294),
    ],
}


@pytest.mark.parametrize("block_max", [walks._BLOCK_MAX, 5, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN_LONG_WEIGHTED))
def test_long_walk_golden_weighted(case, block_max, tmp_path, monkeypatch):
    monkeypatch.setattr(walks, "_BLOCK_MAX", block_max)
    g = golden_graph("weighted", tmp_path)
    label, x, t = case
    for k, (jumps, absorbed, state) in enumerate(GOLDEN_LONG_WEIGHTED[case]):
        s = Stream(31, label, k)
        assert walk_positions(g, x, t, s) == (jumps, absorbed)
        assert s._state == state


@pytest.fixture(scope="module")
def walk_graphs(tmp_path_factory):
    return {name: golden_graph(name, tmp_path_factory.mktemp(name))
            for name in ("z2", "tree", "weighted")}


@given(st.sampled_from(["z2", "tree", "weighted"]),
       st.floats(min_value=0.0, max_value=3 * walks._BLOCK_HORIZON),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=2, max_value=40))
@settings(max_examples=300, deadline=None)
def test_block_and_drawwise_walks_agree(walk_graphs, name, t, key, n):
    g = walk_graphs[name]
    pick, boundary = walks.jump_picker(g), g.walk_tables()[2]
    a, b, c = Stream(key), Stream(key), Stream(key)
    expected = walks._walk_drawwise(pick, boundary, 0, t, a)
    assert walks._walk_blocked(pick, boundary, 0, t, b, n) == expected
    assert b._state == a._state
    assert walk_positions(g, 0, t, c) == expected
    assert c._state == a._state



# -- batched walks -----------------------------------------------------


def stream_with_key(key):
    s = Stream(0)
    s.key = s._state = key
    return s


@example(name="z2", x=0, t=64.0, key=2**64 - 1)
@example(name="tree", x=1, t=100.0, key=7)
@example(name="weighted", x=2, t=70.0, key=5)
@example(name="weighted", x=4, t=5.0, key=3)   # frontier start
@given(st.sampled_from(["z2", "tree", "weighted"]),
       st.integers(min_value=0, max_value=4),
       st.floats(min_value=0.0, max_value=24.0),
       st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_walk_batch_matches_walk_positions(walk_graphs, name, x, t, key):
    check_batch_matches_walk_positions(walk_graphs[name], x, t, key)


def check_batch_matches_walk_positions(g, x, t, key):
    keys = derive_keys(key, "batch", count=30)
    positions, counts, absorbed = walk_batch(g, x, t, keys)
    assert positions.shape[0] == counts.size == absorbed.size == keys.size
    for row, n, hit, k in zip(positions.tolist(), counts.tolist(),
                              absorbed.tolist(), keys.tolist()):
        assert (row[:n], hit) == walk_positions(g, x, t, stream_with_key(k))
        assert row[n:] == [-1] * (len(row) - n)


@example(name="z2", starts=[24, 0, 24, 5], t=9.0, key=1)   # frontier starts
@example(name="weighted", starts=[4, 0, 2, 1], t=70.0, key=5)
@given(st.sampled_from(["z2", "tree", "weighted"]),
       st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=12),
       st.floats(min_value=0.0, max_value=24.0),
       st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_walk_batch_multi_start(walk_graphs, name, starts, t, key):
    check_batch_multi_start(walk_graphs[name], starts, t, key)


def check_batch_multi_start(g, starts, t, key):
    starts = [x % g.vertex_count for x in starts]
    keys = derive_keys(key, "multi", count=len(starts))
    positions, counts, absorbed = walk_batch(g, np.array(starts), t, keys)
    for row, n, hit, k, x in zip(positions.tolist(), counts.tolist(),
                                 absorbed.tolist(), keys.tolist(), starts):
        assert (row[:n], hit) == walk_positions(g, x, t, stream_with_key(k))
        assert row[n:] == [-1] * (len(row) - n)


# Every elapsed <= t comparison on the exact path: the margin is infinite,
# so each walk re-adds its holding times with math.log1p at every jump.
@given(st.sampled_from(["z2", "tree", "weighted"]),
       st.integers(min_value=0, max_value=4),
       st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=12),
       st.floats(min_value=0.0, max_value=24.0),
       st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_walk_batch_all_exact_comparisons(walk_graphs, name, x, starts, t,
                                          key):
    with mock.patch.object(walks, "_EXACT_MARGIN", math.inf):
        check_batch_matches_walk_positions(walk_graphs[name], x, t, key)
        check_batch_multi_start(walk_graphs[name], starts, t, key)


def adversarial_horizon(g, x, label, below_numpy, m_min=2, m_max=40):
    """A key and horizon t at which the numpy and math.log1p sums of the
    walk from x disagree about elapsed <= t after m >= m_min holding
    times, with m - 1 jumps made before. below_numpy: the exact sum is the
    smaller one (t is it, so walk_positions makes one more jump than the
    numpy sum allows); else t is the numpy sum (one fewer)."""
    for key in derive_keys(7, label, count=5000).tolist():
        us = uniforms_at(np.array([key], dtype=np.uint64), 1,
                         count=2 * m_max)[::2, 0].tolist()
        fast = itertools.accumulate((-np.log1p(-np.array(us))).tolist())
        exact = itertools.accumulate(-math.log1p(-u) for u in us)
        for m, (s, e) in enumerate(zip(fast, exact), start=1):
            if m >= m_min and s != e and (e < s) == below_numpy:
                t = min(s, e)
                jumps, absorbed = walk_positions(g, x, t, stream_with_key(key))
                if not absorbed and len(jumps) == m - (not below_numpy):
                    return key, t, m
                break
    raise AssertionError("no adversarial key found")


@pytest.mark.parametrize("below_numpy", [True, False])
@pytest.mark.parametrize("name", ["z2", "weighted"])
def test_walk_batch_exact_where_numpy_sum_errs(name, below_numpy, z2_box20,
                                               tmp_path):
    g = z2_box20 if name == "z2" else golden_graph("weighted", tmp_path)
    x = g.origin if name == "z2" else 0
    key, t, _ = adversarial_horizon(g, x, name, below_numpy)
    keys = np.array([key], dtype=np.uint64)
    expected = walk_positions(g, x, t, stream_with_key(key))
    positions, counts, absorbed = walk_batch(g, x, t, keys)
    assert (positions[0, :counts[0]].tolist(), bool(absorbed[0])) == expected
    # the numpy sum alone decides the m-th comparison the other way
    with mock.patch.object(walks, "_EXACT_MARGIN", 0.0):
        _, fast_counts, _ = walk_batch(g, x, t, keys)
    assert fast_counts[0] == len(expected[0]) + (-1 if below_numpy else 1)


def test_walk_batch_frontier_start(walk_graphs):
    # vertex 24 lies on the frontier of the radius-3 box
    positions, counts, absorbed = walk_batch(walk_graphs["z2"], 24, 3.0,
                                             derive_keys(1, count=5))
    assert positions.shape == (5, 0)
    assert counts.tolist() == [0] * 5 and absorbed.all()


# Outputs of the three per-replica walk loops that run as one walk_batch,
# recorded on the per-walk implementation before the batch path existed.
# Z^2 box of radius 20, regular tree of depth 8, the weighted digraph.
GOLDEN_EXIT_JUMPS = {
    # (graph, x, t, window radius or None for {0,1,2,3}, replicas, seed
    # labels): ((mean, stderr, accepted) or None, bound, accepted, rate)
    ("z2", 0, 1.0, 3, 300, (41, "ec", 0)):
        ((4.0, 0.0, 1), 1280.0, 1, 0.0033333333333333335),
    ("z2", 1, 1.0, 3, 300, (41, "ec", 1)):
        ((3.0, 0.0, 7), 256.0, 7, 0.023333333333333334),
    ("z2", 2, 1.0, 3, 300, (41, "ec", 2)):
        ((3.25, 0.25, 4), 256.0, 4, 0.013333333333333334),
    ("z2", 24, 1.0, 3, 300, (41, "ec", 24)):
        ((1.5602836879432624, 0.06779849332161422, 141), 8.0, 141, 0.47),
    ("z2", 0, 12.0, 3, 200, (42,)):
        ((12.576642335766424, 0.297896343384056, 137), 4096.0, 137, 0.685),
    ("tree", 0, 2.0, 3, 300, (43,)):
        ((4.733333333333333, 0.28396288601667763, 15), 486.0, 15, 0.05),
    ("tree", 5, 0.0, 3, 10, (44,)): (None, 18.0, 0, 0.0),
    ("weighted", 2, 3.0, None, 300, (45,)):
        ((2.8125, 0.17061026611322605, 32), 45.0, 32, 0.10666666666666667),
    ("weighted", 0, 10.0, None, 200, (46,)):
        ((5.833333333333333, 0.4078062239666241, 78), 108.0, 78, 0.39),
}

GOLDEN_RANGE = {
    # (graph, x, t, replicas, seed, B, H, alphas):
    # (restricted mean, stderr), (range mean, stderr), {alpha: tail}
    ("z2", 0, 2.0, 300, 51, "ball2", (1, 2), ()):
        ((2.02, 0.04860139787227688), (2.6966666666666668,
                                       0.061873091485867886), {}),
    ("z2", 5, 20.0, 100, 52, None, (), (0.3, 0.5)):
        ((13.04, 0.3887093380598794), (13.04, 0.3887093380598794),
         {0.3: (0.02, 0.014), 0.5: (0.29, 0.045376205218153706)}),
    ("tree", 0, 6.0, 200, 53, None, (0,), (0.5,)):
        ((4.285, 0.1137257346143249), (5.285, 0.1137257346143249),
         {0.5: (0.125, 0.023385358667337135)}),
    ("weighted", 0, 5.0, 200, 54, (0, 1, 4), (), ()):
        ((1.95, 0.04056758118517887), (3.425, 0.05133274053911678), {}),
    ("weighted", 4, 5.0, 20, 55, None, (), ()): ((1.0, 0.0), (1.0, 0.0), {}),
}

GOLDEN_GOOD_SET = {
    # (graph, A, t, alpha, replicas, seed, rho): (members, fraction, probs)
    ("tree", "ball2", 6.0, 0.2, 40, 61, 0.9):
        (set(range(10)), 1.0, [0.525, 0.525, 0.55, 0.725, 0.725, 0.675, 0.7,
                               0.675, 0.675, 0.725]),
    ("z2", "ball2", 1.0, 0.5, 50, 62, 0.5):
        (set(range(4, 13)), 0.6923076923076923,
         [0.04, 0.08, 0.12, 0.1, 0.14, 0.48, 0.4, 0.26, 0.56, 0.4, 0.32,
          0.36, 0.6]),
    ("z2", (0, 1), 20.0, 0.6, 30, 63, 0.5):
        ({0, 1}, 1.0, [0.43333333333333335, 0.3333333333333333]),
    ("z2", (0, 1, 2), 70.0, 0.4, 20, 65, 0.5):
        ({0, 1, 2}, 1.0, [0.8, 0.85, 0.95]),
    ("weighted", (0, 1), 4.0, 0.25, 60, 64, 0.5):
        ({0, 1}, 1.0, [0.6166666666666667, 0.5333333333333333]),
}


@pytest.fixture(scope="module")
def golden_batch_graphs(z2_box20, tree8, tmp_path_factory):
    return {"z2": z2_box20, "tree": tree8,
            "weighted": golden_graph("weighted", tmp_path_factory.mktemp("w"))}


def vertex_set(g, spec):
    return ball(g, 0, 2) if spec == "ball2" else set(spec)


@pytest.mark.parametrize("case", sorted(GOLDEN_EXIT_JUMPS, key=repr))
def test_exit_conditional_jumps_golden(golden_batch_graphs, case):
    name, x, t, radius, replicas, labels = case
    g = golden_batch_graphs[name]
    S = {0, 1, 2, 3} if radius is None else ball(g, 0, radius)
    stats = exit_conditional_jumps(g, S, x, t, replicas, Stream(*labels))
    e = stats.estimate
    est = None if e is None else (e.mean, e.stderr, e.replicas)
    assert (est, stats.bound, stats.accepted, stats.exit_rate) == \
        GOLDEN_EXIT_JUMPS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_RANGE, key=repr))
def test_range_statistics_golden(golden_batch_graphs, case):
    name, x, t, replicas, seed, B, H, alphas = case
    g = golden_batch_graphs[name]
    rs = range_statistics(g, x, t, replicas, Stream(seed),
                          B=None if B is None else vertex_set(g, B), H=H,
                          alphas=alphas)
    got = ((rs.restricted.mean, rs.restricted.stderr),
           (rs.range_size.mean, rs.range_size.stderr),
           {a: (e.mean, e.stderr) for a, e in rs.small_range_tail.items()})
    assert got == GOLDEN_RANGE[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_GOOD_SET, key=repr))
def test_good_set_G_A_golden(golden_batch_graphs, case):
    name, A, t, alpha, replicas, seed, rho = case
    g = golden_batch_graphs[name]
    rep = good_set_G_A(g, vertex_set(g, A), t, alpha, replicas, seed,
                       rho=rho, K=1.0)
    members, fraction, probs = GOLDEN_GOOD_SET[case]
    assert (rep.members, rep.fraction) == (members, fraction)
    assert [p for _, p in sorted(rep.escape_probs.items())] == probs


# -- exact series golden values ------------------------------------------

# A closed undirected weighted graph: no frontier, so transition_matrix()
# keeps the unsorted column order of its CSR arrays, and a kernel slice
# that kept that order would sum some rows in a different order.
CLOSED_GRAPH = """frogsim-graph v1 undirected
0 5 1.5
0 1 0.25
1 4 2.0
4 2 0.7
2 3 1.1
3 5 0.3
5 1 3.0
2 0 0.9
6 3 0.45
6 4 1.2
"""

# Recorded from the reference implementation (one CSR kernel built per
# call in a Python loop): per (graph, t), the pair (x, y), float.hex of
# every exit_probability_exact entry on the window (sorted vertex order)
# and its truncation error, hitting_probability_exact(x, y) and (y, x),
# truncated_green(x, y), and for heat_kernel_row(x) the sha256 prefix of
# repr(support), its length, the sha256 prefix of mass.tobytes(), the
# frontier leakage and the truncation error.
GOLDEN_SERIES = {
    ('z2', 0.5): (
        5, 0,
        ['0x1.9f4ef98288180p-8', '0x1.46d6ab081b020p-5',
         '0x1.46d6ab081b020p-5', '0x1.46d6ab081b020p-5',
         '0x1.46d6ab081b020p-5', '0x1.2fce874f0c774p-2',
         '0x1.9966dc58175ecp-3', '0x1.9966dc58175ecp-3',
         '0x1.2fce874f0c774p-2', '0x1.2fce874f0c774p-2',
         '0x1.9966dc58175ecp-3', '0x1.9966dc58175ecp-3',
         '0x1.2fce874f0c774p-2'],
        '0x1.105b000000000p-37',
        '0x1.76e37fd3ef280p-8', '0x1.76e37ffcdc000p-8',
        '0x1.dd1fd00b5d5cdp-11',
        ('d0e794e10cc33c03', 61, '411953c4d57c41fe',
         '0x1.bd81f4c5f35dep-9', '0x1.105b000000000p-37')),
    ('z2', 2.0): (
        5, 0,
        ['0x1.3d8f1b14a5c48p-3', '0x1.308d3dde8d4d8p-2',
         '0x1.308d3dde8d4d8p-2', '0x1.308d3dde8d4d8p-2',
         '0x1.308d3dde8d4d8p-2', '0x1.5fe0f1c60bd6ep-1',
         '0x1.050c8e1b15b50p-1', '0x1.050c8e1b15b50p-1',
         '0x1.5fe0f1c60bd6ep-1', '0x1.5fe0f1c60bd6ep-1',
         '0x1.050c8e1b15b50p-1', '0x1.050c8e1b15b50p-1',
         '0x1.5fe0f1c60bd6ep-1'],
        '0x1.ed1cc00000000p-35',
        '0x1.6be40b1cdd1b0p-5', '0x1.6be58b7467010p-5',
        '0x1.8543ecfb554f6p-6',
        ('d0e794e10cc33c03', 61, '6205317a4828df47',
         '0x1.5a1f7ed0b33c7p-4', '0x1.ed1cc00000000p-35')),
    ('z2', 8.0): (
        5, 0,
        ['0x1.9458b1936b65ap-1', '0x1.af28e854f8ce3p-1',
         '0x1.af28e854f8ce3p-1', '0x1.af28e854f8ce3p-1',
         '0x1.af28e854f8ce3p-1', '0x1.e4f5323354c13p-1',
         '0x1.ca165ca8b1a2ap-1', '0x1.ca165ca8b1a2ap-1',
         '0x1.e4f5323354c13p-1', '0x1.e4f5323354c13p-1',
         '0x1.ca165ca8b1a2ap-1', '0x1.ca165ca8b1a2ap-1',
         '0x1.e4f5323354c13p-1'],
        '0x1.18ed400000000p-35',
        '0x1.3e76958e64a24p-3', '0x1.4081806ff0154p-3',
        '0x1.78d1c64f25845p-3',
        ('d0e794e10cc33c03', 61, '686f96e66ddd899d',
         '0x1.03362a10d4b78p-1', '0x1.18ed400000000p-35')),
    ('z2', 20.0): (
        5, 0,
        ['0x1.faa233a2347bcp-1', '0x1.fbf9a6af5363ep-1',
         '0x1.fbf9a6af5363ep-1', '0x1.fbf9a6af5363ep-1',
         '0x1.fbf9a6af5363ep-1', '0x1.fea88cdb45ba3p-1',
         '0x1.fd5119c83ffabp-1', '0x1.fd5119c83ffabp-1',
         '0x1.fea88cdb45ba3p-1', '0x1.fea88cdb45ba3p-1',
         '0x1.fd5119c83ffabp-1', '0x1.fd5119c83ffabp-1',
         '0x1.fea88cdb45ba3p-1'],
        '0x1.8e17800000000p-34',
        '0x1.c1796d8efacd0p-3', '0x1.d8d5567358158p-3',
        '0x1.6c2509473341ep-2',
        ('d0e794e10cc33c03', 61, '33e11819e39cace4',
         '0x1.b0cac8a60c6d8p-1', '0x1.8e17800000000p-34')),
    ('tree', 0.5): (
        4, 0,
        ['0x1.a5dd9b57dbe80p-8', '0x1.4bfb555579580p-5',
         '0x1.4bfb555579580p-5', '0x1.4bfb555579580p-5',
         '0x1.0ece3d1b28a48p-2', '0x1.0ece3d1b28a48p-2',
         '0x1.0ece3d1b28a48p-2', '0x1.0ece3d1b28a48p-2',
         '0x1.0ece3d1b28a48p-2', '0x1.0ece3d1b28a48p-2'],
        '0x1.105b000000000p-37',
        '0x1.4b451d03c4140p-7', '0x1.4b451d2da2c00p-7',
        '0x1.a6fcd72d0d8fbp-10',
        ('315ef8624ff9014f', 94, 'ed781fcdde6a7e3e',
         '0x1.199e45cfe821fp-8', '0x1.105b000000000p-37')),
    ('tree', 2.0): (
        4, 0,
        ['0x1.423bbaef73f68p-3', '0x1.34df57ed66d2ap-2',
         '0x1.34df57ed66d2ap-2', '0x1.34df57ed66d2ap-2',
         '0x1.41fddddf4afa8p-1', '0x1.41fddddf4afa8p-1',
         '0x1.41fddddf4afa8p-1', '0x1.41fddddf4afa8p-1',
         '0x1.41fddddf4afa8p-1', '0x1.41fddddf4afa8p-1'],
        '0x1.ed1cc00000000p-35',
        '0x1.2d2ae14e63578p-4', '0x1.2d2c627bad238p-4',
        '0x1.4e0faac4bc579p-5',
        ('315ef8624ff9014f', 94, 'a018ec33ecced1c3',
         '0x1.b5ad5218dbdd0p-4', '0x1.ed1cc00000000p-35')),
    ('tree', 8.0): (
        4, 0,
        ['0x1.97431c908ebd7p-1', '0x1.b1d4ac4f76f22p-1',
         '0x1.b1d4ac4f76f22p-1', '0x1.b1d4ac4f76f22p-1',
         '0x1.dcf90eaed4d44p-1', '0x1.dcf90eaed4d44p-1',
         '0x1.dcf90eaed4d44p-1', '0x1.dcf90eaed4d44p-1',
         '0x1.dcf90eaed4d44p-1', '0x1.dcf90eaed4d44p-1'],
        '0x1.18ed400000000p-35',
        '0x1.89bf065a2c9dcp-3', '0x1.8cfe3bbe2f69cp-3',
        '0x1.09922df861c5bp-2',
        ('315ef8624ff9014f', 94, '84ebc62d3fa9d16e',
         '0x1.3f5d05f96035ap-1', '0x1.18ed400000000p-35')),
    ('tree', 20.0): (
        4, 0,
        ['0x1.fb0fc4b6c3060p-1', '0x1.fc51b27efcb2ep-1',
         '0x1.fc51b27efcb2ep-1', '0x1.fc51b27efcb2ep-1',
         '0x1.fe5a96dbc8a87p-1', '0x1.fe5a96dbc8a87p-1',
         '0x1.fe5a96dbc8a87p-1', '0x1.fe5a96dbc8a87p-1',
         '0x1.fe5a96dbc8a87p-1', '0x1.fe5a96dbc8a87p-1'],
        '0x1.8e17800000000p-34',
        '0x1.ca7ee9563d590p-3', '0x1.e13c778cfadb8p-3',
        '0x1.a03d7fc04285fp-2',
        ('315ef8624ff9014f', 94, 'eead94a250d3a85d',
         '0x1.deed9eae5cb32p-1', '0x1.8e17800000000p-34')),
    ('weighted', 0.5): (
        2, 0,
        ['0x1.42c6e0f225e40p-7', '0x1.ada56ec6beb50p-5',
         '0x1.faa6375250700p-8', '0x1.54330023bb4f0p-5'],
        '0x1.105b000000000p-37',
        '0x1.53f57dc8b5040p-3', '0x1.4bfec5c78a9e8p-4',
        '0x1.303325ac4d2dfp-5',
        ('86c1b3261036a829', 5, 'a2c2b8183c3877fb',
         '0x1.faa63749cd93dp-8', '0x1.105b000000000p-37')),
    ('weighted', 2.0): (
        2, 0,
        ['0x1.4089bd5d993d8p-4', '0x1.27092db958144p-3',
         '0x1.1e15538639d50p-4', '0x1.f029d3c5f4d48p-4'],
        '0x1.ed1cc00000000p-35',
        '0x1.e6940b65b40cap-2', '0x1.c304cbdf21174p-2',
        '0x1.49e8b1a2f077cp-2',
        ('86c1b3261036a829', 5, '4c00bb301e1301de',
         '0x1.1e1553825f9a6p-4', '0x1.ed1cc00000000p-35')),
    ('weighted', 8.0): (
        2, 0,
        ['0x1.5200638fe3558p-2', '0x1.851d14b1ca488p-2',
         '0x1.4b02d8b22a6b8p-2', '0x1.710332ea24794p-2'],
        '0x1.18ed400000000p-35',
        '0x1.a713ef5e8e502p-1', '0x1.afe6b70f99337p-1',
        '0x1.748253514febep+0',
        ('86c1b3261036a829', 5, '316da831abdb6a7c',
         '0x1.4b02d8b19df52p-2', '0x1.18ed400000000p-35')),
    ('weighted', 20.0): (
        2, 0,
        ['0x1.4aefe7581dbf8p-1', '0x1.586e4188ac753p-1',
         '0x1.49182c1f5bfcap-1', '0x1.531f4c54091aep-1'],
        '0x1.8e17800000000p-34',
        '0x1.bd02963f3628ep-1', '0x1.b97e71ff94e4ap-1',
        '0x1.7115019f9ed59p+1',
        ('86c1b3261036a829', 5, '9e03426f7a461c96',
         '0x1.49182c1e94f0ep-1', '0x1.8e17800000000p-34')),
    ('closed', 0.5): (
        3, 0,
        ['0x1.d701954bf17acp-3', '0x1.eab7882c74c9cp-3',
         '0x1.4e6cf73e6a9f0p-5', '0x1.4e86a51931790p-3',
         '0x1.32d9736c7b220p-3'],
        '0x1.105b000000000p-37',
        '0x1.053446270b54cp-3', '0x1.d4e132ba76ee4p-3',
        '0x1.db55fe5fef0a6p-6',
        ('068ff0cf40cd49ec', 7, 'cec382719945598f',
         '0x0.0p+0', '0x1.105b000000000p-37')),
    ('closed', 2.0): (
        3, 0,
        ['0x1.2afd41c2fbfe9p-1', '0x1.41a1fe9b08c1ep-1',
         '0x1.48948a55523aep-2', '0x1.cbaded38bc7c4p-2',
         '0x1.0224bfc3b42c4p-1'],
        '0x1.ed1cc00000000p-35',
        '0x1.5a567f6f68ab6p-2', '0x1.1e60a18817848p-1',
        '0x1.dc865965686eap-3',
        ('068ff0cf40cd49ec', 7, 'df06e82083e555e0',
         '0x0.0p+0', '0x1.ed1cc00000000p-35')),
    ('closed', 8.0): (
        3, 0,
        ['0x1.e1e91bcb9fd3cp-1', '0x1.ec4684bf41cccp-1',
         '0x1.c952963eb5aa3p-1', '0x1.d07f52a727738p-1',
         '0x1.e1de6a6182e4cp-1'],
        '0x1.18ed400000000p-35',
        '0x1.5ad99e8ecc930p-1', '0x1.bb819e76f1d6ep-1',
        '0x1.fdb77b096270cp-1',
        ('068ff0cf40cd49ec', 7, 'f6502da8d9445725',
         '0x0.0p+0', '0x1.18ed400000000p-35')),
    ('closed', 20.0): (
        3, 0,
        ['0x1.ff612faf515e0p-1', '0x1.ffa0515aedf82p-1',
         '0x1.fedeacf2821d9p-1', '0x1.ff01650745323p-1',
         '0x1.ff6a5f2fa397ep-1'],
        '0x1.8e17800000000p-34',
        '0x1.d32bce00c7312p-1', '0x1.f7459d608c8b0p-1',
        '0x1.3275e46f52aa2p+1',
        ('068ff0cf40cd49ec', 7, 'e1a1aa411acb18d7',
         '0x0.0p+0', '0x1.8e17800000000p-34')),
}

@pytest.fixture(scope="module")
def series_graphs(tmp_path_factory):
    d = tmp_path_factory.mktemp("series")
    (d / "closed.txt").write_text(CLOSED_GRAPH)
    return {"z2": build_graph(GraphSpec("lattice_box", d=2, radius=5)),
            "tree": build_graph(GraphSpec("regular_tree", degree=3, depth=5)),
            "weighted": golden_graph("weighted", d),
            "closed": build_graph(GraphSpec("weighted_file",
                                            path=str(d / "closed.txt")))}


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN_SERIES))
def test_series_golden(series_graphs, case):
    name, t = case
    g = series_graphs[name]
    x, y, exits, trunc, hit, hit_rev, green, heat = GOLDEN_SERIES[case]
    S = {"weighted": {0, 1, 2, 3}, "closed": {0, 1, 2, 4, 5}}.get(
        name, ball(g, g.origin, 2))
    table = exit_probability_exact(g, S, t)
    assert list(table.exit_prob) == sorted(S)
    assert [p.hex() for p in table.exit_prob.values()] == exits
    assert table.truncation_error.hex() == trunc
    assert hitting_probability_exact(g, x, y, t).hex() == hit
    assert hitting_probability_exact(g, y, x, t).hex() == hit_rev
    assert truncated_green(g, x, y, t).hex() == green
    row = heat_kernel_row(g, x, t)
    assert (short_digest(repr(row.support.tolist()).encode()),
            len(row.support), short_digest(row.mass.tobytes()),
            row.boundary_leakage.hex(), row.truncation_error.hex()) == heat


# Recorded before the kernel products moved from scipy.sparse to
# np.bincount: per (graph, nmax), float.hex of spectral_radius_estimate's
# estimate and leakage from the origin, then the sha256 prefix of
# returns, root_seq, ratio_seq and richardson_seq (their tobytes()).
GOLDEN_SPECTRAL = {
    ("tree16", 30): ('0x1.ded148eda9060p-1', '0x1.dd31df9d2f0ddp-3',
                     '88f3bd514fa0920c', '84fa6d27e13a7eda',
                     '5262f4ab08885ea7', '8eadb7861499c394'),
    ("z2_box40", 60): ('0x1.ffb4abd7fb480p-1', '0x1.9d5da9aac89fep-22',
                       'f116d79ec0e24309', '9bd688fda00b9000',
                       '8f9d90a540f01949', '68f5798cd02c1ef6'),
    ("ladder240", 60): ('0x1.ffe1127226960p-1', '0x0.0p+0',
                        '62b6682e037595ad', '8cf4cb5105c56f94',
                        'ff220ab9c76e4d35', '2fb22300af266dde'),
    ("closed", 20): ('0x1.9bcfac9f94a68p-1', '0x0.0p+0',
                     '819647ca6e9b195d', '9fa619cd27ce2711',
                     '8f5f04d55a4b29e6', 'ba131e84f9a9d365'),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SPECTRAL))
def test_spectral_golden(request, series_graphs, case):
    name, nmax = case
    g = (series_graphs[name] if name in series_graphs
         else request.getfixturevalue(name))
    est = spectral_radius_estimate(g, g.origin, nmax)
    assert (est.estimate.hex(), est.leakage.hex(),
            *(short_digest(a.tobytes()) for a in (
                est.returns, est.root_seq, est.ratio_seq,
                est.richardson_seq))) == GOLDEN_SPECTRAL[case]
