import math
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogsim import (GraphError, GraphSpec, ball, build_graph, cheeger_of_set,
                     distance_to_complement, distances_from, growth_profile,
                     sphere, spectral_radius_estimate,
                     stationary_control_constant)
from conftest import WEIGHTED_DIGRAPH, bfs_oracle


def z2_neighbors(p):
    x, y = p
    return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


# -- construction ------------------------------------------------------


def test_lattice_box_tiny():
    g = build_graph(GraphSpec("lattice_box", d=2, radius=1))
    assert g.vertex_count == 5
    assert g.origin == 0 and g.dist[0] == 0


def test_lattice_box_radius40_count_matches_bfs(z2_box40):
    # oracle: plain BFS on Z^2 coordinates out to distance 40
    dist = bfs_oracle(z2_neighbors, (0, 0), radius=40)
    assert z2_box40.vertex_count == len(dist) == 3281



def test_origin_distances_are_read_only():
    # distances_from(g, origin) is g.dist itself, which ball reads
    g = build_graph(GraphSpec("lattice_box", d=2, radius=6))
    d = distances_from(g, g.origin)
    with pytest.raises(ValueError):
        d[50] = 0
    assert len(ball(g, g.origin, 1)) == 5
    other = distances_from(g, 3)
    other[50] = 0                      # any other source gives a fresh array

def test_regular_tree_counts():
    g = build_graph(GraphSpec("regular_tree", degree=3, depth=2))
    assert g.vertex_count == 10
    g4 = build_graph(GraphSpec("regular_tree", degree=4, depth=3))
    assert g4.vertex_count == 1 + 4 + 12 + 36


def test_boundary_is_outermost_shell(z2_box20, tree8):
    assert set(np.flatnonzero(z2_box20.boundary_mask)) == \
        set(np.flatnonzero(z2_box20.dist == 20))
    assert set(np.flatnonzero(tree8.boundary_mask)) == \
        set(np.flatnonzero(tree8.dist == 8))


def test_ladder_boundary_is_end_columns(ladder240):
    ends = {v for v in range(ladder240.vertex_count)
            if abs(int(ladder240.coords[v][0])) == 240}
    assert ladder240.boundary_set == ends


def test_vertex_budget_enforced():
    with pytest.raises(GraphError):
        build_graph(GraphSpec("regular_tree", degree=3, depth=20,
                              max_vertices=1000))


def test_bfs_id_order(z2_box20, tree8):
    for g in (z2_box20, tree8):
        assert np.all(np.diff(g.dist) >= 0)


def test_row_stochastic_and_reversible(z2_box20):
    g = z2_box20
    rows, _, vals = g.transition_matrix()
    sums = np.bincount(rows, vals, g.vertex_count)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    # intrinsic kernel reversibility: pi(x) w(x,y)/pi(x) = w(x,y) symmetric
    for x in (0, 1, 7):
        for y in g.out_neighbors(x):
            assert g.edge_weight(x, int(y)) == g.edge_weight(int(y), x)


# -- balls, spheres, growth --------------------------------------------


def test_ball_trivia(z2_box40, tree12):
    assert ball(z2_box40, 17, 0) == {17}
    assert len(ball(z2_box40, 0, 1)) == 5
    tr10 = build_graph(GraphSpec("regular_tree", degree=3, depth=10))
    assert len(ball(tr10, 0, 2)) == 10


def test_ball_nested_and_matches_oracle(z2_box20):
    dist = bfs_oracle(z2_neighbors, (0, 0), radius=20)
    for r in range(0, 8):
        b = ball(z2_box20, 0, r)
        assert b <= ball(z2_box20, 0, r + 1)
        assert len(b) == sum(1 for d in dist.values() if d <= r)
    assert len(sphere(z2_box20, 0, 3)) == 12


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=25, deadline=None)
def test_ball_monotone_any_center(z2_box20, r1, r2):
    x = 33
    if r1 > r2:
        r1, r2 = r2, r1
    assert ball(z2_box20, x, r1) <= ball(z2_box20, x, r2)


def test_growth_profile_z2(z2_box40):
    sizes, slope, nearest = growth_profile(z2_box40, 0, 20)
    for n in (3, 11, 20):
        assert sizes[n] == 2 * n * n + 2 * n + 1
    assert 1.8 <= slope <= 2.2 and nearest == 2


def test_growth_profile_ladder():
    g = build_graph(GraphSpec("ladder", width=2, length=400))
    sizes, slope, nearest = growth_profile(g, 0, 100)
    # exact count: both rows out to column n
    for n in (10, 50, 100):
        assert sizes[n] == 4 * n
    assert 0.9 <= slope <= 1.1 and nearest == 1


def test_growth_profile_tree_exponential():
    g = build_graph(GraphSpec("regular_tree", degree=3, depth=17))
    sizes, _, _ = growth_profile(g, 0, 15)
    assert sizes[15] == 1 + 3 * (2 ** 15 - 1)
    rate = math.log(sizes[15]) / 15
    assert abs(rate - math.log(2)) < 0.1


def test_growth_profile_rejects_boundary_distortion(z2_box20):
    with pytest.raises(GraphError):
        growth_profile(z2_box20, 0, 20)


# -- every distance query against a plain queue BFS --------------------


def deque_bfs(g, x, stop=None):
    """{vertex: distance from x} along out-edges, in visit order; with
    `stop`, the search ends at the first dequeued vertex v with stop(v)."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if stop is not None and stop(v):
            break
        for u in g.out_neighbors(v).tolist():
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def reference_graph(name, tree8, tmp_path_factory):
    if name == "z2":
        return build_graph(GraphSpec("lattice_box", d=2, radius=6))
    if name == "ladder":
        return build_graph(GraphSpec("ladder", width=2, length=10))
    if name == "tree8":
        return tree8
    p = tmp_path_factory.mktemp("digraph") / "w.txt"
    p.write_text(WEIGHTED_DIGRAPH)
    return build_graph(GraphSpec("weighted_file", path=str(p)))


@pytest.mark.parametrize("where", ["origin", "interior", "frontier"])
@pytest.mark.parametrize("name", ["z2", "ladder", "tree8", "digraph"])
def test_distance_queries_match_deque_bfs(name, where, tree8,
                                          tmp_path_factory):
    g = reference_graph(name, tree8, tmp_path_factory)
    interior = np.flatnonzero(~g.boundary_mask & (g.dist > 0))
    x = {"origin": 0, "interior": int(interior[interior.size // 2]),
         "frontier": int(np.flatnonzero(g.boundary_mask)[0])}[where]
    ref = deque_bfs(g, x)
    order = list(ref)
    expect = np.full(g.vertex_count, -1)
    expect[order] = list(ref.values())
    assert np.array_equal(distances_from(g, x), expect)
    for r in range(g.max_radius + 2):
        b = ball(g, x, r)
        assert b == {v for v, d in ref.items() if d <= r}
        if x != g.origin:
            # filled in visit order, so it iterates as the visit-order set
            assert list(b) == list(set(v for v in order if ref[v] <= r))
        assert sphere(g, x, r) == {v for v, d in ref.items() if d == r}
        outside = {v: deque_bfs(g, v, lambda u: u not in b) for v in b}
        depth = {v: min((d for u, d in dv.items() if u not in b), default=None)
                 for v, dv in outside.items()}
        assert distance_to_complement(g, b) == {
            v: d for v, d in depth.items() if d is not None}
        if r < 2:
            continue
        hits = [d for v, d in ref.items() if 0 < d <= r and g.boundary_mask[v]]
        if hits:
            with pytest.raises(GraphError, match=f"frontier at r={min(hits)};"):
                growth_profile(g, x, r)
        else:
            sizes, _, _ = growth_profile(g, x, r)
            assert sizes.tolist() == [sum(d <= n for d in ref.values())
                                      for n in range(r + 1)]


def test_distance_to_complement_directed_trap(tmp_path):
    # from the origin, a -> b -> c -> b is a cycle with no way out of S;
    # only the origin has an edge (to the sink d) leaving S
    p = tmp_path / "trap.txt"
    p.write_text("frogsim-graph v1 directed\n"
                 "0 1 1\n1 2 1\n2 1 1\n0 3 1\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    S = set(np.flatnonzero(~g.boundary_mask).tolist())
    assert len(S) == 3
    assert distance_to_complement(g, S) == {0: 1}


@pytest.mark.parametrize("bad", [-1, "n", 2.5, True])
@pytest.mark.parametrize("query", [
    lambda g, x: ball(g, x, 2),
    lambda g, x: sphere(g, x, 0),
    lambda g, x: sphere(g, x, 2),
    lambda g, x: distances_from(g, x),
    lambda g, x: growth_profile(g, x, 3),
    lambda g, x: distance_to_complement(g, {x, 0}),
], ids=["ball", "sphere0", "sphere", "distances_from", "growth_profile",
        "distance_to_complement"])
def test_distance_queries_reject_bad_vertex_ids(query, bad):
    g = build_graph(GraphSpec("lattice_box", d=2, radius=6))
    if bad == "n":
        bad = g.vertex_count
    with pytest.raises(GraphError, match="invalid vertex"):
        query(g, bad)


# -- cheeger -----------------------------------------------------------


def cheeger_double_loop(g, A):
    """Independent quadratic-time evaluation on small graphs."""
    A = set(A)
    out_w = 0.0
    for a in A:
        for b in range(g.vertex_count):
            if b in A:
                continue
            out_w += g.edge_weight(a, b)
    return out_w / sum(g.pi[a] for a in A)


def test_cheeger_rejects_non_integer_ids(z2_box20):
    for v in (1.5, 1.0, False):
        with pytest.raises(GraphError, match="invalid vertex"):
            cheeger_of_set(z2_box20, [0, v])


def test_cheeger_single_interior_vertex(z2_box20):
    assert cheeger_of_set(z2_box20, {0}) == 1.0


def test_cheeger_tree_balls_lower_bound(tree8):
    for r in range(1, 6):
        val = cheeger_of_set(tree8, ball(tree8, 0, r))
        counting = (3 * 2 ** r) / (3 * (3 * 2 ** r - 2))
        assert abs(val - counting) < 1e-12
        assert val >= 1 / 3


def test_cheeger_z2_ball(z2_box40):
    val = cheeger_of_set(z2_box40, ball(z2_box40, 0, 10))
    counting = 4 * (2 * 10 + 1) / (4 * (2 * 100 + 20 + 1))
    assert abs(val - counting) < 1e-12
    assert val <= 0.25


def test_cheeger_matches_double_loop_small():
    g = build_graph(GraphSpec("lattice_box", d=2, radius=4))  # 41 vertices
    interior = {v for v in range(g.vertex_count) if not g.boundary_mask[v]}
    assert cheeger_of_set(g, interior) == cheeger_double_loop(g, interior)
    assert cheeger_of_set(g, {0, 1, 2}) == cheeger_double_loop(g, {0, 1, 2})


def test_cheeger_empty_rejected(z2_box20):
    with pytest.raises(GraphError):
        cheeger_of_set(z2_box20, set())


# -- spectral radius and stationary control ----------------------------


def test_spectral_radius_tree(tree16):
    est = spectral_radius_estimate(tree16, 0, 30)
    assert abs(est.estimate - 2 * math.sqrt(2) / 3) < 0.03
    assert est.monotone
    assert not est.truncation_warning  # no path out and back within 30 steps


def test_spectral_radius_warns_at_roundtrip_horizon(tree16):
    assert spectral_radius_estimate(tree16, 0, 32).truncation_warning


def test_spectral_radius_amenable_families(z2_box40, ladder240):
    z2 = build_graph(GraphSpec("lattice_box", d=2, radius=60))
    assert spectral_radius_estimate(z2, 0, 60).estimate >= 0.99
    assert spectral_radius_estimate(ladder240, 0, 60).estimate >= 0.99


def test_spectral_radius_rejects_directed(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("frogsim-graph v1 directed\n0 1 1.0\n1 0 1.0\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    with pytest.raises(GraphError):
        spectral_radius_estimate(g, 0, 8)


def test_stationary_control_tree_interior(tree8):
    assert stationary_control_constant(tree8) == 1.0


def test_stationary_control_weighted_cycle(tmp_path):
    # heavy edges meet at vertex 0, light edges at vertex 2
    p = tmp_path / "cycle.txt"
    p.write_text("frogsim-graph v1 undirected\n"
                 "0 1 5\n1 2 1\n2 3 1\n3 0 5\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    assert stationary_control_constant(g) == 5.0


# -- weighted-file parsing ---------------------------------------------


def test_file_roundtrip_and_bfs_ids(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\nfrogsim-graph v1 undirected\n"
                 "10 20 1.0\n20 30 2.0\n\n30 40 1.5\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    assert g.vertex_count == 4
    assert not g.directed
    assert g.pi[0] == 1.0  # smallest original id becomes the origin
    assert np.all(np.diff(g.dist) >= 0)


@pytest.mark.parametrize("body", [
    "frogsim-graph v2 undirected\n0 1 1\n",
    "frogsim-graph v1 sideways\n0 1 1\n",
    "frogsim-graph v1 undirected\n0 1\n",
    "frogsim-graph v1 undirected\n0 1 -2\n",
    "frogsim-graph v1 undirected\n0 1 1\n1 0 3\n",
    "",
])
def test_file_malformed_rejected(tmp_path, body):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(GraphError):
        build_graph(GraphSpec("weighted_file", path=str(p)))


def test_directed_file_sinks_become_frontier(tmp_path):
    p = tmp_path / "sink.txt"
    p.write_text("frogsim-graph v1 directed\n0 1 1\n0 2 1\n1 2 1\n")
    g = build_graph(GraphSpec("weighted_file", path=str(p)))
    assert g.directed
    sink = [v for v in range(3) if g.boundary_mask[v]]
    assert len(sink) == 1  # the vertex with no out-edges


def test_spec_validation():
    with pytest.raises(GraphError):
        build_graph(GraphSpec("regular_tree", degree=2, depth=3))
    with pytest.raises(GraphError):
        build_graph(GraphSpec("lattice_box", d=0, radius=3))
    with pytest.raises(GraphError):
        build_graph(GraphSpec("no_such_family"))


def test_import_leaves_scipy_sparse_unloaded():
    # the exact series run on plain numpy arrays, so neither importing
    # frogsim nor running every series entry point loads scipy
    code = """import sys, frogsim
from frogsim import GraphSpec, build_graph
g = build_graph(GraphSpec("lattice_box", d=2, radius=6))
frogsim.exit_probability_exact(g, frogsim.ball(g, 0, 2), 1.0)
frogsim.heat_kernel_row(g, 0, 1.0)
frogsim.hitting_probability_exact(g, 0, 3, 1.0)
frogsim.truncated_green(g, 0, 3, 1.0)
frogsim.spectral_radius_estimate(g, 0, 8)
print('scipy' in sys.modules)"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
