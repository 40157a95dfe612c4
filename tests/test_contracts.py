"""Input contracts shared by every public entry point: one window check
(``Graph.interior_set``), one horizon check (``walks.check_horizon``) and
one replica-count check (``stats.check_replicas``)."""

import contextlib
import math
import signal

import numpy as np
import pytest

from frogsim import (FrogParams, GraphError, GraphSpec, NetConfig,
                     ParticleField, SeriesToleranceError, Stream, ball,
                     build_graph, explore_cluster)
from frogsim import estimators as est
from frogsim import experiments as exp
from frogsim import frogs, walks


@pytest.fixture(scope="module")
def box():
    return build_graph(GraphSpec("lattice_box", d=2, radius=6))


@pytest.fixture(scope="module")
def cycle(tmp_path_factory):
    # a closed 3-cycle: no vertex is on the truncation frontier, so a walk
    # with an infinite horizon would never stop
    p = tmp_path_factory.mktemp("cycle") / "cycle.txt"
    p.write_text("frogsim-graph v1 undirected\n0 1 1\n1 2 1\n2 0 1\n")
    return build_graph(GraphSpec("weighted_file", path=str(p)))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if its body runs past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


P = FrogParams(1.0, 1.0)

# (window-taking call, whether it needs the origin or start 0 in the window)
WINDOW_CALLS = [
    pytest.param(lambda g, S: frogs.restricted_activation(
        g, S, P, ParticleField(g, 1)), True, id="restricted_activation"),
    pytest.param(lambda g, S: frogs.ep_exploration_sample(
        g, S, P, Stream(1), max_generations=1), True,
        id="ep_exploration_sample"),
    pytest.param(lambda g, S: frogs.sphere_activation_profile(
        g, S, P, 2, Stream(1)), True, id="sphere_activation_profile"),
    pytest.param(lambda g, S: frogs.exit_conditional_jumps(
        g, S, 0, 1.0, 5, Stream(1)), True, id="exit_conditional_jumps"),
    pytest.param(lambda g, S: frogs.arrow_closure(
        g, S, 0, P, ParticleField(g, 1)), True, id="arrow_closure"),
    pytest.param(lambda g, S: frogs.good_vertices(g, S, P, Stream(1)), False,
                 id="good_vertices"),
    pytest.param(lambda g, S: est.phi_hat(g, S, P, 2, 1), True, id="phi_hat"),
    pytest.param(lambda g, S: est.mean_exiters(g, S, P, 2, 1), True,
                 id="mean_exiters"),
    pytest.param(lambda g, S: est.phi_tilde_hat(
        g, S, P, 2, 1, conditional_replicas=5), True, id="phi_tilde_hat"),
    pytest.param(lambda g, S: est.phi_report(g, S, P, 2, 1), True,
                 id="phi_report"),
    pytest.param(lambda g, S: walks.exit_probability_exact(g, S, 1.0), False,
                 id="exit_probability_exact"),
]


@pytest.mark.parametrize("call, contains_zero", WINDOW_CALLS)
def test_windows_avoid_the_frontier_and_hold_their_point(box, call,
                                                         contains_zero):
    inner = ball(box, 0, 2)
    edge = inner | {int(np.flatnonzero(box.boundary_mask)[0])}
    with pytest.raises(GraphError, match="must avoid the truncation frontier"):
        call(box, edge)
    if contains_zero:
        with pytest.raises(GraphError, match="window must contain vertex 0"):
            call(box, inner - {0})
    call(box, inner)


SERIES = [
    pytest.param(lambda g, t: walks.exit_probability_exact(g, {0, 1}, t),
                 id="exit_probability_exact"),
    pytest.param(lambda g, t: walks.hitting_probability_exact(g, 1, 0, t),
                 id="hitting"),
    pytest.param(lambda g, t: walks.hitting_probability_exact(g, 1, 1, t),
                 id="hitting-same"),
    pytest.param(lambda g, t: walks.heat_kernel_row(g, 0, t), id="heat-row"),
    pytest.param(lambda g, t: walks.heat_kernel_exact(g, 0, 1, t),
                 id="heat"),
    pytest.param(lambda g, t: walks.truncated_green(g, 0, 1, t),
                 id="green"),
]

# horizon-taking calls that sample walks, on any graph with vertex 0
WALKS = [
    pytest.param(lambda g, t: FrogParams(1.0, t), id="FrogParams"),
    pytest.param(lambda g, t: walks.sample_jump_count(t, Stream(1)),
                 id="sample_jump_count"),
    pytest.param(lambda g, t: walks.sample_trajectory(g, 0, t, Stream(1)),
                 id="sample_trajectory"),
    pytest.param(lambda g, t: walks.walk_batch(
        g, 0, t, np.arange(3, dtype=np.uint64)), id="walk_batch"),
    pytest.param(lambda g, t: walks.range_statistics(g, 0, t, 3, Stream(1)),
                 id="range_statistics"),
    pytest.param(lambda g, t: walks.self_intersection_profile(
        g, 0, t, 1, 3, Stream(1)), id="self_intersection_profile"),
    pytest.param(lambda g, t: ParticleField(g, 1).trajectory(0, 0, t),
                 id="trajectory"),
    pytest.param(lambda g, t: frogs.exit_conditional_jumps(
        g, {0}, 0, t, 3, Stream(1)), id="exit_conditional_jumps"),
    pytest.param(lambda g, t: est.good_set_G_A(
        g, {0}, t, 0.1, 3, 1, rho=0.5, K=1.0), id="good_set_G_A"),
]

CLOSED_FORMS = [
    pytest.param(lambda g, t: est.sharpness_constants(3, 1.0, t),
                 id="sharpness_constants"),
    pytest.param(lambda g, t: est.gw_oracle(1.0, t), id="gw_oracle"),
    pytest.param(lambda g, t: exp.edge_open_probability(4, 1.0, t),
                 id="edge_open_probability"),
]


@pytest.mark.parametrize("call", SERIES + WALKS + CLOSED_FORMS)
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_horizons_are_finite_and_non_negative(box, call, t):
    # at t = -1 the heat kernel row read mass 2.718 at its start and the
    # hitting probability -0.718; a nan t ended in "cannot convert float
    # NaN to integer"
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        call(box, t)
    call(box, 1.0)


@pytest.mark.parametrize("call", SERIES)
def test_series_stop_at_their_longest_horizon(box, call):
    with pytest.raises(SeriesToleranceError):
        call(box, walks.SERIES_T_MAX + 1)


@pytest.mark.parametrize("call", WALKS)
def test_infinite_horizon_without_a_frontier_is_rejected(cycle, call):
    # these used to run forever on a graph with no frontier
    assert not cycle.boundary_mask.any()
    with deadline(10):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            call(cycle, math.inf)


REPLICA_CALLS = [
    pytest.param(lambda g, r: est.survival_probability(g, P, 1, r, 1),
                 id="survival_probability"),
    pytest.param(lambda g, r: est.cluster_size_tail(g, P, 5, r, 1),
                 id="cluster_size_tail"),
    pytest.param(lambda g, r: est.phi_hat(g, ball(g, 0, 1), P, r, 1),
                 id="phi_hat"),
    pytest.param(lambda g, r: est.phi_hat(g, ball(g, 0, 1),
                                          FrogParams(0.0, 1.0), r, 1),
                 id="phi_hat-closed-form"),
    pytest.param(lambda g, r: est.phi_tilde_hat(g, ball(g, 0, 1), P, r, 1,
                                                conditional_replicas=5),
                 id="phi_tilde_hat"),
    pytest.param(lambda g, r: est.phi_tilde_hat(g, ball(g, 0, 1), P, 2, 1,
                                                conditional_replicas=r),
                 id="phi_tilde_hat-conditional"),
    pytest.param(lambda g, r: est.mean_exiters(g, ball(g, 0, 1), P, r, 1),
                 id="mean_exiters"),
    pytest.param(lambda g, r: frogs.sphere_activation_profile(
        g, ball(g, 0, 1), P, r, Stream(1)), id="sphere_activation_profile"),
    pytest.param(lambda g, r: frogs.exit_conditional_jumps(
        g, ball(g, 0, 1), 0, 1.0, r, Stream(1)), id="exit_conditional_jumps"),
    pytest.param(lambda g, r: est.good_set_G_A(
        g, {0}, 1.0, 0.1, r, 1, rho=0.5, K=1.0), id="good_set_G_A"),
    pytest.param(lambda g, r: est.russo_inequality_check(
        g, 1, P, 0.5, r, 1, phi_replicas=2), id="russo_inequality_check"),
    pytest.param(lambda g, r: walks.self_intersection_profile(
        g, 0, 4.0, 1, r, Stream(1)), id="self_intersection_profile"),
    pytest.param(lambda g, r: walks.range_statistics(g, 0, 1.0, r, Stream(1)),
                 id="range_statistics"),
    pytest.param(lambda g, r: exp.escape_probability(g, {0}, 5, r, 1),
                 id="escape_probability"),
    pytest.param(lambda g, r: exp.good_vertex_decay(g, 0, 2, 0.5, (1,), r, 1),
                 id="good_vertex_decay"),
]


@pytest.mark.parametrize("call", REPLICA_CALLS)
def test_replica_counts_are_positive(box, call):
    # 0 replicas used to end in ZeroDivisionError
    with pytest.raises(ValueError, match="replicas must be >= 1, got 0"):
        call(box, 0)
    call(box, 1)


def _old_radius_zero_survival(g, params, key, budget):
    """replica_survival's former n = 0 rule: stop at a second vertex."""
    cl = explore_cluster(g, params, ParticleField(g, key), vertex_budget=2,
                         particle_budget=budget)
    if len(cl.activated) > 1:
        return True
    return None if cl.stop_reason == "particle_budget" else False


def test_radius_zero_survival_is_the_radius_one_rule(box, cycle):
    tree = build_graph(GraphSpec("regular_tree", degree=3, depth=6))
    seen = set()
    for g in (tree, box, cycle):
        for lam, t in ((0.5, 0.5), (1.0, 1.0), (2.0, 0.2), (3.0, 2.0)):
            params = FrogParams(lam, t)
            for budget in (None, 0, 1, 2, 3):
                for r in range(40):
                    key = Stream(7, "survival", r).key
                    got = est.replica_survival(g, params, 0, key,
                                               particle_budget=budget)
                    assert got is _old_radius_zero_survival(g, params, key,
                                                            budget)
                    seen.add(got)
    assert seen == {True, False, None}


def test_parameter_checks(box):
    with pytest.raises(ValueError, match="survival radius must be >= 0"):
        est.survival_probability(box, P, -1, 5, 1)
    for dstep in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="dstep must be > 0"):
            est.russo_inequality_check(box, 1, P, dstep, 2, 1)
    with pytest.raises(ValueError, match="lambda variant"):
        est.russo_inequality_check(box, 1, FrogParams(0.0, 1.0), 0.5, 2, 1)
    with pytest.raises(ValueError, match="t variant"):
        est.russo_inequality_check(box, 1, FrogParams(1.0, 0.0), 0.5, 2, 1,
                                   variant="t")
    with pytest.raises(ValueError, match="radii must be non-empty"):
        est.tilde_critical_scan(box, "lambda", 1.0, [], [0.5, 1.0], 2, 1)
    for call in (est.sharpness_constants, lambda d, lam, t: est.gw_oracle(lam, t)):
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            call(3, math.nan, 1.0)
    with pytest.raises(TypeError):
        NetConfig(a=8, net_extent=1, beta=1.0)    # the option did nothing
