import math
import tracemalloc

import pytest

from frogsim import (FrogParams, GraphError, GraphSpec, Stream, ball,
                     build_graph, cluster_size_tail, critical_bisection,
                     good_set_G_A, gw_oracle, mean_exiters,
                     nonamenable_t_bound, phi_hat, phi_report, phi_tilde_hat,
                     russo_inequality_check, sharpness_constants,
                     spectral_radius_estimate, survival_probability,
                     sphere_activation_profile, tilde_critical_scan)
from frogsim import estimators, frogs
from frogsim.estimators import SurvivalEstimate, replica_survival
from frogsim.stats import from_binomial


# -- survival ------------------------------------------------------------


def test_survival_zero_density(tree8):
    sv = survival_probability(tree8, FrogParams(0.0, 1.0), 5, 200, 1)
    assert sv.estimate.mean == 0.0


def test_survival_radius_zero_closed_form(tree8):
    # reaching past the origin alone means some particle there jumps:
    # 1 - exp(-lam (1 - e^{-t}))
    lam, t = 1.0, 1.0
    sv = survival_probability(tree8, FrogParams(lam, t), 0, 8000, 2)
    expect = 1 - math.exp(-lam * (1 - math.exp(-t)))
    assert abs(sv.estimate.mean - expect) <= 3 * sv.estimate.stderr


def test_survival_supercritical_tree():
    tree20 = build_graph(GraphSpec("regular_tree", degree=3, depth=20))
    sv = survival_probability(tree20, FrogParams(2.0, 2.0), 20, 800, 3)
    assert sv.estimate.mean >= 0.2
    assert sv.censored == 0


def test_survival_nonincreasing_in_radius(tree12):
    params = FrogParams(2.0, 1.0)
    means = [survival_probability(tree12, params, n, 400, 4).estimate.mean
             for n in (2, 5, 9, 12)]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_survival_monotone_per_seed_in_lambda(tree12):
    # same seed, bigger lambda: coupled fields force a nested cluster
    lo = survival_probability(tree12, FrogParams(1.5, 1.0), 8, 400, 5)
    hi = survival_probability(tree12, FrogParams(2.5, 1.0), 8, 400, 5)
    assert hi.estimate.mean >= lo.estimate.mean


def test_survival_radius_zero_censors_budget_at_origin():
    # budget 1 at lambda = 3: most origins alone hold more particles than
    # the budget. Such a replica is undecided (censored), not extinct; a
    # budget stop after a second vertex is activated (replica 0) is a hit.
    g = build_graph(GraphSpec("regular_tree", degree=3, depth=6))
    params = FrogParams(3.0, 1.0)
    assert replica_survival(g, params, 0, Stream(1, "survival", 0).key,
                            particle_budget=1) is True
    assert replica_survival(g, params, 0, Stream(1, "survival", 1).key,
                            particle_budget=1) is None
    sv = survival_probability(g, params, 0, 50, 1, particle_budget=1)
    assert sv.censored == 41
    assert sv.estimate.mean == 7 / 50


def test_survival_radius_beyond_truncation_rejected(tree8):
    with pytest.raises(GraphError):
        survival_probability(tree8, FrogParams(1, 1), 9, 10, 6)


# -- cluster tail ---------------------------------------------------------


def test_cluster_tail_basics(tree8):
    ct = cluster_size_tail(tree8, FrogParams(0.5, 1.0), 25, 1500, 7)
    assert ct.tail[1] == 1.0
    assert ct.slope < 0.0 and ct.r_squared >= 0.9


def test_cluster_tail_zero_density(tree8):
    ct = cluster_size_tail(tree8, FrogParams(0.0, 1.0), 10, 200, 8)
    assert ct.tail[2] == 0.0


# -- phi functionals ------------------------------------------------------


def test_phi_singleton_closed_form(tree8):
    # the origin is always reachable from itself, so the singleton value is
    # deterministic: lam (1 - e^{-t}); check a small parameter grid
    for lam, t in ((1.0, 1.0), (0.5, 1.0), (2.0, 0.25), (1.5, 3.0),
                   (0.25, 0.5)):
        ph = phi_hat(tree8, {0}, FrogParams(lam, t), 50, 9)
        assert abs(ph.mean - lam * (1 - math.exp(-t))) < 1e-9


def test_phi_zero_density(tree8):
    assert phi_hat(tree8, {0}, FrogParams(0.0, 1.0), 10, 10).mean == 0.0
    assert phi_tilde_hat(tree8, {0}, FrogParams(0.0, 1.0), 10, 10).mean == 0.0


def test_phi_tilde_singleton_closed_form(tree8):
    pt = phi_tilde_hat(tree8, {0}, FrogParams(1.0, 1.0), 600, 11,
                       conditional_replicas=6000)
    assert abs(pt.mean - 1.0) <= 3 * pt.stderr + 1e-9


def test_phi_dual_estimator_consistency(tree8):
    params = FrogParams(1.0, 1.0)
    S = ball(tree8, 0, 1)
    ph = phi_hat(tree8, S, params, 4000, 12)
    dual = mean_exiters(tree8, S, params, 4000, 13)
    gap = abs(ph.mean - dual.mean)
    assert gap <= 3 * math.hypot(ph.stderr, dual.stderr)


def test_phi_monotone_in_lambda_common_random_numbers(tree8):
    S = ball(tree8, 0, 2)
    vals = [phi_hat(tree8, S, FrogParams(lam, 1.0), 500, 14).mean
            for lam in (0.5, 1.0, 2.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_phi_tilde_below_constant_times_phi(tree8):
    for (lam, t) in ((1.0, 1.0), (0.5, 2.0)):
        rep = phi_report(tree8, ball(tree8, 0, 1), FrogParams(lam, t),
                         1000, 15)
        lhs = rep.phi_tilde_hat.mean + 3 * rep.phi_tilde_hat.stderr
        rhs_low = rep.constants.C * max(
            rep.phi_hat.mean - 3 * rep.phi_hat.stderr, 0.0)
        assert lhs < rhs_low


# Recorded with float.hex before the stay-inside closures were batched
# across replicas, when every replica ran its own closure and every
# conditional-jump vertex its own walk batch. Key: (graph, window radius,
# lambda, t); phi_hat at seed 71 (300 replicas), phi_tilde_hat at 72 (300
# replicas, 700 conditional walks), mean_exiters at 73 (300 replicas) and
# sphere_activation_profile on Stream(74) (200 replicas); (mean, stderr).
GOLDEN_PHI = {
    ("tree8", 3, 1.5, 1.0): {
        "phi_hat": ("0x1.d3e5719d510e5p-2", "0x1.2d6f7f44a7738p-5"),
        "phi_tilde_hat": ("0x1.c77b8f248ab63p-1", "0x1.2f6e6abd949dfp-4"),
        "mean_exiters": ("0x1.ccccccccccccdp-2", "0x1.bffc30b8388eap-5"),
        "sphere": {1: ("0x1.8f5c28f5c28f6p-2", "0x1.a9e80a9022befp-5"),
                   2: ("0x1.570a3d70a3d71p-1", "0x1.30ae973efe51bp-4"),
                   3: ("0x1.a666666666666p-1", "0x1.ee3f8cb38a007p-5"),
                   4: ("0x1.0000000000000p+0", "0x0.0p+0")}},
    ("tree8", 2, 1.0, 3.0): {
        "phi_hat": ("0x1.11c49f3aabc69p+0", "0x1.d8baafa0724f0p-5"),
        "phi_tilde_hat": ("0x1.dea0d02d8b25cp+1", "0x1.9350e2ef49905p-3"),
        "mean_exiters": ("0x1.f92c5f92c5f93p-1", "0x1.254dbbdd07350p-4"),
        "sphere": {1: ("0x1.eb851eb851eb8p-2", "0x1.d7a1ebd5667cap-5"),
                   2: ("0x1.4a3d70a3d70a4p-1", "0x1.01e87b23b1a4dp-4"),
                   3: ("0x1.0000000000000p+0", "0x0.0p+0")}},
    ("z2", 3, 1.0, 1.0): {
        "phi_hat": ("0x1.4648160cbefefp-3", "0x1.1d9c3ff6db1c9p-6"),
        "phi_tilde_hat": ("0x1.3211ffb59e17fp-2", "0x1.0005234d13179p-5"),
        "mean_exiters": ("0x1.17e4b17e4b17ep-3", "0x1.789d70e11d624p-6"),
        "sphere": {1: ("0x1.ae147ae147ae1p-3", "0x1.640a6720c69adp-5"),
                   2: ("0x1.ae147ae147ae1p-2", "0x1.f162ac1a88ba0p-5"),
                   3: ("0x1.2666666666666p-1", "0x1.ce86bbc9fb6a0p-5"),
                   4: ("0x1.0000000000000p+0", "0x0.0p+0")}},
    ("z2", 5, 2.0, 1.5): {
        "phi_hat": ("0x1.01c8a8e7d2a97p+2", "0x1.ec8232e5edcd3p-3"),
        "phi_tilde_hat": ("0x1.09d9b8fb2bc97p+4", "0x1.d653f08772e52p-1"),
        "mean_exiters": ("0x1.eb851eb851eb8p+1", "0x1.09328649ad4dcp-2"),
        "sphere": {1: ("0x1.770a3d70a3d71p+1", "0x1.c1f0933cce5d0p-3"),
                   2: ("0x1.047ae147ae148p+2", "0x1.19477607db9e2p-2"),
                   3: ("0x1.05c28f5c28f5cp+2", "0x1.03ed09ee0723dp-2"),
                   4: ("0x1.c28f5c28f5c29p+1", "0x1.93e3bced6ba9dp-3"),
                   5: ("0x1.17ae147ae147bp+1", "0x1.ba5566b65150dp-4"),
                   6: ("0x1.0000000000000p+0", "0x0.0p+0")}},
}


def hexed(est):
    return (est.mean.hex(), est.stderr.hex())


@pytest.mark.parametrize("case", sorted(GOLDEN_PHI))
def test_phi_estimators_golden(case, tree8, z2_box20):
    name, radius, lam, t = case
    g = {"tree8": tree8, "z2": z2_box20}[name]
    S = ball(g, g.origin, radius)
    params = FrogParams(lam, t)
    want = GOLDEN_PHI[case]
    assert hexed(phi_hat(g, S, params, 300, 71)) == want["phi_hat"]
    assert hexed(phi_tilde_hat(g, S, params, 300, 72,
                               conditional_replicas=700)) \
        == want["phi_tilde_hat"]
    assert hexed(mean_exiters(g, S, params, 300, 73)) == want["mean_exiters"]
    prof = sphere_activation_profile(g, S, params, 200, Stream(74))
    assert {r: hexed(e) for r, e in prof.items()} == want["sphere"]


# Recorded with float.hex before phi_report ran phi-hat's and phi-tilde's
# replica fields through one closure pass: phi_report on the Z^2 box's
# B(3) at 300 replicas; key (lambda, t, seed), value the (mean, stderr) of
# phi_hat and of phi_tilde_hat.
GOLDEN_PHI_REPORT = {
    (1.0, 1.0, 41): (("0x1.15be2f289eab9p-3", "0x1.068f93dd39cedp-6"),
                     ("0x1.2e7c0e3353444p-2", "0x1.0319557da2ae3p-5")),
    (2.0, 1.5, 42): (("0x1.881ac90b4f708p+1", "0x1.549322f3e3edcp-3"),
                     ("0x1.a34d9e9e6b8ffp+2", "0x1.7ca80ddb01a43p-2")),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PHI_REPORT))
def test_phi_report_golden(case, z2_box20):
    lam, t, seed = case
    g = z2_box20
    rep = phi_report(g, ball(g, g.origin, 3), FrogParams(lam, t), 300, seed)
    assert (hexed(rep.phi_hat), hexed(rep.phi_tilde_hat)) \
        == GOLDEN_PHI_REPORT[case]


@pytest.mark.parametrize("lam,t", [(1.5, 1.0), (0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("name,radius", [("z2", 3), ("z2", 5), ("tree8", 2)])
def test_phi_report_equals_public_estimators(monkeypatch, tree8, z2_box20,
                                             name, radius, lam, t):
    # phi_report runs phi-tilde's 70 replica fields and then phi-hat's
    # through one closure pass; at 16 fields a call, the fifth call holds
    # phi-tilde's last 6 fields and phi-hat's first 10
    monkeypatch.setattr(frogs, "_CLOSURE_FIELDS", 16)
    blocks = []
    stay_closure = frogs._stay_closure

    def spy(g, S, start, params, fields):
        blocks.append(len(fields))
        return stay_closure(g, S, start, params, fields)

    monkeypatch.setattr(frogs, "_stay_closure", spy)
    g = {"tree8": tree8, "z2": z2_box20}[name]
    S = ball(g, g.origin, radius)
    params = FrogParams(lam, t)
    rep = phi_report(g, S, params, 70, 9)
    assert blocks == ([16] * 8 + [12] if lam and t else [])
    for got, want in ((rep.phi_hat, phi_hat(g, S, params, 70, 9)),
                      (rep.phi_tilde_hat, phi_tilde_hat(
                          g, S, params, 70, Stream(9, "tilde").key))):
        assert got == want and hexed(got) == hexed(want)


def test_phi_report_memory_stays_below_held_closures(z2_box20):
    # B(5)'s 2000 replica fields (1000 for each estimator) run through one
    # closure pass that replays them a field at a time: about 0.77 MB under
    # tracemalloc. Holding every field's closure at once, or an out-list
    # for every revealed pair, took 1.1 MB and more
    g = z2_box20
    S, params = ball(g, g.origin, 5), FrogParams(1.0, 1.0)
    phi_report(g, S, params, 20, 2)     # builds the caches a run keeps
    tracemalloc.start()
    try:
        rep = phi_report(g, S, params, 1000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.phi_hat.replicas == rep.phi_tilde_hat.replicas == 1000
    assert peak < 0.95e6


def test_phi_tilde_default_conditional_replicas_golden(z2_box20):
    # 2000 walks for each of the 25 window vertices: many lockstep passes
    pt = phi_tilde_hat(z2_box20, ball(z2_box20, 0, 3), FrogParams(1.0, 1.0),
                       100, 75)
    assert hexed(pt) == ("0x1.91da6be7093d3p-2", "0x1.1080bcf32a897p-4")


# -- constants ------------------------------------------------------------


def test_delta_closed_form():
    sc = sharpness_constants(1, 1.0, 1.0)
    assert abs(sc.delta - (1 - math.exp(-math.exp(-1)))) < 1e-12


def test_K_cap():
    sc = sharpness_constants(3, 1.0, 1.0)
    assert sc.K <= max(4 * 3, 2 * 9 * math.e / 1.0)
    assert sc.K == 3 / sc.delta


def test_constants_vanish_at_zero():
    assert sharpness_constants(3, 0.0, 1.0).c == 0.0
    assert sharpness_constants(3, 1.0, 0.0).c == 0.0


def test_constant_inverse_relation():
    sc = sharpness_constants(2, 2.0, 0.5)
    if math.isfinite(sc.C):
        assert abs(sc.c * sc.C - 1.0) < 1e-9
    assert sc.log_C > 0


def test_constants_huge_lifespan_degenerate():
    sc = sharpness_constants(3, 1.0, 800.0)
    assert sc.c == 0.0 and sc.C == math.inf


# -- critical search ------------------------------------------------------


def test_bisection_tree_bracket_above_one(tree12):
    # extinction is certain when lam t <= 1, so the crossing sits above 1
    br = critical_bisection(tree12, "lambda", 1.0, 10, 400, 0.02, 0.25, 16,
                            lo=0.4, hi=5.0)
    assert br.parameter == "lambda"
    assert br.lo >= 1.0
    assert br.lo < br.hi <= 5.0


def test_bisection_lifespan_bracket_above_half(tree12):
    # with lam = 2 fixed, extinction is certain for t <= 1/2
    br = critical_bisection(tree12, "t", 2.0, 10, 400, 0.02, 0.2, 44,
                            lo=0.1, hi=4.0)
    assert br.parameter == "t"
    assert br.confident and br.lo >= 0.5


def test_bisection_no_crossing_flat_line(tree8):
    br = critical_bisection(tree8, "t", 0.0, 5, 200, 0.5, 0.5, 17,
                            lo=0.5, hi=4.0)
    assert not br.confident
    assert "no confident crossing" in br.notes


def test_bisection_ladder_subcritical_window(ladder240):
    # the quasi-1d graph stays extinct at distance 100 for small densities,
    # so the search reports no crossing rather than a false bracket
    br = critical_bisection(ladder240, "lambda", 2.0, 100, 200, 0.25, 0.5, 18,
                            lo=0.2, hi=1.0)
    assert not br.confident


@pytest.mark.parametrize("threshold, lo_reps, hi_reps", [
    # p-hat = 0 of 20 replicas: the exact 3-sigma bound 1 - 0.00135^(1/20)
    # = 0.281 is not below 0.05, so replicas double up to 160 (bound 0.040)
    (0.05, [20, 40, 80, 160], [20]),
    # p-hat = 1: the bound 0.00135^(1/n) first exceeds 0.9 at n = 80
    (0.9, [20], [20, 40, 80]),
])
def test_bisection_decides_an_estimate_of_0_or_1_on_the_exact_bound(
        monkeypatch, tree8, threshold, lo_reps, hi_reps):
    # a survival curve that is 0 below lambda = 1 and 1 from it on
    calls = {}

    def survival(g, params, n, replicas, seed, *, particle_budget):
        calls.setdefault(params.lam, []).append(replicas)
        hits = replicas if params.lam >= 1.0 else 0
        return SurvivalEstimate(from_binomial(hits, replicas, seed), 0)

    monkeypatch.setattr(estimators, "survival_probability", survival)
    br = critical_bisection(tree8, "lambda", 1.0, 5, 20, threshold, 4.0, 1,
                            lo=0.5, hi=2.0)
    assert br.confident and (br.lo, br.hi) == (0.5, 2.0)
    assert calls == {0.5: lo_reps, 2.0: hi_reps}


def test_bisection_doubles_past_an_unlucky_zero(monkeypatch, tree8):
    # survival 0 below lambda = 1 and 0.10 from it on, where the first
    # 20-replica estimate reads 0 (probability 0.9^20 = 0.12): that is no
    # confident "below" at threshold 0.05, so replicas double until the
    # 3-stderr rule sees 0.10 above it (640 replicas)
    calls = []

    def survival(g, params, n, replicas, seed, *, particle_budget):
        calls.append((params.lam, replicas))
        p = 0.1 if params.lam >= 1.0 else 0.0
        hits = 0 if replicas == 20 else round(p * replicas)
        return SurvivalEstimate(from_binomial(hits, replicas, seed), 0)

    monkeypatch.setattr(estimators, "survival_probability", survival)
    br = critical_bisection(tree8, "lambda", 1.0, 5, 20, 0.05, 0.5, 1,
                            lo=0.5, hi=2.0)
    assert br.confident and (br.lo, br.hi) == (0.875, 1.25)
    assert [r for lam, r in calls if lam == 2.0] == [20, 40, 80, 160, 320,
                                                     640]


def test_tilde_scan_flags(tree8):
    res = tilde_critical_scan(tree8, "lambda", 1.0, [1, 2], [0.0, 20.0],
                              400, 19)
    assert res.rows[0].subcritical          # lam = 0
    assert not res.rows[1].subcritical      # inf phi over balls stays positive
    assert res.crossing == (0.0, 20.0)


def test_tilde_scan_lifespan_variant(tree8):
    res = tilde_critical_scan(tree8, "t", 1.0, [1, 2], [0.0, 10.0], 400, 23)
    assert res.parameter == "t"
    assert res.rows[0].subcritical and not res.rows[1].subcritical
    assert res.crossing == (0.0, 10.0)


# -- differential inequality ----------------------------------------------


@pytest.mark.parametrize("variant", ["lambda", "t"])
def test_russo_inequality_holds(tree8, variant):
    rc = russo_inequality_check(tree8, 2, FrogParams(1.5, 1.0), 0.1, 12000,
                                20, variant=variant, phi_replicas=8000)
    assert rc.holds
    assert not rc.insufficient


def test_russo_small_density_still_holds(tree8):
    # near lam = 0 both sides stay O(1): the derivative ~ P'(0) and the
    # threshold side ~ phi(S)/lam; the inequality itself is the invariant
    rc = russo_inequality_check(tree8, 1, FrogParams(0.05, 1.0), 0.1, 4000,
                                21, phi_replicas=4000)
    assert rc.holds


# -- oracles and bounds ----------------------------------------------------


def test_gw_extinct_iff_mean_at_most_one():
    for lam, t in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (0.1, 10.0),
                   (3.0, 1.0 / 3.0), (0.999, 1.0)):
        assert gw_oracle(lam, t).extinction == 1.0
    q = gw_oracle(2.0, 1.0)
    assert 0.0 < q.extinction < 1.0
    assert q.residual <= 1e-10
    assert q.mean_offspring == 2.0
    assert not q.has_exponential_moment
    assert gw_oracle(0.5, 1.0).has_exponential_moment


def test_gw_zero_density():
    q = gw_oracle(0.0, 5.0)
    assert q.extinction == 1.0 and q.mean_offspring == 0.0


def test_nonamenable_bound_value():
    lb = nonamenable_t_bound(0.9428, 1.0, 1.0)
    # independent re-evaluation, factor by factor
    depth = math.log((1 - 0.9428) / 32.0) / math.log(0.9428)
    expect = 200.0 * (depth + 1.0) / (1 - 0.9428) ** 2
    assert abs(lb.bound - expect) / expect < 1e-12
    assert lb.alpha == 1.0 / (4 * math.ceil(depth))


def test_nonamenable_bound_monotone_and_lambda_floor():
    assert nonamenable_t_bound(0.9, 1.0, 1.0).bound == \
        nonamenable_t_bound(0.9, 1.0, 7.0).bound
    bounds = [nonamenable_t_bound(0.9, K, 1.0).bound for K in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(GraphError):
        nonamenable_t_bound(1.0, 1.0, 1.0)


def test_good_set_on_tree(tree12):
    rho = spectral_radius_estimate(tree12, 0, 20).estimate
    A = ball(tree12, 0, 3)
    rep = good_set_G_A(tree12, A, 200.0, 1.0 / 432, 60, 22, rho=rho, K=1.0)
    assert rep.fraction >= rep.target_fraction - 0.1
    # singleton adjacent to deeper levels escapes easily
    single = good_set_G_A(tree12, {5}, 50.0, 0.05, 200, 23, rho=rho, K=1.0)
    assert single.fraction == 1.0
