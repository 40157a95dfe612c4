"""Frog-model simulation and estimation toolkit.

Finite-graph arenas, exact killed-walk series, the activation engine with
its couplings, sharpness-functional estimators, and the packaged coupling /
renormalization / non-amenable experiments, all behind deterministic
splittable random streams.
"""

from .graphs import (Graph, GraphError, GraphSpec, SpectralEstimate, ball,
                     build_graph, cheeger_of_set, distance_to_complement,
                     distances_from, growth_profile, sphere,
                     spectral_radius_estimate, stationary_control_constant)
from .rng import Stream, derive_key, poisson_inverse_cdf, splitmix64
from .stats import Estimate, from_binomial, from_samples
from .walks import (HeatKernelRow, KilledWalkTable, LeakageBudgetError,
                    RangeStats, SeriesToleranceError, Trajectory, discrete_walk,
                    exit_probability_exact, heat_kernel_exact,
                    heat_kernel_row, hitting_probability_exact,
                    range_statistics, sample_jump_count, sample_trajectory,
                    self_intersection_bound, self_intersection_profile,
                    truncated_green)
from .frogs import (Cluster, EPSample, ExitJumpStats, FrogParams,
                    ParticleField, RestrictedActivation, arrow_closure,
                    ep_exploration_sample, exit_conditional_jumps,
                    explore_cluster, good_vertices, restricted_activation,
                    sphere_activation_profile)
from .estimators import (ClusterTail, CriticalBracket, GWOracle,
                         GoodSetReport, LifespanBound, PhiReport, RussoCheck,
                         SharpnessConstants, SurvivalEstimate, TildeScanResult,
                         cluster_size_tail, critical_bisection, good_set_G_A,
                         gw_oracle, mean_exiters, nonamenable_t_bound,
                         phi_hat, phi_report, phi_tilde_hat,
                         russo_inequality_check, sharpness_constants,
                         survival_probability, tilde_critical_scan)
from .experiments import (ExperimentReport, NetConfig,
                          abelian_invariance_check, annulus_blocking_probability,
                          bernoulli_edge_coupling, edge_open_probability,
                          escape_probability, good_vertex_decay,
                          linear_growth_experiment, nonamenable_pipeline,
                          renormalization_experiment, write_report)

# The names the CLI, scripts/ and README use; the rest stay importable.
__all__ = [
    "ExperimentReport", "FrogParams", "GraphError", "GraphSpec", "NetConfig",
    "Stream", "abelian_invariance_check", "arrow_closure",
    "bernoulli_edge_coupling", "build_graph", "exit_conditional_jumps",
    "explore_cluster", "from_binomial", "good_set_G_A", "good_vertex_decay",
    "good_vertices", "linear_growth_experiment", "nonamenable_pipeline",
    "range_statistics", "renormalization_experiment", "tilde_critical_scan",
    "write_report"]
__version__ = "0.1.0"
