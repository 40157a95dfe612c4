"""The frog-model engine.

Sleeping particles (Poisson(lambda) per vertex) wake when their vertex is
visited by an active walker; active walkers live for a fixed time t. The
engine reveals one active particle's full trajectory per step, in an order
given by a schedule; the final activated set does not depend on that order,
which is the model's abelian property and the backbone of the replay tests.

Randomness is a deterministic function of (field seed, vertex, particle
index), realizing the standard couplings exactly per seed:

* lambda-coupling: particle counts come from one uniform mark per vertex
  through the Poisson inverse CDF, so raising lambda only appends particles;
* lifespan-coupling: trajectories are read as prefixes of one stream, so
  raising t only extends each walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, ball, distance_to_complement
from .rng import (_INV_2_53, Stream, derive_key, derive_keys,
                  poisson_inverse_cdf)
from .stats import Estimate, from_samples
from .walks import Trajectory, walk_batch, walk_positions


@dataclass(frozen=True)
class FrogParams:
    lam: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")


class ParticleField:
    """Lazy deterministic particle configuration over a graph.

    Re-querying a vertex returns the identical (count, trajectories) tuple.
    Distinct ParticleFields with the same seed on the same graph replay the
    same randomness, which is what the schedule-invariance and coupling
    tests exercise.
    """

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = int(seed)
        self._cache: dict = {}

    def count_at(self, x: int, lam: float) -> int:
        u = (derive_key(self.seed, "eta", x) >> 11) * _INV_2_53
        return poisson_inverse_cdf(lam, u)

    def trajectory(self, x: int, i: int, t: float) -> Trajectory:
        key = (x, i, t)
        traj = self._cache.get(key)
        if traj is None:
            stream = Stream(self.seed, "traj", x, i)
            jumps, absorbed = walk_positions(self.graph, x, t, stream)
            traj = Trajectory(x, tuple(jumps), t, absorbed)
            self._cache[key] = traj
        return traj

    def particles(self, x: int, params: FrogParams):
        eta = self.count_at(x, params.lam)
        return eta, tuple(self.trajectory(x, i, params.t) for i in range(eta))


class SpliceField:
    """Field that answers from `field_in` on a vertex set and `field_out`
    elsewhere: the tool for locality tests (re-sample everything outside a
    window and check nothing changes)."""

    def __init__(self, inside, field_in: ParticleField,
                 field_out: ParticleField):
        self.inside = set(inside)
        self.field_in = field_in
        self.field_out = field_out
        self.graph = field_in.graph

    def _pick(self, x: int) -> ParticleField:
        return self.field_in if x in self.inside else self.field_out

    def count_at(self, x: int, lam: float) -> int:
        return self._pick(x).count_at(x, lam)

    def trajectory(self, x: int, i: int, t: float):
        return self._pick(x).trajectory(x, i, t)

    def particles(self, x: int, params: FrogParams):
        return self._pick(x).particles(x, params)


@dataclass
class Cluster:
    activated: set[int]
    activation_order: list[int]
    total_particles: int
    reached_radius: int
    stop_reason: str  # exhausted | radius_reached | particle_budget | vertex_budget


def explore_cluster(g: Graph, params: FrogParams, field: ParticleField,
                    *, radius: int | None = None,
                    particle_budget: int | None = None,
                    vertex_budget: int | None = None,
                    schedule: str = "fifo",
                    rng: Stream | None = None) -> Cluster:
    """Run legal operations from the origin until a stop rule fires.

    schedule picks which pending active particle reveals its trajectory
    next; with no stop-rule truncation the activated set is schedule-free.
    radius stops as soon as an activated vertex sits at distance >= radius
    from the origin (the survival proxy event).
    """
    if schedule not in ("fifo", "lifo", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == "random" and rng is None:
        raise ValueError("random schedule needs an rng stream")

    activated: set[int] = set()
    order: list[int] = []
    pending: list[tuple[int, int]] = []
    head = 0  # fifo read position; avoids O(n) pops
    total = 0
    reached = 0
    stop = "exhausted"

    def activate(v: int) -> bool:
        nonlocal total, reached, stop
        activated.add(v)
        order.append(v)
        d = int(g.dist[v])
        if d > reached:
            reached = d
        eta = field.count_at(v, params.lam)
        total += eta
        for i in range(eta):
            pending.append((v, i))
        if radius is not None and d >= radius:
            stop = "radius_reached"
            return True
        if particle_budget is not None and total > particle_budget:
            stop = "particle_budget"
            return True
        if vertex_budget is not None and len(activated) >= vertex_budget:
            stop = "vertex_budget"
            return True
        return False

    if activate(g.origin):
        return Cluster(activated, order, total, reached, stop)

    while head < len(pending):
        if schedule == "fifo":
            x, i = pending[head]
            head += 1
        elif schedule == "lifo":
            x, i = pending.pop()
        else:
            j = head + rng.randint(len(pending) - head)
            pending[j], pending[head] = pending[head], pending[j]
            x, i = pending[head]
            head += 1
        traj = field.trajectory(x, i, params.t)
        for v in traj.jumps:
            if v not in activated:
                if activate(v):
                    return Cluster(activated, order, total, reached, stop)
    return Cluster(activated, order, total, reached, stop)


# ---------------------------------------------------------------------------
# window-restricted activation (stay-inside chains)
# ---------------------------------------------------------------------------


@dataclass
class RestrictedActivation:
    """Stay-inside activation data on a window S.

    harpoon[x] says whether the origin activates x through a chain of
    trajectories that never leave S. stay_sets holds, for every revealed
    harpoon vertex, the indices of its particles whose whole trajectory
    stays in S. exiters counts particles at harpoon vertices that leave S
    within their lifespan.
    """

    S: frozenset
    harpoon: dict[int, bool]
    stay_sets: dict[int, tuple[int, ...]]
    exiters: int


def _check_window(g: Graph, S) -> set[int]:
    S = set(int(v) for v in S)
    for v in S:
        if not (0 <= v < g.vertex_count):
            raise GraphError(f"invalid vertex {v}")
        if g.is_boundary(v):
            raise GraphError("window must avoid the truncation frontier")
    return S


def _stay_closure(g: Graph, S: set[int], start: int, params: FrogParams,
                  field: ParticleField):
    """Reach set of `start` in S over stay-inside trajectories, revealing
    particles lazily. Returns (reached, stay_sets, exit_counts)."""
    reached = {start}
    stack = [start]
    stay_sets: dict[int, tuple[int, ...]] = {}
    exit_counts: dict[int, int] = {}
    while stack:
        x = stack.pop()
        eta, trajs = field.particles(x, params)
        stay = tuple(i for i, tr in enumerate(trajs) if tr.visited <= S)
        stay_sets[x] = stay
        exit_counts[x] = eta - len(stay)
        for i in stay:
            for v in trajs[i].jumps:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
    return reached, stay_sets, exit_counts


def restricted_activation(g: Graph, S, params: FrogParams,
                          field: ParticleField) -> RestrictedActivation:
    S = _check_window(g, S)
    if g.origin not in S:
        raise GraphError("window must contain the origin")
    reached, stay_sets, exit_counts = _stay_closure(g, S, g.origin, params, field)
    harpoon = {x: (x in reached) for x in S}
    exiters = sum(exit_counts[x] for x in reached)
    return RestrictedActivation(frozenset(S), harpoon, stay_sets, exiters)


def arrow_closure(g: Graph, B, start: int, params: FrogParams,
                  field: ParticleField, *, stop_size: int | None = None) -> set[int]:
    """Vertices of B activated from `start` through chains inside B.

    Chain vertices stay in B but the participating trajectories are free to
    leave B and return; a vertex with no particles only points to itself.
    """
    B = set(int(v) for v in B)
    if start not in B:
        raise GraphError("start must belong to B")
    reached = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        eta, trajs = field.particles(x, params)
        for tr in trajs:
            for v in tr.jumps:
                if v in B and v not in reached:
                    reached.add(v)
                    stack.append(v)
                    if stop_size is not None and len(reached) >= stop_size:
                        return reached
    return reached


def good_vertices(g: Graph, B, params: FrogParams, rng: Stream,
                  *, stop_after: int | None = None) -> set[int]:
    """Vertices of B whose B-restricted activation covers >= |B|/4.

    Each candidate explores a fresh independent particle field, matching the
    sequential refreshed-exploration semantics. stop_after returns early
    once that many good vertices are found (existence checks).
    """
    B = set(int(v) for v in B)
    quota = len(B) / 4.0
    need = math.ceil(quota) if quota > 1 else 1
    good = set()
    for x in sorted(B):
        fld = ParticleField(g, rng.child("goodv", x).key)
        A = arrow_closure(g, B, x, params, fld, stop_size=need)
        if len(A) >= quota:
            good.add(x)
            if stop_after is not None and len(good) >= stop_after:
                break
    return good


# ---------------------------------------------------------------------------
# subcritical exploration process
# ---------------------------------------------------------------------------


@dataclass
class EPSample:
    generation_sizes: list[int]
    budget_exhausted: bool = False
    clipped_parents: int = 0


def ep_exploration_sample(g: Graph, S, params: FrogParams, rng: Stream,
                          *, max_generations: int = 60,
                          parent_budget: int = 20000) -> EPSample:
    """Branching exploration that dominates the frog cluster when the
    window functional is subcritical.

    Each parent v runs a stay-inside activation on the window translated to
    v (the ball of the same covering radius), with a refreshed field.
    Children are the vertices on exiting trajectories of particles at
    stay-activated vertices, counted per particle (start vertex excluded);
    every child occurrence becomes one next-generation parent.
    """
    S = _check_window(g, S)
    if g.origin not in S:
        raise GraphError("window must contain the origin")
    r = max(int(g.dist[x]) for x in S)
    sizes = [1]
    parents = [g.origin]
    clipped = 0
    exhausted = False
    for gen in range(max_generations):
        children: list[int] = []
        for p_idx, v in enumerate(parents):
            if g.is_boundary(v):
                clipped += 1
                continue
            window = ball(g, v, r)
            if any(g.boundary_mask[w] for w in window):
                clipped += 1
                window = {w for w in window if not g.boundary_mask[w]}
            fld = ParticleField(g, rng.child("ep", gen, p_idx).key)
            reached, stay_sets, _ = _stay_closure(g, window, v, params, fld)
            for x in reached:
                eta, trajs = fld.particles(x, params)
                staying = set(stay_sets.get(x, ()))
                for i, tr in enumerate(trajs):
                    if i in staying:
                        continue
                    children.extend(u for u in tr.visited if u != x)
        sizes.append(len(children))
        if not children:
            break
        if len(children) > parent_budget:
            exhausted = True
            break
        parents = children
    return EPSample(sizes, exhausted, clipped)


def sphere_activation_profile(g: Graph, S, params: FrogParams, replicas: int,
                              rng: Stream) -> dict[int, Estimate]:
    """E|A_r| for each interior-depth shell S_r = {x in S : d(x, S^c) = r},
    where A_r collects shell vertices activated by stay-inside chains."""
    S = _check_window(g, S)
    if g.origin not in S:
        raise GraphError("window must contain the origin")
    depth = distance_to_complement(g, S)
    shells: dict[int, list[int]] = {}
    for x, d in depth.items():
        shells.setdefault(d, []).append(x)
    samples: dict[int, list[int]] = {r: [] for r in shells}
    for rep in range(replicas):
        fld = ParticleField(g, rng.child("shell", rep).key)
        reached, _, _ = _stay_closure(g, S, g.origin, params, fld)
        for r, shell in shells.items():
            samples[r].append(sum(1 for x in shell if x in reached))
    return {r: from_samples(vals, rng.key) for r, vals in sorted(samples.items())}


@dataclass
class ExitJumpStats:
    estimate: Estimate | None
    bound: float
    accepted: int
    exit_rate: float


def exit_conditional_jumps(g: Graph, S, x: int, t: float, replicas: int,
                           rng: Stream) -> ExitJumpStats:
    """Monte Carlo E_x[N(t) | walk exits S within t], by rejection.

    Also evaluates the geometric cap Delta^{D_x} (t + D_x), where D_x is the
    directed distance from x to S^c and Delta the maximum out-degree.
    Replica r walks on ``rng.child("exitcond", r)``; the replicas run as one
    ``walk_batch``.
    """
    S = _check_window(g, S)
    if x not in S:
        raise GraphError("x must belong to S")
    depth = distance_to_complement(g, S)
    d_x = depth.get(x)
    if d_x is None:
        raise GraphError("x cannot reach the complement of S")
    delta = g.max_interior_degree()
    bound = (delta ** d_x) * (t + d_x)
    positions, jumps, _ = walk_batch(
        g, x, t, derive_keys(rng.key, "exitcond", count=replicas))
    # outside[v] for v = -1, the padding, is False
    outside = np.ones(g.vertex_count + 1, dtype=bool)
    outside[list(S)] = False
    outside[-1] = False
    counts = jumps[outside[positions].any(axis=1)].tolist()
    est = from_samples(counts, rng.key) if counts else None
    return ExitJumpStats(est, bound, len(counts), len(counts) / replicas)
