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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, ball, distance_to_complement
from .rng import (_INV_2_53, _MASK, Stream, derive_key, derive_keys,
                  poisson_counts, poisson_inverse_cdf)
from .stats import Estimate, check_replicas, from_samples
from .walks import Trajectory, check_horizon, lockstep_walks, walk_positions


@dataclass(frozen=True)
class FrogParams:
    lam: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        check_horizon(self.t)


class ParticleField:
    """Lazy deterministic particle configuration over a graph.

    Re-querying a vertex returns the identical (count, trajectories) tuple.
    Distinct ParticleFields with the same seed on the same graph replay the
    same randomness, which is what the schedule-invariance and coupling
    tests exercise.
    """

    __slots__ = ("graph", "seed", "_cache")

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
            jumps, absorbed = walk_positions(self.graph, x, check_horizon(t),
                                             stream)
            traj = Trajectory(x, tuple(jumps), t, absorbed)
            self._cache[key] = traj
        return traj

    def particles(self, x: int, params: FrogParams):
        eta = self.count_at(x, params.lam)
        return eta, tuple(self.trajectory(x, i, params.t) for i in range(eta))

    def source(self, x: int) -> "ParticleField":
        """The ParticleField whose seed gives x's particles: this one."""
        return self

    def seeds(self, xs) -> list[int]:
        """The seeds (mod 2^64) of the fields that give the particles of
        the vertices xs, as ``source(x).seed``."""
        return [self.seed & _MASK] * len(xs)


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

    def source(self, x: int) -> ParticleField:
        """The ParticleField whose seed gives x's particles."""
        field = self.field_in if x in self.inside else self.field_out
        return field.source(x)

    def seeds(self, xs) -> list[int]:
        return [self.source(x).seed & _MASK for x in xs]

    def count_at(self, x: int, lam: float) -> int:
        return self.source(x).count_at(x, lam)

    def trajectory(self, x: int, i: int, t: float):
        return self.source(x).trajectory(x, i, t)

    def particles(self, x: int, params: FrogParams):
        return self.source(x).particles(x, params)


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


def _reach(reached: set, out, done=None) -> set:
    """Grow `reached` in place along out(x), the vertices x points to,
    depth first (last added, first read), and return it. Each vertex is
    read at most once. Returns as soon as done(reached) holds, which is
    checked before the first read and after each addition."""
    if done is not None and done(reached):
        return reached
    stack = list(reached)
    while stack:
        for w in out(stack.pop()):
            if w not in reached:
                reached.add(w)
                if done is not None and done(reached):
                    return reached
                stack.append(w)
    return reached


# Fewest expected walks (lambda times the (field, vertex) pairs of a wave)
# that _stay_closure reveals as one numpy batch; smaller waves read
# field.particles. At t = 1 on a Z^2 box (window B(5)) a batched wave of
# 4-128 walks cost 250-650 us and the per-walk loop 18-27 us a walk, so
# the two met between 16 and 24 walks (2-vCPU x86-64 host, Python 3.11,
# numpy 2.4). Deciding on the expected count needs no numpy work, and
# keeps single-field callers on field.particles for their first waves.
_STAY_BATCH_WALKS = 24


def _stay_closure(g: Graph, S: set[int], start: int, params: FrogParams,
                  fields) -> list[tuple[set, dict, dict]]:
    """Reach set of `start` in S over stay-inside trajectories under each
    of `fields`: one (reached, stay_sets, exit_counts) per field.

    stay_sets[x] holds the indices of x's particles whose whole trajectory
    stays in S and exit_counts[x] counts the others, for every reached x.
    reached is ``_reach({start}, out)`` for out(x) the jumps of x's staying
    particles in (particle, step) order, so it iterates in the same order
    as a closure that reveals particles as it pops them.

    The closures grow together, one generation at a time: each wave
    reveals every field's newly reached vertices. A wave of at least
    ``_STAY_BATCH_WALKS`` expected walks runs as one batch
    (``_stay_batch``); a smaller one reads ``field.particles``.
    """
    fields = list(fields)
    # x -> (out(x), stay_sets[x], exit_counts[x]); None until revealed
    revealed: list[dict] = [{start: None} for _ in fields]
    wave = [(f, start) for f in range(len(fields))]
    inside = None                            # S as a vertex mask, once needed
    while wave:
        if params.lam * len(wave) < _STAY_BATCH_WALKS:
            outs = [_stay_out(*fields[f].particles(x, params), S)
                    for f, x in wave]
        else:
            if inside is None:
                inside = np.zeros(g.vertex_count, dtype=bool)
                inside[list(S)] = True
            outs = _stay_batch(g, inside, fields, wave, params)
        nxt = []
        for (f, x), o in zip(wave, outs):
            seen = revealed[f]
            seen[x] = o
            for y in o[0]:
                if y not in seen:
                    seen[y] = None
                    nxt.append((f, y))
        wave = nxt
    closures = []
    for f in range(len(fields)):
        seen, revealed[f] = revealed[f], None   # freed field by field
        closures.append((_reach({start}, lambda x: seen[x][0]),
                         {x: o[1] for x, o in seen.items()},
                         {x: o[2] for x, o in seen.items()}))
    return closures


# Replica fields per _stay_closure call in _replica_closures. A call holds
# every closure it returns (about 0.7 kB a field at lambda = t = 1), so
# this bounds memory for any replica count; fewer fields make smaller
# waves, which batch less. On phi_window_z2 (1000 replicas; same host)
# throughput and peak RSS were 3430/s, 53.8 MB at 128 fields; 3680/s,
# 53.9 MB at 256; 3930/s, 54.2 MB at 512; 4090/s, 54.9 MB at 1000.
_CLOSURE_FIELDS = 512


def _replica_closures(g: Graph, S: set[int], params: FrogParams, seed: int,
                      label: str, replicas: int):
    """Yield the stay-inside closure from the origin (``_stay_closure``'s
    triple) of replica r = 0, 1, ..., replicas - 1 on the field keyed
    ``Stream(seed, label, r)``, ``_CLOSURE_FIELDS`` fields per call."""
    keys = derive_keys(seed, label, count=replicas).tolist()
    for lo in range(0, replicas, _CLOSURE_FIELDS):
        yield from _stay_closure(g, S, g.origin, params, [
            ParticleField(g, key) for key in keys[lo:lo + _CLOSURE_FIELDS]])


def _stay_out(eta: int, trajs, S):
    """(out, stay, exits) of one vertex from its particles."""
    stay = tuple(i for i, tr in enumerate(trajs) if tr.visited <= S)
    return (list(dict.fromkeys(v for i in stay for v in trajs[i].jumps)),
            stay, eta - len(stay))


def _stay_batch(g: Graph, inside: np.ndarray, fields, wave,
                params: FrogParams):
    """``_stay_out`` of every (field index, vertex) pair of `wave`, with
    the particles revealed from their counter-based keys in one lockstep
    pass. A walk stays if every vertex it visits is in the window S
    (inside[v] says v is in S); S avoids the frontier, so an absorbed walk
    leaves."""
    xs = np.array([x for _, x in wave], dtype=np.int64)
    seeds = np.array([fields[f].source(x).seed & _MASK for f, x in wave],
                     dtype=np.uint64)
    counts = _vertex_counts(seeds, xs, params.lam)
    pair, index, starts, keys = _particle_keys(seeds, xs, counts)
    leaves = ~inside[starts]
    walk, where = [pair[:0]], [pair[:0]]     # jumps of walks still inside
    for live, cur in lockstep_walks(g, starts, params.t, keys):
        leaves[live[~inside[cur]]] = True
        keep = ~leaves[live]
        walk.append(live[keep])
        where.append(cur[keep])
    walk, where = np.concatenate(walk), np.concatenate(where)
    keep = ~leaves[walk]
    walk, where = walk[keep], where[keep]
    order = np.argsort(walk, kind="stable")  # by walk, then step
    codes = pair[walk[order]] * g.vertex_count + where[order]
    # each pair's first occurrence of each vertex, in (walk, step) order
    first = np.argsort(codes, kind="stable")
    first = np.sort(first[np.diff(codes[first], prepend=-1) != 0])
    codes = codes[first]
    span = np.arange(xs.size + 1)
    jb = np.searchsorted(codes // g.vertex_count, span).tolist()
    ys = (codes % g.vertex_count).tolist()
    stay = np.flatnonzero(~leaves)
    sb = np.searchsorted(pair[stay], span).tolist()
    sidx = index[stay].tolist()
    eta = counts.tolist()
    return [(ys[jb[p]:jb[p + 1]], tuple(sidx[sb[p]:sb[p + 1]]),
             eta[p] - (sb[p + 1] - sb[p])) for p in range(xs.size)]


def _vertex_counts(seeds: np.ndarray, xs: np.ndarray, lam: float) -> np.ndarray:
    """Particle counts of the vertices xs under the field seeds (arrays that
    broadcast together): the Poisson inverse CDF at each mark
    ``derive_key(seed, "eta", x)``, as ``ParticleField.count_at``."""
    marks = derive_keys(seeds, "eta", xs)
    marks >>= np.uint64(11)
    return poisson_counts(lam, marks * _INV_2_53)


def _particle_keys(seeds: np.ndarray, xs: np.ndarray, counts: np.ndarray):
    """The particles of the pairs (field seed seeds[p], vertex xs[p]) with
    counts[p] particles, pair by pair: arrays of each particle's pair,
    index at its vertex, start vertex and trajectory stream key
    ``derive_key(seed, "traj", x, index)``."""
    pair = np.repeat(np.arange(xs.size), counts)
    first = np.cumsum(counts) - counts       # each pair's first particle
    index = np.arange(pair.size) - np.repeat(first, counts)
    starts = xs[pair]
    return pair, index, starts, derive_keys(seeds[pair], "traj", starts, index)


def restricted_activation(g: Graph, S, params: FrogParams,
                          field: ParticleField) -> RestrictedActivation:
    S = g.interior_set(S, containing=g.origin)
    [(reached, stay_sets, exit_counts)] = _stay_closure(g, S, g.origin,
                                                        params, [field])
    harpoon = {x: (x in reached) for x in S}
    exiters = sum(exit_counts[x] for x in reached)
    return RestrictedActivation(frozenset(S), harpoon, stay_sets, exiters)


# Most particle walks one lockstep pass of _wave_arrows samples. A pass
# pays a fixed numpy cost per jump step (about 90 steps at t = 64), so
# small passes are slow; large ones raise peak memory. It bounds
# block_open's first wave (one pass per replica, about 340 walks on
# renorm_z2), the closure waves of arrow_closure and good_vertices and,
# at high densities, a decay wave. The value was chosen on renorm_z2 when
# full decay passes dominated its walks (bench/run.py, 10 s runs at seeds
# 23-25; 2-vCPU x86-64 host, Python 3.11, numpy 2.4): 2.31-2.86 /s with
# 38.76-38.90 MB peak RSS at 1024, 3.13-3.26 /s with 38.79-38.93 MB at
# 2048 and 3.17-3.48 /s with 39.11-39.40 MB at 3072.
_ARROW_WALKS = 2048


def _passes(walks):
    """Split consecutive items with walks[i] walks each into passes of at
    most ``_ARROW_WALKS`` walks (an item with more runs alone): yield each
    pass as its (first, last) index range."""
    first = 0
    while first < len(walks):
        last, total = first + 1, walks[first]
        while last < len(walks) and total + walks[last] <= _ARROW_WALKS:
            total += walks[last]
            last += 1
        yield first, last
        first = last


# Most fields whose scans _read_arrows runs together. Every wave pays the
# fixed numpy cost per jump step of a pass, so the fewer waves the better:
# renorm_z2's decay (500 fields, B(0, 8) on Z^2, density 0.25, t = 64;
# seeds 1-3) took 0.27-0.34 s at 32 fields a block, 0.089-0.098 s at 128
# and 0.041-0.044 s with all 500 in flight (2-vCPU x86-64 host, Python
# 3.11, numpy 2.4). good_vertices runs a field per candidate, so all 145
# of B(0, 8) are in flight. A field in flight holds a byte per vertex of
# B plus the arrows its scan has read.
_SCAN_FIELDS = 512


def _read_arrows(g: Graph, B, fields, params: FrogParams, scan):
    """Run one scan per field over the arrows of B, revealing a vertex's
    particles only when a scan reads its arrows, and yield each scan's
    return value in field order. B must avoid the truncation frontier,
    where walks are absorbed.

    A vertex is named by its column, its index in sorted B. ``scan(i,
    has)`` makes the scan of the i-th field, where has[c] says whether the
    field has particles at the vertex of column c: a generator that yields
    lists of particle-bearing columns it has not read yet and is sent
    their arrows, in the same order, each the ascending columns of the
    vertices of B other than itself that its particles visit within their
    lifespan. A scan keeps the arrows it has read; a vertex with no
    particles points nowhere.

    The scans of up to ``_SCAN_FIELDS`` fields run together, and each wave
    reveals every suspended scan's list with one ``_wave_arrows`` call,
    so no particle is revealed that no scan reads. A field in flight keeps
    B's particle mask (one byte a vertex, from ``_vertex_counts`` calls of
    at most 4 ``_ARROW_WALKS`` marks); each wave re-derives its own pairs'
    counts.
    """
    verts = np.array(sorted(g.interior_set(B)), dtype=np.int64)
    vlist, nb = verts.tolist(), verts.size
    look = _columns(verts)
    fields = iter(fields)
    done = 0                                  # fields of earlier blocks
    while block := list(itertools.islice(fields, _SCAN_FIELDS)):
        # the marks are derived at most 4 _ARROW_WALKS at a time
        has, step = [], max(1, 4 * _ARROW_WALKS // max(nb, 1))
        for lo in range(0, len(block), step):
            seeds = np.array([fld.seeds(vlist) for fld in block[lo:lo + step]],
                             dtype=np.uint64)
            has += [row.tobytes()
                    for row in _vertex_counts(seeds, verts, params.lam) != 0]
        scans = [scan(done + f, has[f]) for f in range(len(block))]
        done += len(block)
        results = [None] * len(block)
        reads = {}                            # field -> the columns it reads

        def advance(f, sent):
            try:
                reads[f] = scans[f].send(sent)
            except StopIteration as stop:
                results[f] = stop.value

        for f in range(len(block)):
            advance(f, None)
        while reads:
            wave, reads = reads, {}
            pairs = [(f, c) for f, cols in wave.items() for c in cols]
            arrows = iter(_wave_arrows(g, verts, look, block, pairs, params)
                          if pairs else ())
            for f, cols in wave.items():
                advance(f, list(itertools.islice(arrows, len(cols))))
        yield from results


def _wave_arrows(g: Graph, verts: np.ndarray, look: np.ndarray, fields,
                 wave, params: FrogParams) -> list[list[int]]:
    """The arrows, as ascending column lists, of every (field index,
    column) pair of `wave`, revealed in ``_pair_jumps`` passes."""
    nb = verts.size
    xs = verts[[c for _, c in wave]]
    seeds = np.array([fields[f].source(x).seed & _MASK
                      for (f, _), x in zip(wave, xs.tolist())],
                     dtype=np.uint64)
    counts = _vertex_counts(seeds, xs, params.lam)
    arrows = []
    for lo, hi in _passes(counts.tolist()):
        codes = _pair_jumps(g, verts, look, xs[lo:hi], seeds[lo:hi],
                            counts[lo:hi], params.t)
        jb = np.searchsorted(codes, np.arange(hi - lo + 1) * nb).tolist()
        cols = (codes % nb).tolist()
        arrows += [cols[j:k] for j, k in zip(jb, jb[1:])]
    return arrows


def _columns(verts: np.ndarray) -> np.ndarray:
    """The column lookup of the sorted vertex array verts: entry v - verts[0]
    is v's index in verts for every id v of the span verts[0]..verts[-1]
    (-1 if v is not in verts), and one more -1 follows the span."""
    v0 = int(verts[0]) if verts.size else 0
    span = int(verts[-1]) - v0 + 1 if verts.size else 0
    look = np.full(span + 1, -1, dtype=np.int32)
    look[verts - v0] = np.arange(verts.size, dtype=np.int32)
    return look


def _pair_jumps(g: Graph, verts: np.ndarray, look: np.ndarray,
                xs: np.ndarray, seeds: np.ndarray, counts: np.ndarray,
                t: float) -> np.ndarray:
    """The sorted distinct codes p |verts| + c of the (p, verts[c]),
    verts[c] != xs[p], that a particle of pair p (field seed seeds[p],
    vertex xs[p], counts[p] particles) jumps to within time t; verts is
    sorted and look is ``_columns(verts)``, which finds each landing
    vertex's column in O(1). Codes are int32 while every one fits."""
    pair, _, starts, keys = _particle_keys(seeds, xs, counts)
    nb = verts.size
    v0, span = (int(verts[0]) if nb else 0), look.size - 1
    base = pair * nb
    if xs.size * nb < 2**31:
        base = base.astype(np.int32)
    # one buffer, doubled when full, sized for a code per jump of a walk
    # that stays in B (at most t jumps, and a walk leaves B after about
    # |B|): per-step arrays kept until the pass ends would fragment the heap
    size = max(pair.size * int(min(t, nb) + 1), 16)
    codes, n = np.empty(size, dtype=base.dtype), 0
    for live, cur in lockstep_walks(g, starts, t, keys):
        # ids off the span clip to -1 or span; both read the -1 after it
        col = look[np.minimum(np.maximum(cur - v0, -1), span)]
        hit = col >= 0
        m = n + int(np.count_nonzero(hit))
        if m > codes.size:
            grown = np.empty(max(m, 2 * codes.size), dtype=codes.dtype)
            grown[:n] = codes[:n]
            codes = grown
        np.add(base[live[hit]], col[hit], out=codes[n:m])
        n = m
    codes = codes[:n]
    codes.sort()
    # distinct codes; not np.unique, whose first call imports numpy.ma (1 MB)
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    codes = codes[first]
    # then each pair's own vertex, at most one code a pair
    own = look[np.minimum(np.maximum(xs - v0, -1), span)]
    own = (np.arange(xs.size) * nb + own)[own >= 0]
    at = np.searchsorted(codes, own)
    inside = at < codes.size
    at, own = at[inside], own[inside]
    return np.delete(codes, at[codes[at] == own])


def arrow_closure(g: Graph, B, start: int, params: FrogParams,
                  field: ParticleField, *, stop_size: int | None = None) -> set[int]:
    """Vertices of B activated from `start` through chains inside B.

    Chain vertices stay in B but the participating trajectories are free to
    leave B and return; a vertex with no particles only points to itself.
    Only the particles of reached vertices are revealed (``_closure_scan``).
    With stop_size (at least 1), returns the first stop_size vertices
    reached. B must avoid the truncation frontier.
    """
    B = g.interior_set(B, containing=start)
    if stop_size is not None and stop_size < 1:
        raise ValueError(f"stop_size must be >= 1, got {stop_size}")
    verts = sorted(B)
    [reached] = _read_arrows(g, verts, [field], params, lambda _, has: (
        _closure_scan(has, verts.index(start),
                      math.inf if stop_size is None else stop_size)))
    return {verts[c] for c in reached}


def good_vertices(g: Graph, B, params: FrogParams, rng: Stream) -> set[int]:
    """Vertices of B whose B-restricted activation covers >= |B|/4.

    Each candidate x explores a fresh independent particle field, keyed
    ``rng.child("goodv", x)``, matching the sequential refreshed-exploration
    semantics. Every candidate's closure scan runs in one ``_read_arrows``
    call and stops once it covers the quarter; the first good vertex is
    ``min(good)``. B must avoid the truncation frontier.
    """
    B = g.vertex_set(B)
    verts = sorted(B)
    quota = len(B) / 4.0
    need = math.ceil(quota) if quota > 1 else 1
    fields = (ParticleField(g, rng.child("goodv", x).key) for x in verts)
    reach = _read_arrows(g, verts, fields, params,
                         lambda c, has: _closure_scan(has, c, need))
    return {x for x, reached in zip(verts, reach) if len(reached) >= quota}


def _closure_scan(has, start: int, stop: float):
    """One field's arrow closure, as a ``_read_arrows`` scan: the columns
    ``_reach({start}, out, lambda r: len(r) >= stop)`` reaches, for out(c)
    the arrows of column c. The first read of a particle-bearing vertex
    not yet read reads every reached particle-bearing vertex not yet read,
    as one batch."""
    arrows: dict[int, list[int]] = {}
    reached = {start}
    stack = [start]
    while stack and len(reached) < stop:
        x = stack.pop()
        if has[x] and x not in arrows:
            fresh = [v for v in reached if has[v] and v not in arrows]
            arrows.update(zip(fresh, (yield fresh)))
        for w in arrows.get(x, ()):
            if w not in reached:
                reached.add(w)
                if len(reached) >= stop:
                    break
                stack.append(w)
    return reached


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
    S = g.interior_set(S, containing=g.origin)
    r = max(int(g.dist[x]) for x in S)
    sizes = [1]
    parents = [g.origin]
    clipped = 0
    exhausted = False
    for gen in range(max_generations):
        children: list[int] = []
        for p_idx, v in enumerate(parents):
            if g.boundary_mask[v]:
                clipped += 1
                continue
            window = ball(g, v, r)
            if any(g.boundary_mask[w] for w in window):
                clipped += 1
                window = {w for w in window if not g.boundary_mask[w]}
            fld = ParticleField(g, rng.child("ep", gen, p_idx).key)
            [(reached, stay_sets, _)] = _stay_closure(g, window, v, params,
                                                       [fld])
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
    S = g.interior_set(S, containing=g.origin)
    depth = distance_to_complement(g, S)
    shells: dict[int, list[int]] = {}
    for x, d in depth.items():
        shells.setdefault(d, []).append(x)
    samples: dict[int, list[int]] = {r: [] for r in shells}
    for reached, _, _ in _replica_closures(g, S, params, rng.key, "shell",
                                           replicas):
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
    Replica r walks on ``rng.child("exitcond", r)``.
    """
    S = g.interior_set(S, containing=x)
    return _exit_conditional_stats(g, S, [x], check_horizon(t), replicas,
                                   [rng.key])[0]


# Most walks one lockstep pass of _exit_conditional_stats runs (a vertex
# with more replicas runs alone); keys are derived per pass, which keeps
# peak memory flat in |S|.
_EXIT_WALKS = 4096


def _exit_conditional_stats(g: Graph, S: set[int], xs, t: float,
                            replicas: int, seeds) -> list[ExitJumpStats]:
    """``exit_conditional_jumps`` for every x of xs (vertices of S), the
    replicas of xs[i] on ``Stream(seeds[i]).child("exitcond", r)``. A walk
    exits if it visits a vertex outside S; its jump count is its number of
    steps. The vertices run in lockstep passes of about ``_EXIT_WALKS``
    walks."""
    check_replicas(replicas)
    depth = distance_to_complement(g, S)
    delta = g.max_interior_degree()
    bounds = []
    for x in xs:
        d_x = depth.get(x)
        if d_x is None:
            raise GraphError("x cannot reach the complement of S")
        bounds.append((delta ** d_x) * (t + d_x))
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[list(S)] = True
    per_pass = max(1, _EXIT_WALKS // replicas)
    samples = []
    for lo in range(0, len(xs), per_pass):
        block = np.array(xs[lo:lo + per_pass], dtype=np.int64)
        which = np.repeat(np.arange(block.size), replicas)
        keys = derive_keys(np.array(seeds[lo:lo + per_pass],
                                    dtype=np.uint64)[which], "exitcond",
                           np.tile(np.arange(replicas), block.size))
        starts = block[which]
        exits = ~inside[starts]
        jumps = np.zeros(starts.size, dtype=np.int64)
        for live, cur in lockstep_walks(g, starts, t, keys):
            jumps[live] += 1
            exits[live[~inside[cur]]] = True
        for i in range(block.size):
            rows = slice(i * replicas, (i + 1) * replicas)
            samples.append(jumps[rows][exits[rows]].tolist())
    return [ExitJumpStats(from_samples(counts, seed) if counts else None,
                          bound, len(counts), len(counts) / replicas)
            for counts, seed, bound in zip(samples, seeds, bounds)]
