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
                  poisson_counts, poisson_inverse_cdf, uniforms_at)
from .stats import Estimate, check_replicas, from_samples
from .walks import (Trajectory, _within, check_horizon, lockstep_walks,
                    walk_positions)


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

    A field stores nothing: particle i of vertex x is a pure function of
    (seed, x, i), sampled from its own counter-based stream on every read.
    Re-querying a vertex returns an equal (count, trajectories) tuple, and
    distinct ParticleFields with the same seed on the same graph replay the
    same randomness, which is what the schedule-invariance and coupling
    tests exercise. A caller that reads a vertex twice keeps what it needs.
    The batched engines read a field as its key alone, the seed mod 2^64
    (``_field_keys``).
    """

    __slots__ = ("graph", "seed")

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = int(seed)

    def count_at(self, x: int, lam: float) -> int:
        u = (derive_key(self.seed, "eta", x) >> 11) * _INV_2_53
        return poisson_inverse_cdf(lam, u)

    def trajectory(self, x: int, i: int, t: float) -> Trajectory:
        jumps, absorbed = walk_positions(self.graph, x, check_horizon(t),
                                         Stream(self.seed, "traj", x, i))
        return Trajectory(x, tuple(jumps), t, absorbed)

    def particles(self, x: int, params: FrogParams):
        eta = self.count_at(x, params.lam)
        return eta, tuple(self.trajectory(x, i, params.t) for i in range(eta))


def _field_keys(field, verts) -> np.ndarray:
    """One field's keys as the engines read them: a (1,) array of its seed
    mod 2^64, or, for a field whose seed is a uint64 array of keys by
    vertex id (a spliced field, one that answers from different keys on
    different vertices), its keys at the vertices verts as a (1, len(verts))
    row."""
    if isinstance(field.seed, np.ndarray):
        return field.seed[None, verts]
    return np.array([field.seed & _MASK], dtype=np.uint64)


def _pair_keys(keys: np.ndarray, fs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """The keys of the pairs (field fs[p], column cs[p]) under keys: one key
    a field, shape (fields,), or a row of keys a field, one a column, shape
    (fields, columns)."""
    return keys[fs] if keys.ndim == 1 else keys[fs, cs]


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


# The small-wave rule of the reveal step (_reveal): a pass that holds
# fewer particle walks than this reads them one at a time through
# ParticleField.trajectory, and a larger one runs in lockstep. The rule
# reads the pass's own walk count, from the pairs' particle counts, so a
# wave of fewer walks than this is always read singly. At t = 1 on a Z^2
# box (window B(5)) a batched wave of 4-128 walks cost 250-650 us and the
# per-walk loop 18-27 us a walk, so the two met between 16 and 24 walks.
# At t = 64 (arrows of B(0, 8) on renorm_z2's box; density 0.25 and 2) a
# lockstep pass of 1-64 pairs costs 0.6-1.3 ms, since it decides its
# jumps in blocks, and a pair read singly 0.07-0.13 ms, so the two meet
# between 4 and 12 pairs (2-vCPU x86-64 host, Python 3.11, numpy 2.4).
# The rule keeps the t = 1 value: renorm_z2's decay leaves 3-8 waves of
# 1-17 pairs a job below it (seeds 1-3), on which a rule of 8 would save
# under 1 ms.
_STAY_BATCH_WALKS = 24


def _stay_closure(g: Graph, S: set[int], start: int, params: FrogParams,
                  keys: np.ndarray):
    """Reach set of `start` in S over stay-inside trajectories under each
    field of `keys`: an iterator of one (reached, exiters) per field, where
    exiters counts the particles at reached vertices whose walks visit a
    vertex off S. reached is ``_reach({start}, out)`` for out(x) the jumps
    of x's staying particles in (particle, step) order, so it iterates in
    the same order as a closure that reveals particles as it pops them.

    A vertex is named by its column: its index in sorted S, or len(S) for
    `start`. keys is a uint64 array with one key a field, shape (fields,),
    or a row of keys a field, one a column of sorted S followed by start,
    shape (fields, len(S) + 1) (``_pair_keys``). The closures grow
    together, one generation at a time, as arrays. A byte mask over the
    (field, column) codes marks the revealed pairs, and each wave is the
    unseen codes its predecessor's staying walks land on. Each wave is one
    ``_reveal`` step reduced by ``_stay_rule``, run when the call is made.
    Python runs per field only in the replay, as the iterator is read: a
    field's out-lists are slices of one landing list, cut at one index of
    every revealed pair's first landing.
    """
    if not len(keys):
        return iter(())
    verts = sorted(S)
    n, nc = len(verts), len(verts) + 1
    wave = np.arange(len(keys), dtype=np.int64) * nc + (
        verts.index(start) if start in S else n)
    verts.append(start)                     # each column's vertex
    ext = np.array(verts, dtype=np.int64)
    look = _columns(ext[:n])
    seen = np.zeros(len(keys) * nc, dtype=bool)
    seen[wave] = True
    parts = []                  # per wave: its codes and the wave's arrays
    while wave.size:
        fs, cs = np.divmod(wave, nc)
        got = _reveal(g, ext, look, _pair_keys(keys, fs, cs), cs, params,
                      _stay_rule)
        parts.append((wave, *got))
        # the unseen codes the staying walks land on, each once, ascending
        nxt = np.repeat(wave - wave % nc, got[1]) + got[2]
        nxt = nxt[~seen[nxt]]
        nxt.sort()
        wave = nxt[_run_starts(nxt)]
        seen[wave] = True
    codes, exits, lens, lands = map(np.concatenate, zip(*parts))
    del parts, seen             # the replay below sets the call's peak memory
    # every revealed pair is reached, so a field's exiters are its pairs'
    exiters = np.bincount(codes // nc, weights=exits,
                          minlength=len(keys)).astype(np.int64)
    # the pairs field by field, field f's from at[f] to at[f + 1]: pair p's
    # vertex is xs[p], and its landings are ys[ends[p]:ends[p + 1]]
    order = np.argsort(codes)
    at = np.searchsorted(codes[order], np.arange(len(keys) + 1) * nc).tolist()
    xs = ext[codes[order] % nc].tolist()
    ys = ext[lands[np.argsort(np.repeat(codes, lens), kind="stable")]].tolist()
    ends = list(itertools.accumulate(lens[order].tolist(), initial=0))

    def replay():
        for a, b, exited in zip(at, at[1:], exiters.tolist()):
            # a field that revealed one pair reached its start alone
            yield ({start} if b - a == 1 else _reach({start}, dict(zip(
                xs[a:b], map(ys.__getitem__, map(slice, ends[a:b],
                                                 ends[a + 1:b + 1])))
            ).__getitem__)), exited

    return replay()


# Replica fields per _stay_closure call in _replica_closures. A call holds
# its fields' closures as arrays (a byte per (field, vertex of S) and a
# few words per revealed pair and landing) and replays them one field at a
# time, so this bounds memory for any replica count; fewer fields make
# more waves, each with the same fixed numpy cost. phi_report runs
# phi-tilde's and phi-hat's fields through one pass, so at 2000 both of
# phi_window_z2's 1000-replica estimates share one call a window
# (bench/run.py --seconds 20 at seed 1, two runs each; 2-vCPU x86-64 host,
# Python 3.11, numpy 2.4): throughput and peak RSS were 19.7-20.0k /s,
# 36.44-36.45 MB at 1000 fields (a call an estimate), and 22.1-22.2k /s,
# 36.50-36.52 MB at 2000. A larger value makes the same calls there.
_CLOSURE_FIELDS = 2000


def _replica_closures(g: Graph, S: set[int], params: FrogParams, streams,
                      replicas: int):
    """Yield the stay-inside closure from the origin (``_stay_closure``'s
    (reached, exiters)) of replica r = 0, 1, ..., replicas - 1 on the
    field keyed ``Stream(seed, label, r)``, for each (seed, label) of
    streams in turn. The keys are derived ``_CLOSURE_FIELDS`` at a time,
    so the keys held stay bounded for any replica count, and the chained
    keys run ``_CLOSURE_FIELDS`` per call, so one call may hold the fields
    of two streams."""
    held = np.empty(0, dtype=np.uint64)     # keys derived and not yet run
    for seed, label in streams:
        for lo in range(0, replicas, _CLOSURE_FIELDS):
            held = np.concatenate((held, derive_keys(seed, label, np.arange(
                lo, min(lo + _CLOSURE_FIELDS, replicas)))))
            if held.size >= _CLOSURE_FIELDS:
                yield from _stay_closure(g, S, g.origin, params,
                                         held[:_CLOSURE_FIELDS])
                held = held[_CLOSURE_FIELDS:]
    if held.size:
        yield from _stay_closure(g, S, g.origin, params, held)


def _inside_mask(g: Graph, S: set[int]) -> np.ndarray:
    """The window S as a vertex mask, with one more True entry after the
    last vertex: the -1 of an ended walk in a ``lockstep_walks`` block
    reads it, so it never counts as a step out of S."""
    inside = np.zeros(g.vertex_count + 1, dtype=bool)
    inside[list(S)] = True
    inside[-1] = True
    return inside


# Most particle walks one lockstep pass of _reveal samples. A pass pays a
# fixed numpy cost per block of jumps and per pick step (at t = 64, 1-8
# blocks and about 100 pick steps; see walks._BLOCK_HORIZON), so small
# passes cost more a walk: 15 us a walk at 52 walks, 4.2 us at 992.
# Large ones raise peak memory. It bounds each of block_open's two waves
# (one pass each per replica on renorm_z2: about 340 walks over the small
# balls and 950 over the sites' windows), the closure waves of
# good_vertices and, at high densities, a decay wave; phi_window_z2's
# stay-inside waves hold under 1 024 walks.
# The value was chosen on renorm_z2 when full decay passes dominated its
# walks (bench/run.py, 10 s runs at seeds 23-25; 2-vCPU x86-64 host,
# Python 3.11, numpy 2.4): 2.31-2.86 /s with 38.76-38.90 MB peak RSS at
# 1024, 3.13-3.26 /s with 38.79-38.93 MB at 2048 and 3.17-3.48 /s with
# 39.11-39.40 MB at 3072.
_ARROW_WALKS = 2048


def _passes(walks: np.ndarray):
    """Split consecutive pairs with walks[i] walks each into passes of at
    most ``_ARROW_WALKS`` walks (a pair with more runs alone): yield each
    pass as its (first, last) index range."""
    ends = np.cumsum(walks)
    first = 0
    while first < ends.size:
        cap = (int(ends[first - 1]) if first else 0) + _ARROW_WALKS
        last = max(first + 1, int(np.searchsorted(ends, cap, "right")))
        yield first, last
        first = last


def _reveal(g: Graph, verts: np.ndarray, look: np.ndarray, keys: np.ndarray,
            cs: np.ndarray, params: FrogParams, rule) -> list[np.ndarray]:
    """The particles of the pairs (field key keys[p], vertex verts[cs[p]]),
    read against a vertex set and reduced by rule (``_arrow_rule`` or
    ``_stay_rule``): the rule's arrays for all the pairs, pair by pair.
    look is the set's ``_columns`` and verts[0] its least vertex (its
    sorted vertices come first in verts).

    The pairs' keys, one a pair (``_pair_keys``), are all the kernel reads
    of a field: they give every pair's particle count, and the walks run
    in ``_walk_landings`` passes of at most ``_ARROW_WALKS`` walks; a pass
    of fewer than ``_STAY_BATCH_WALKS`` walks reads them one at a time."""
    xs = verts[cs]
    counts = _vertex_counts(keys, xs, params.lam)
    got = [rule(verts.size, cs[lo:hi], *_walk_landings(
               g, verts, look, keys[lo:hi], xs[lo:hi], counts[lo:hi],
               params.t)) for lo, hi in _passes(counts)]
    return got[0] if len(got) == 1 else list(map(np.concatenate, zip(*got)))


def _walk_landings(g: Graph, verts: np.ndarray, look: np.ndarray,
                   seeds: np.ndarray, xs: np.ndarray, counts: np.ndarray,
                   t: float):
    """The particle walks of the pairs (field seed seeds[p], vertex xs[p],
    counts[p] particles) up to time t, read against a vertex set (look is
    its ``_columns``, verts[0] its least vertex). Returns arrays of each
    walk's pair; whether the walk visits a vertex off the set, its start
    included (the -1 of an ended walk is no visit); and its landings in
    the set as (walk, column), each walk's in step order.

    Fewer than ``_STAY_BATCH_WALKS`` walks are read one at a time through
    ``ParticleField(g, seed).trajectory``, the others in one
    ``lockstep_walks`` pass on their counter-based keys: either gives a
    walk the same jumps. The pass keeps each block's walks and positions,
    block by block and walk by walk within a block, and finds the columns
    of all of them with one lookup at its end: below
    ``walks._BLOCK_HORIZON`` a block holds one jump, and a lookup a block
    doubled the pass's own work (0.07 against 0.04 ms for 73 walks at
    t = 1). Only ``_stay_rule`` needs the landings in (walk, step) order,
    which a stable sort by walk gives; ``_arrow_rule`` sorts its codes
    anyway."""
    pair, index, starts = _walk_labels(xs, counts)
    # walk ids as int32 (a pass holds a few thousand walks): on renorm_z2
    # int64 ids raised peak RSS by 0.4 MB
    if pair.size < _STAY_BATCH_WALKS:
        walk, where = [], []
        for w, (seed, x, i) in enumerate(zip(
                seeds[pair].tolist(), starts.tolist(), index.tolist())):
            jumps = ParticleField(g, seed).trajectory(x, i, t).jumps
            walk += [w] * len(jumps)
            where += jumps
        walk = np.array(walk, dtype=np.int32)
        where = np.array(where, dtype=np.int64)
    else:
        keys = derive_keys(seeds[pair], "traj", starts, index)
        walk, where = [np.empty(0, np.int32)], [g.indices[:0]]
        for rows, pos in lockstep_walks(g, starts, t, keys):
            walk.append(rows.astype(np.int32).repeat(len(pos)))
            where.append(pos.T.ravel())
        walk, where = np.concatenate(walk), np.concatenate(where)
    col = _column_of(verts, look, where)
    land = col >= 0
    out = _column_of(verts, look, starts) < 0
    # a step out: a position, not an ended walk's -1, with no column
    out[walk[np.greater(where >= 0, land)]] = True
    return pair, out, walk[land], col[land]


def _arrow_rule(nb: int, cs: np.ndarray, pair, out, walk, col):
    """The arrows of the pairs on the columns cs (-1 for a vertex off the
    set), from their walks' landings (``_walk_landings``' arrays) among nb
    columns: each pair's number of arrows, and the arrows pair by pair,
    each pair's the ascending distinct columns its walks land on, its own
    dropped."""
    base = pair * nb                 # codes are int32 while every one fits
    if cs.size * nb < 2**31:
        base = base.astype(np.int32)
    codes = base[walk] + col
    codes.sort()
    codes = codes[_run_starts(codes)]
    # then each pair's own column, at most one code a pair
    own = (np.arange(cs.size) * nb + cs)[cs >= 0]
    at = np.searchsorted(codes, own)
    inside = at < codes.size
    at, own = at[inside], own[inside]
    codes = np.delete(codes, at[codes[at] == own])
    return (np.diff(np.searchsorted(codes, np.arange(cs.size + 1) * nb)),
            codes % nb)


def _stay_rule(nb: int, cs: np.ndarray, pair, out, walk, col):
    """The stay-inside reading of the pairs' walks (``_walk_landings``'
    arrays, columns among nb), as three arrays: each pair's number of
    exiting particles, those whose walks visit a vertex off the set; each
    pair's number of distinct columns its staying walks land on; and those
    columns, pair by pair in (walk, step) first-occurrence order."""
    keep = np.flatnonzero(~out[walk])
    keep = keep[np.argsort(walk[keep], kind="stable")]  # by walk, then step
    lp, col = pair[walk[keep]], col[keep]
    codes = lp * nb + col
    first = np.argsort(codes, kind="stable")
    first = np.sort(first[_run_starts(codes[first])])
    return (np.bincount(pair[out], minlength=cs.size),
            np.bincount(lp[first], minlength=cs.size), col[first])


def _columns(verts: np.ndarray) -> np.ndarray:
    """The column lookup of the sorted vertex array verts: entry v - verts[0]
    is v's index in verts for every id v of the span verts[0]..verts[-1]
    (-1 if v is not in verts), and one more -1 follows the span."""
    v0 = int(verts[0]) if verts.size else 0
    span = int(verts[-1]) - v0 + 1 if verts.size else 0
    look = np.full(span + 1, -1, dtype=np.int32)
    look[verts - v0] = np.arange(verts.size, dtype=np.int32)
    return look


def _column_of(verts: np.ndarray, look: np.ndarray, pos: np.ndarray):
    """The columns of the vertex ids pos under look, the ``_columns`` of a
    set whose least vertex is verts[0]: -1 off the set. Ids off the span,
    and the -1 of an ended walk, clip to -1 or the span, and both read the
    -1 after it."""
    v0 = int(verts[0]) if verts.size else 0
    return look[np.minimum(np.maximum(pos - v0, -1), look.size - 1)]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of `a` that differ from the one before them: on
    a sorted array, each distinct value's first entry. Not np.unique,
    whose first call imports numpy.ma (1 MB of peak memory)."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _vertex_counts(seeds: np.ndarray, xs: np.ndarray, lam: float) -> np.ndarray:
    """Particle counts of the vertices xs under the field seeds (arrays that
    broadcast together): the Poisson inverse CDF at each mark
    ``derive_key(seed, "eta", x)``, as ``ParticleField.count_at``."""
    marks = derive_keys(seeds, "eta", xs)
    marks >>= np.uint64(11)
    return poisson_counts(lam, marks * _INV_2_53)


def _walk_labels(xs: np.ndarray, counts: np.ndarray):
    """The particles of the pairs (vertex xs[p], counts[p] particles), pair
    by pair: arrays of each particle's pair, index at its vertex and start
    vertex."""
    pair = np.repeat(np.arange(xs.size), counts)
    first = np.cumsum(counts) - counts       # each pair's first particle
    index = np.arange(pair.size) - np.repeat(first, counts)
    return pair, index, xs[pair]


def restricted_activation(g: Graph, S, params: FrogParams,
                          field: ParticleField) -> RestrictedActivation:
    S = g.interior_set(S, containing=g.origin)
    [(reached, exiters)] = _stay_closure(g, S, g.origin, params, _field_keys(
        field, [*sorted(S), g.origin]))
    harpoon = {x: (x in reached) for x in S}
    stay_sets = {}
    for x in sorted(reached):
        _, trajs = field.particles(x, params)
        stay_sets[x] = tuple(i for i, tr in enumerate(trajs)
                             if tr.visited <= S)
    return RestrictedActivation(frozenset(S), harpoon, stay_sets, exiters)


# Most fields whose scans _read_arrows runs together. Every wave pays the
# fixed numpy cost per jump step of a pass, so the fewer waves the better:
# renorm_z2's decay (500 fields, B(0, 8) on Z^2, density 0.25, t = 64;
# seeds 1-3) took 0.27-0.34 s at 32 fields a block, 0.089-0.098 s at 128
# and 0.041-0.044 s with all 500 in flight (2-vCPU x86-64 host, Python
# 3.11, numpy 2.4). good_vertices runs a field per candidate, so all 145
# of B(0, 8) are in flight. A field in flight holds a byte per vertex of
# B plus what its scan keeps (for _closure_scan, the arrows it has read
# and a byte per vertex for its reach).
_SCAN_FIELDS = 512


def _read_arrows(g: Graph, B, keys: np.ndarray, params: FrogParams, scan):
    """Run one scan per field of `keys` over the arrows of B, revealing a
    vertex's particles only when a scan reads its arrows, and yield each
    scan's return value in field order. B must avoid the truncation
    frontier, where walks are absorbed.

    A vertex is named by its column, its index in sorted B. keys is a
    uint64 array with one key a field, shape (fields,), or a row of keys a
    field, one a column, shape (fields, |B|) (``_pair_keys``). ``scan(i,
    has)`` makes the scan of the i-th field, where has[c] says whether the
    field has particles at the vertex of column c: a generator that yields
    lists of particle-bearing columns it has not read yet and is sent
    their arrows, in the same order, each the ascending columns of the
    vertices of B other than itself that its particles visit within their
    lifespan. A scan keeps the arrows it has read; a vertex with no
    particles points nowhere. The arrow closures are one scan,
    ``_closure_scan``, which yields one column at a time; block_open's
    ``experiments._read_all`` yields every particle-bearing column at once.

    The scans of up to ``_SCAN_FIELDS`` fields run together, and each wave
    reveals every suspended scan's list with one ``_wave_arrows`` call: a
    ``_reveal`` step on the pairs' keys (lockstep passes, or single walks
    for a pass of fewer than ``_STAY_BATCH_WALKS`` walks) reduced by
    ``_arrow_rule``. So no particle is revealed that no scan reads. A field
    in flight keeps B's particle mask (one byte a vertex, from
    ``_vertex_counts`` calls of at most 4 ``_ARROW_WALKS`` marks); each
    wave re-derives its own pairs' counts.
    """
    verts = np.array(sorted(g.interior_set(B)), dtype=np.int64)
    nb = verts.size
    look = _columns(verts)
    for done in range(0, len(keys), _SCAN_FIELDS):
        block = keys[done:done + _SCAN_FIELDS]
        # the marks are derived at most 4 _ARROW_WALKS at a time, a row a
        # field broadcast against B's vertices
        has, step = [], max(1, 4 * _ARROW_WALKS // max(nb, 1))
        for lo in range(0, len(block), step):
            rows = block[lo:lo + step]
            marks = _vertex_counts(rows if rows.ndim == 2 else rows[:, None],
                                   verts, params.lam)
            has += [row.tobytes() for row in marks != 0]
        scans = [scan(done + f, has[f]) for f in range(len(block))]
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


def _wave_arrows(g: Graph, verts: np.ndarray, look: np.ndarray,
                 keys: np.ndarray, wave, params: FrogParams) -> list[list[int]]:
    """The arrows, as ascending column lists, of every (field index,
    column) pair of `wave`, field f keyed by keys[f] or, for a row a field,
    keys[f, column] (``_pair_keys``): one ``_reveal`` step reduced by
    ``_arrow_rule``."""
    fs, cs = np.array(wave, dtype=np.int64).reshape(-1, 2).T
    lens, cols = _reveal(g, verts, look, _pair_keys(keys, fs, cs), cs, params,
                         _arrow_rule)
    ends = np.cumsum(lens)
    return list(map(cols.tolist().__getitem__,
                    map(slice, (ends - lens).tolist(), ends.tolist())))


def arrow_closure(g: Graph, B, start: int, params: FrogParams,
                  field: ParticleField, *, stop_size: int | None = None) -> set[int]:
    """Vertices of B activated from `start` through chains inside B.

    Chain vertices stay in B but the participating trajectories are free to
    leave B and return; a vertex with no particles only points to itself.
    Only the particles of vertices the reach reads are revealed
    (``_closure_scan``). With stop_size (at least 1), returns the first
    stop_size vertices reached. B must avoid the truncation frontier.
    """
    B = g.interior_set(B, containing=start)
    if stop_size is not None and stop_size < 1:
        raise ValueError(f"stop_size must be >= 1, got {stop_size}")
    verts = sorted(B)
    stop = math.inf if stop_size is None else stop_size
    [(_, reached)] = _read_arrows(
        g, verts, _field_keys(field, verts), params,
        lambda _, has: _closure_scan(has, [verts.index(start)], stop))
    return set(itertools.compress(verts, reached))


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
    need = math.ceil(len(B) / 4.0)   # a reach of integer size covers a quarter
    keys = derive_keys(rng.key, "goodv", np.array(verts, dtype=np.int64))
    reach = _read_arrows(g, verts, keys, params,
                         lambda c, has: _closure_scan(has, [c], need))
    return {x for x, (first, _) in zip(verts, reach) if first == 0}


def _closure_scan(has, starts, stop: float):
    """Arrow closures of one field, as a ``_read_arrows`` scan: the index
    in `starts` of the first start column whose reach holds at least stop
    columns, with that reach as a byte mask over the columns; (inf, the
    last start's mask) if none does. Each reach is ``_reach({start}, out,
    lambda r: len(r) >= stop)`` for out(c) the arrows of column c, so a
    reach stopped at k columns holds the first k in reach order. A
    particle-bearing column is read by a one-column yield the first time a
    reach pops it, and its arrows serve every later reach."""
    arrows: dict[int, list[int]] = {}
    reached = bytearray(len(has))
    for i, start in enumerate(starts):
        reached = bytearray(len(has))
        reached[start] = 1
        size, stack = 1, [start]
        while stack and size < stop:
            x = stack.pop()
            if has[x] and x not in arrows:
                [arrows[x]] = yield [x]
            for w in arrows.get(x, ()):
                if not reached[w]:
                    reached[w] = 1
                    size += 1
                    if size >= stop:
                        break
                    stack.append(w)
        if size >= stop:
            return i, reached
    return math.inf, reached


# ---------------------------------------------------------------------------
# subcritical exploration process
# ---------------------------------------------------------------------------


@dataclass
class EPSample:
    generation_sizes: list[int]
    budget_exhausted: bool = False
    clipped_parents: int = 0


# Most parents of a generation of ep_exploration_sample: a supercritical
# exploration grows geometrically, so past this it stops, budget_exhausted
_EP_PARENT_BUDGET = 20_000


def ep_exploration_sample(g: Graph, S, params: FrogParams, rng: Stream,
                          *, max_generations: int = 60) -> EPSample:
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
            key = rng.child("ep", gen, p_idx).key
            fld = ParticleField(g, key)
            [(reached, _)] = _stay_closure(
                g, window, v, params, np.array([key], dtype=np.uint64))
            for x in reached:
                for tr in fld.particles(x, params)[1]:
                    if not tr.visited <= window:
                        children.extend(u for u in tr.visited if u != x)
        sizes.append(len(children))
        if not children:
            break
        if len(children) > _EP_PARENT_BUDGET:
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
    for reached, _ in _replica_closures(g, S, params, [(rng.key, "shell")],
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


# Most walks one lockstep pass of _exit_conditional_stats runs, so peak
# memory stays flat in |S| and in the replica count; it derives keys for 4
# (_EXIT_WALKS // replicas) vertices at a time (one splitmix round a key),
# or for one vertex's replicas _EXIT_WALKS at a time when they are more. A
# walk from x can leave S only if it makes at least d_x = d(x, S^c) jumps,
# which its first d_x holding times decide without its position draws
# (``_can_exit``); only the walks that pass are walked, pooled across
# vertices into full passes: at phi_window_z2's t = 1 (seed 1), 20 224 of
# B(3)'s 50 000 walks in 7 passes and 35 915 of B(5)'s 122 000 in 12.
# Every walk of such a pass jumps, so a pass holds more live walks than
# one of whole vertices did. On those windows (2-vCPU x86-64 host, Python
# 3.11, numpy 2.4) passes of 4 096 walks ran this function 2-4 % faster
# but raised phi_window_z2's peak RSS by about 0.15 MB (of 36.6), and
# passes of 2 048 ran it about 9 % slower. What removes these walks is
# computing the conditional mean exactly from the killed-walk series: N(t)
# is Poisson(t) and independent of the jump chain, so E_x[N(t) 1{exit}]
# follows from the survival vector exit_probability_exact builds.
_EXIT_WALKS = 3072


def _exit_conditional_stats(g: Graph, S: set[int], xs, t: float,
                            replicas: int, seeds) -> list[ExitJumpStats]:
    """``exit_conditional_jumps`` for every x of xs (vertices of S), replica
    r of xs[i] on the stream keyed ``derive_key(seeds[i], "exitcond", r)``.
    A walk exits if it visits a vertex outside S; its jump count is its
    number of steps.

    The walks come vertex by vertex in replica order; keys are derived a
    block of vertices at once, seeds broadcast against replica labels. A
    walk from x that makes fewer than d(x, S^c) jumps cannot exit and
    adds nothing to the samples, so it is dropped unwalked
    (``_can_exit``). The rest are pooled, in that order, into
    ``lockstep_walks`` passes of ``_EXIT_WALKS`` walks; the last pass
    takes what is left."""
    check_replicas(replicas)
    depth = distance_to_complement(g, S)
    need = []
    for x in xs:
        d_x = depth.get(x)
        if d_x is None:
            raise GraphError("x cannot reach the complement of S")
        need.append(d_x)
    inside = _inside_mask(g, S)
    starts = np.array(xs, dtype=np.int64)
    keyed = np.array([seed & _MASK for seed in seeds], dtype=np.uint64)
    rows = max(1, 4 * (_EXIT_WALKS // replicas))   # vertices a key block
    # the exiting walks' vertices and jump counts, pass by pass
    which, jumps = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    pool, pooled = [], 0        # (walk ids, keys) of walks not yet walked
    chunks = [(i, lo) for i in range(0, len(xs), rows)
              for lo in range(0, replicas, _EXIT_WALKS)]
    for n, (i, lo) in enumerate(chunks, start=1):
        block = derive_keys(keyed[i:i + rows, None], "exitcond", np.arange(
            lo, min(lo + _EXIT_WALKS, replicas))[None, :])
        for j, keys in enumerate(block, start=i):
            can = _can_exit(keys, need[j], t)
            pool.append((can + (j * replicas + lo), keys[can]))
            pooled += can.size
        while pooled >= _EXIT_WALKS or (pooled and n == len(chunks)):
            w, keys = map(np.concatenate, zip(*pool))
            pool = [(w[_EXIT_WALKS:], keys[_EXIT_WALKS:])]
            pooled = pool[0][0].size
            w = w[:_EXIT_WALKS] // replicas
            exits, got = _exit_pass(g, inside, starts[w], t,
                                    keys[:_EXIT_WALKS])
            which.append(w[exits])
            jumps.append(got[exits])
    at = np.searchsorted(np.concatenate(which),
                         np.arange(len(xs) + 1)).tolist()
    jumps = np.concatenate(jumps).tolist()
    delta = g.max_interior_degree()
    return [ExitJumpStats(from_samples(jumps[a:b], seed) if b > a else None,
                          (delta ** d_x) * (t + d_x), b - a,
                          (b - a) / replicas)
            for a, b, seed, d_x in zip(at, at[1:], seeds, need)]


def _can_exit(keys: np.ndarray, d: int, t: float) -> np.ndarray:
    """The indices of the keys whose walks make at least d >= 1 jumps by
    time t: their first d holding times, draws 1, 3, ..., 2d - 1, add up
    to at most t, summed and decided as ``lockstep_walks`` does
    (``walks._within``). Each round reads one more holding time of the
    walks still in."""
    live = np.arange(keys.size)
    elapsed = -np.log1p(-uniforms_at(keys, 1))
    k = 1                                   # draws each live walk has read
    while True:
        keep = np.flatnonzero(_within(elapsed[None], t, keys, k)[0])
        live = live[keep]
        if k == 2 * d - 1 or live.size == 0:
            return live
        keys = keys[keep]
        k += 2
        elapsed = elapsed[keep] - np.log1p(-uniforms_at(keys, k))


def _exit_pass(g: Graph, inside: np.ndarray, starts: np.ndarray, t: float,
               keys: np.ndarray):
    """One lockstep pass of the walks from starts on keys: whether each
    visits a vertex off inside (``_inside_mask``), and its jump count."""
    exits = ~inside[starts]
    jumps = np.zeros(starts.size, dtype=np.int64)
    for rows, pos in lockstep_walks(g, starts, t, keys):
        jumps[rows] += len(pos)
        if len(pos) > 1:                    # less the -1 after a walk's end
            jumps[rows] -= (pos < 0).sum(axis=0)
        exits[rows[~inside[pos].all(axis=0)]] = True
    return exits, jumps
