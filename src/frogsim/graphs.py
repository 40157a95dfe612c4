"""Finite graph arenas for walks and frogs.

Infinite graphs are represented by truncated stand-ins: lattice boxes
(graph-metric balls of Z^d), regular trees, ladders, and user-supplied
weighted networks. Vertices get dense integer ids in BFS order from the
origin (id 0), adjacency is stored CSR-style, and the truncation frontier is
recorded in ``boundary``. Walk dynamics treat boundary vertices as sinks:
interior behaviour is exact up to the first boundary hit, which is all the
finite connection events need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class GraphError(ValueError):
    """Malformed graph specification or input file."""


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a graph family instance.

    family is one of lattice_box, regular_tree, ladder, weighted_file.
    Frontier vertices are sinks for the walk.
    """

    family: str
    d: int = 0
    radius: int = 0
    degree: int = 0
    depth: int = 0
    width: int = 0
    length: int = 0
    path: str = ""
    max_vertices: int = 20_000_000

    def describe(self) -> str:
        """Compact descriptor; comma-free so it can sit in a CSV cell."""
        if self.family == "lattice_box":
            return f"lattice_box:d{self.d}:r{self.radius}"
        if self.family == "regular_tree":
            return f"regular_tree:{self.degree}:{self.depth}"
        if self.family == "ladder":
            return f"ladder:{self.width}:{self.length}"
        if self.family == "weighted_file":
            return f"weighted_file:{Path(self.path).name}".replace(",", "_")
        return self.family


@dataclass
class Graph:
    """Finite weighted (di)graph with CSR adjacency and BFS-ordered ids.

    Every graph-distance query below runs on one layer-at-a-time search
    over ``indptr``/``indices`` (``_frontiers``) and rejects any vertex id
    that ``check_vertex`` rejects, with GraphError.

    Derived structures are built lazily, on first use, and cached on the
    graph: the jump-chain kernel as CSR-ordered numpy arrays (see
    ``transition_matrix``), the plain-Python walk tables that the per-jump
    sampling loop reads (see ``walk_tables``) and their numpy counterparts
    for batched walks (see ``walk_arrays``). Building them inside the work
    phase keeps graph construction as cheap as the arrays alone.
    """

    vertex_count: int
    indptr: np.ndarray        # int64, len n+1
    indices: np.ndarray       # int32, concatenated out-neighbor lists
    weights: np.ndarray | None  # float64 aligned with indices; None means all 1
    pi: np.ndarray            # float64, pi(x) = sum_y w(x, y)
    directed: bool
    boundary_mask: np.ndarray  # bool, truncation frontier (walk sinks)
    dist: np.ndarray          # int32, graph distance from origin (-1 unreachable)
    family: str = "custom"
    origin: int = 0
    coords: np.ndarray | None = None  # (n, d) lattice points, grid families only
    _transition: tuple | None = field(default=None, repr=False)
    _walk: tuple | None = field(default=None, repr=False)
    _walk_np: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.boundary_mask[self.origin]:
            raise GraphError("origin lies on the truncation frontier")
        # distances_from(g, origin) hands out dist itself; ball reads it
        self.dist.flags.writeable = False

    # -- basic queries -------------------------------------------------

    def out_neighbors(self, x: int) -> np.ndarray:
        return self.indices[self.indptr[x]:self.indptr[x + 1]]

    def degree(self, x: int) -> int:
        return int(self.indptr[x + 1] - self.indptr[x])

    def max_interior_degree(self) -> int:
        """Largest out-degree away from the truncation frontier."""
        degs = np.diff(self.indptr)
        inside = degs[~self.boundary_mask]
        return int((inside if inside.size else degs).max())

    def check_vertex(self, *xs) -> None:
        """Raise GraphError unless every x is a vertex id of this graph: a
        Python or numpy integer, not a bool, in [0, vertex_count)."""
        for x in xs:
            if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                    or not 0 <= x < self.vertex_count):
                raise GraphError(f"invalid vertex {x}")

    def vertex_set(self, xs) -> set[int]:
        """The vertex ids xs as a set of Python ints, each checked by
        ``check_vertex`` before it is converted."""
        xs = list(xs)
        self.check_vertex(*xs)
        return set(map(int, xs))

    def interior_set(self, xs, containing: int | None = None) -> set[int]:
        """The window xs as ``vertex_set`` gives it, checked to avoid the
        truncation frontier (where walks are absorbed) and, when given, to
        contain the vertex `containing`. The one check of every window."""
        S = self.vertex_set(xs)
        if self.boundary_mask[list(S)].any():
            raise GraphError("window must avoid the truncation frontier")
        if containing is not None:
            self.check_vertex(containing)
            if containing not in S:
                raise GraphError(f"window must contain vertex {containing}")
        return S

    @property
    def boundary_set(self) -> frozenset:
        return frozenset(np.flatnonzero(self.boundary_mask).tolist())

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @property
    def max_radius(self) -> int:
        """Largest graph distance from the origin (the truncation radius)."""
        return int(self.dist.max())

    def edge_weight(self, x: int, y: int) -> float:
        row = self.out_neighbors(x)
        hits = np.flatnonzero(row == y)
        if hits.size == 0:
            return 0.0
        if self.weights is None:
            return float(hits.size)
        return float(self.weights[self.indptr[x] + hits].sum())

    # -- walk kernel ---------------------------------------------------

    def walk_tables(self) -> tuple:
        """(rows, cumweights, boundary) as plain Python lists, cached.

        rows[x] lists the out-neighbours of x, cumweights[x] the running
        sums of their weights (None for the whole table when the graph is
        unweighted) and boundary[x] is the frontier flag. Lists of Python
        ints and floats spare the sampler a numpy scalar per jump; they
        take about 150 bytes per vertex, some ten times the CSR arrays.
        """
        if self._walk is None:
            ptr = self.indptr.tolist()
            ids = self.indices.tolist()
            rows = [ids[a:b] for a, b in zip(ptr, ptr[1:])]
            cums = None
            if self.weights is not None:
                cw = self._row_cumweights().tolist()
                cums = [cw[a:b] for a, b in zip(ptr, ptr[1:])]
            self._walk = (rows, cums, self.boundary_mask.tolist())
        return self._walk

    def walk_arrays(self) -> tuple:
        """(degree, cumweights) as flat numpy arrays, cached.

        degree[x] is the out-degree as float64 (None when the graph is
        weighted) and cumweights the per-row running weight sums aligned
        with ``indices`` (None when it is unweighted): the same values as
        ``walk_tables``, for samplers that pick many jumps at once.
        """
        if self._walk_np is None:
            if self.weights is None:
                self._walk_np = (np.diff(self.indptr).astype(np.float64), None)
            else:
                self._walk_np = (None, self._row_cumweights())
        return self._walk_np

    def _row_cumweights(self) -> np.ndarray:
        """Running weight sums within each row, aligned with ``indices``."""
        # one running sum over all rows minus each row's offset: the sampled
        # jumps depend on this rounding, so keep it as is
        cw = np.cumsum(self.weights)
        starts = cw[self.indptr[:-1] - 1]
        starts[self.indptr[:-1] == 0] = 0.0
        return cw - np.repeat(starts, np.diff(self.indptr))

    def transition_matrix(self) -> tuple:
        """Jump-chain kernel P(x,y) = w(x,y)/pi(x) as cached numpy arrays
        (rows, cols, vals) in CSR order, each row in ``indices`` order;
        each frontier row holds just a diagonal 1.0, so boundary rows absorb."""
        if self._transition is None:
            rows = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
            w = self.weights if self.weights is not None else 1.0
            vals = w / self.pi[rows]
            keep = ~self.boundary_mask[rows]
            sinks = np.flatnonzero(self.boundary_mask)
            rows = np.concatenate([rows[keep], sinks])
            order = np.argsort(rows, kind="stable")
            self._transition = (
                rows[order],
                np.concatenate([self.indices[keep], sinks])[order],
                np.concatenate([vals[keep], np.ones(sinks.size)])[order])
        return self._transition


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _csr_from_edges(n: int, src: np.ndarray, dst: np.ndarray,
                    w: np.ndarray | None):
    """Assemble CSR arrays from directed edge lists (already both-way for
    undirected graphs)."""
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    if w is not None:
        w = w[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, dst.astype(np.int32), w


def _rows(indptr: np.ndarray, indices: np.ndarray, vs: np.ndarray):
    """(the CSR rows of the vertices vs concatenated, each row's length)."""
    lo = indptr[vs]
    counts = indptr[vs + 1] - lo
    return indices[np.arange(counts.sum()) +
                   np.repeat(lo - np.cumsum(counts) + counts, counts)], counts


def _frontiers(indptr: np.ndarray, indices: np.ndarray, sources,
               radius: int | None = None):
    """Breadth-first layers over CSR arrays, as int64 arrays: the sources,
    then the vertices first reached one step later, until layer `radius` or
    an empty layer. Each layer keeps the order a queue-driven search visits
    it in (frontier order, then row order). Cost: the rows read, plus one
    bool mask over the vertices."""
    seen = np.zeros(indptr.size - 1, dtype=bool)
    layer = np.asarray(sources, dtype=np.int64)
    seen[layer] = True
    depth = 0
    while layer.size:
        yield layer
        if depth == radius:
            return
        depth += 1
        reached, _ = _rows(indptr, indices, layer)
        reached = reached[~seen[reached]]
        # first occurrences (np.unique's first call imports numpy.ma, 1 MB)
        order = np.argsort(reached, kind="stable")
        first = np.ones(order.size, dtype=bool)
        np.not_equal(reached[order[1:]], reached[order[:-1]], out=first[1:])
        layer = reached[np.sort(order[first])].astype(np.int64)
        seen[layer] = True


def _layer_distances(indptr: np.ndarray, indices: np.ndarray, sources):
    """int32 distance from the nearest source (-1 when unreachable)."""
    dist = np.full(indptr.size - 1, -1, dtype=np.int32)
    for d, layer in enumerate(_frontiers(indptr, indices, sources)):
        dist[layer] = d
    return dist


def _points_to_graph(points: np.ndarray, origin_row: int, spec: GraphSpec,
                     boundary_of: np.ndarray) -> Graph:
    """Unit-step grid graph on an arbitrary finite set of Z^d points.

    points: (n, d) int array. boundary_of: bool per point. Ids are assigned
    in BFS order from the origin (sorted by (graph distance, lex coords)),
    which for these convex point sets equals (l1 distance to origin, lex).
    """
    pts = points - points[origin_row]
    l1 = np.abs(pts).sum(axis=1)
    order = np.lexsort(tuple(pts[:, k] for k in range(pts.shape[1] - 1, -1, -1)))
    order = order[np.argsort(l1[order], kind="stable")]
    pts = pts[order]
    boundary = boundary_of[order]
    n = pts.shape[0]
    if n > spec.max_vertices:
        raise GraphError(f"vertex budget exceeded: {n} > {spec.max_vertices}")

    # lexicographic key per point for neighbor lookup; a unit step along
    # an axis adds or subtracts that axis's stride
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo + 3
    strides = np.cumprod(np.r_[1, span[:0:-1]])[::-1]
    key = (pts - lo + 1) @ strides
    key_order = np.argsort(key)
    key_sorted = key[key_order]

    srcs, dsts = [], []
    for axis in range(pts.shape[1]):
        for sign in (1, -1):
            skey = key + sign * strides[axis]
            pos = np.searchsorted(key_sorted, skey)
            pos = np.clip(pos, 0, n - 1)
            found = key_sorted[pos] == skey
            srcs.append(np.flatnonzero(found))
            dsts.append(key_order[pos[found]])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    indptr, indices, _ = _csr_from_edges(n, src, dst, None)
    dist = np.abs(pts).sum(axis=1).astype(np.int32)
    pi = np.diff(indptr).astype(np.float64)
    return Graph(n, indptr, indices, None, pi, False, boundary,
                 dist, family=spec.describe(), coords=pts)


def _build_lattice_box(spec: GraphSpec) -> Graph:
    d, r = spec.d, spec.radius
    if d < 1 or r < 1:
        raise GraphError("lattice_box needs d >= 1 and radius >= 1")
    if (2 * r + 1) ** d > 40 * spec.max_vertices:
        raise GraphError(f"vertex budget exceeded: a lattice_box of radius {r} "
                         f"in {d} dimensions enumerates more than 40 x "
                         f"{spec.max_vertices} points")
    axes = [np.arange(-r, r + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.abs(pts).sum(axis=1) <= r
    pts = pts[keep]
    origin_row = int(np.flatnonzero(np.all(pts == 0, axis=1))[0])
    boundary = np.abs(pts).sum(axis=1) == r
    return _points_to_graph(pts, origin_row, spec, boundary)


def _build_ladder(spec: GraphSpec) -> Graph:
    w, ln = spec.width, spec.length
    if w < 1 or ln < 1:
        raise GraphError("ladder needs width >= 1 and length >= 1")
    cols = np.arange(-ln, ln + 1)
    rows = np.arange(w)
    cc, rr = np.meshgrid(cols, rows, indexing="ij")
    pts = np.stack([cc.ravel(), rr.ravel()], axis=1)
    origin_row = int(np.flatnonzero((pts[:, 0] == 0) & (pts[:, 1] == 0))[0])
    # frontier along the unbounded direction: the two end columns
    boundary = np.abs(pts[:, 0]) == ln
    return _points_to_graph(pts, origin_row, spec, boundary)


def _build_regular_tree(spec: GraphSpec) -> Graph:
    deg, depth = spec.degree, spec.depth
    if deg < 3:
        raise GraphError("regular_tree needs degree >= 3")
    if depth < 1:
        raise GraphError("regular_tree needs depth >= 1")
    sizes = [1, deg]
    for _ in range(2, depth + 1):
        sizes.append(sizes[-1] * (deg - 1))
    n = int(np.sum(sizes))
    if n > spec.max_vertices:
        raise GraphError(f"vertex budget exceeded: {n} > {spec.max_vertices}")
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    child = []
    parent = []
    for lev in range(1, depth + 1):
        ids = np.arange(starts[lev], starts[lev + 1], dtype=np.int64)
        k = deg if lev == 1 else deg - 1
        par = starts[lev - 1] + (ids - starts[lev]) // k
        child.append(ids)
        parent.append(par)
    child = np.concatenate(child)
    parent = np.concatenate(parent)
    src = np.concatenate([child, parent])
    dst = np.concatenate([parent, child])
    indptr, indices, _ = _csr_from_edges(n, src, dst, None)
    dist = np.zeros(n, dtype=np.int32)
    for lev in range(1, depth + 1):
        dist[starts[lev]:starts[lev + 1]] = lev
    boundary = dist == depth
    pi = np.diff(indptr).astype(np.float64)
    return Graph(n, indptr, indices, None, pi, False, boundary, dist,
                 family=spec.describe())


def _parse_weighted_file(spec: GraphSpec) -> Graph:
    path = Path(spec.path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read graph file: {exc}") from exc
    lines = text.splitlines()
    header = None
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            header = stripped
            body_start = i + 1
            break
    if header is None:
        raise GraphError("empty graph file")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "frogsim-graph" or parts[1] != "v1":
        raise GraphError(f"bad header line: {header!r}")
    if parts[2] not in ("directed", "undirected"):
        raise GraphError(f"orientation must be directed|undirected, got {parts[2]!r}")
    directed = parts[2] == "directed"

    edges: dict[tuple[int, int], float] = {}
    ids: set[int] = set()
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if len(toks) != 3:
            raise GraphError(f"line {lineno}: expected 'u v w', got {stripped!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
            w = float(toks[2])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
        if w <= 0 or not np.isfinite(w):
            raise GraphError(f"line {lineno}: weight must be positive, got {w}")
        ids.add(u)
        ids.add(v)
        keys = [(u, v)] if directed else [(u, v), (v, u)]
        for key in keys:
            if key in edges and edges[key] != w:
                raise GraphError(f"line {lineno}: conflicting weight for edge {key}")
            edges[key] = w
    if not ids:
        raise GraphError("graph file has no edges")
    if len(ids) > spec.max_vertices:
        raise GraphError("vertex budget exceeded")

    raw_ids = sorted(ids)
    raw_index = {rid: i for i, rid in enumerate(raw_ids)}
    n = len(raw_ids)
    src0 = np.array([raw_index[u] for (u, v) in edges], dtype=np.int64)
    dst0 = np.array([raw_index[v] for (u, v) in edges], dtype=np.int64)
    w0 = np.array(list(edges.values()), dtype=np.float64)

    # provisional CSR to run BFS from the smallest original id
    indptr0, indices0, w0s = _csr_from_edges(n, src0, dst0, w0)
    dist0 = _layer_distances(indptr0, indices0, [0])
    reach = dist0 >= 0
    sort_dist = np.where(reach, dist0, np.iinfo(np.int32).max)
    order = np.lexsort((np.arange(n), sort_dist))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    src = rank[src0]
    dst = rank[dst0]
    # vertices with no out-edges are natural sinks; keep local finiteness
    # with a self-loop and mark them as frontier
    out_counts = np.bincount(src, minlength=n)
    sinks = np.flatnonzero(out_counts == 0)
    if sinks.size:
        src = np.concatenate([src, sinks])
        dst = np.concatenate([dst, sinks])
        w0 = np.concatenate([w0, np.ones(sinks.size)])
    indptr, indices, wfin = _csr_from_edges(n, src, dst, w0)
    pi = np.zeros(n, dtype=np.float64)
    np.add.at(pi, src, w0)
    dist = np.empty(n, dtype=np.int32)
    dist[rank] = np.where(reach, dist0, -1)
    boundary = np.zeros(n, dtype=bool)
    boundary[sinks] = True
    g = Graph(n, indptr, indices, wfin, pi, directed, boundary, dist,
              family=spec.describe())
    _validate(g)
    return g


def build_graph(spec: GraphSpec) -> Graph:
    if spec.family == "lattice_box":
        return _build_lattice_box(spec)
    if spec.family == "regular_tree":
        return _build_regular_tree(spec)
    if spec.family == "ladder":
        return _build_ladder(spec)
    if spec.family == "weighted_file":
        return _parse_weighted_file(spec)
    raise GraphError(f"unknown graph family {spec.family!r}")


def _validate(g: Graph, rel_tol: float = 1e-12) -> None:
    if np.any(np.diff(g.indptr) <= 0):
        raise GraphError("every vertex needs a non-empty out-neighbor list")
    w = g.weights if g.weights is not None else np.ones_like(g.indices, float)
    sums = np.zeros(g.vertex_count)
    np.add.at(sums, np.repeat(np.arange(g.vertex_count), np.diff(g.indptr)), w)
    if not np.allclose(sums, g.pi, rtol=rel_tol, atol=0):
        raise GraphError("pi(x) does not match outgoing weight sums")
    if not g.directed:
        # w(x, y) must equal w(y, x) for every stored edge
        src = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
        fwd = {(int(a), int(b)): float(c) for a, b, c in zip(src, g.indices, w)}
        for (a, b), c in fwd.items():
            if fwd.get((b, a)) != c:
                raise GraphError(f"asymmetric weight on edge ({a}, {b})")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def ball(g: Graph, x: int, r: int) -> set[int]:
    """All vertices within graph distance r of x (out-distance if directed),
    inserted in breadth-first order."""
    g.check_vertex(x)
    if r < 0:
        raise GraphError("radius must be >= 0")
    if x == g.origin and g.dist.min() >= 0:
        return set(np.flatnonzero(g.dist <= r).tolist())
    return set(np.concatenate(list(_frontiers(g.indptr, g.indices, [x], r)))
               .tolist())


def sphere(g: Graph, x: int, r: int) -> set[int]:
    """S(r) = B(r) minus B(r-1): the last layer of one search."""
    g.check_vertex(x)
    if r < 0:
        raise GraphError("radius must be >= 0")
    layers = list(_frontiers(g.indptr, g.indices, [x], r))
    return set(layers[r].tolist()) if len(layers) > r else set()


def distances_from(g: Graph, x: int) -> np.ndarray:
    """Out-distance from x to every vertex (-1 when unreachable); from the
    origin, the graph's own read-only ``dist``."""
    g.check_vertex(x)
    if x == g.origin:
        return g.dist
    return _layer_distances(g.indptr, g.indices, [x])


def distance_to_complement(g: Graph, S) -> dict[int, int]:
    """d(x, S^c) for each x in S with a directed path out of S: one search
    from S's exit vertices (distance 1) over S's internal edges reversed."""
    members = np.array(sorted(g.vertex_set(S)), dtype=np.int64)
    dst, counts = _rows(g.indptr, g.indices, members)
    src = np.repeat(members, counts)
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[members] = True
    internal = inside[dst]
    indptr, indices, _ = _csr_from_edges(g.vertex_count, dst[internal],
                                         src[internal], None)
    dist = _layer_distances(indptr, indices, src[~internal])
    found = np.flatnonzero(dist >= 0)
    return dict(zip(found.tolist(), (dist[found] + 1).tolist()))


def growth_profile(g: Graph, x: int, rmax: int):
    """Ball volumes g(0..rmax) around x and the fitted growth exponent.

    The exponent is the least-squares slope of log g(n) against log n over
    n in [rmax/2, rmax]. Raises if the profile would be boundary-distorted.
    """
    g.check_vertex(x)
    if rmax < 2:
        raise GraphError("rmax must be >= 2 to fit an exponent")
    layer_sizes = np.zeros(rmax + 1, dtype=np.int64)
    for r, layer in enumerate(_frontiers(g.indptr, g.indices, [x], rmax)):
        if r and g.boundary_mask[layer].any():
            raise GraphError(
                f"rmax={rmax} reaches the truncation frontier at r={r}; "
                "profile would be boundary-distorted")
        layer_sizes[r] = layer.size
    sizes = np.cumsum(layer_sizes)
    ns = np.arange(rmax // 2, rmax + 1)
    slope = np.polyfit(np.log(ns), np.log(sizes[ns]), 1)[0]
    return sizes, float(slope), int(round(slope))


def cheeger_of_set(g: Graph, A) -> float:
    """Boundary-weight to volume ratio of A: sum_{a in A, b not in A} w(a,b)
    over sum_{a in A} pi(a)."""
    A = g.vertex_set(A)
    if not A:
        raise GraphError("cheeger_of_set needs a non-empty set")
    out_w = 0.0
    vol = 0.0
    for a in A:
        vol += g.pi[a]
        row = g.out_neighbors(a)
        w = (g.weights[g.indptr[a]:g.indptr[a + 1]]
             if g.weights is not None else np.ones(row.size))
        for y, wy in zip(row, w):
            if int(y) not in A:
                out_w += wy
    return out_w / vol


def stationary_control_constant(g: Graph) -> float:
    """max pi / min pi over interior vertices (frontier degrees are
    truncation artifacts, not graph geometry)."""
    interior = g.interior_mask
    vals = g.pi[interior] if interior.any() else g.pi
    return float(vals.max() / vals.min())


@dataclass
class SpectralEstimate:
    estimate: float
    returns: np.ndarray        # p_{2n}(x,x) for n = 0..nmax/2
    root_seq: np.ndarray       # p_{2n}^{1/2n}
    ratio_seq: np.ndarray      # sqrt(p_{2n+2}/p_{2n})
    richardson_seq: np.ndarray
    monotone: bool
    leakage: float
    truncation_warning: bool


def spectral_radius_estimate(g: Graph, x: int, nmax: int) -> SpectralEstimate:
    """Estimate the jump-chain spectral radius from even-step returns.

    Computes p_{2n}(x,x) by exact iteration of the boundary-absorbed
    kernel, then extrapolates the ratio sequence sqrt(p_{2n+2}/p_{2n}), whose
    1/n polynomial correction is removed Richardson-style. Requires an
    undirected graph (the estimator relies on reversibility).

    Returns to x are exact (not truncation-biased) as long as no walk of
    length nmax can reach the frontier and come back, i.e. whenever
    nmax < 2 * d(x, boundary); otherwise the result is flagged and reads as
    an upper-bias bracket of the truncated kernel.

    On a closed graph (no frontier: user-supplied expander stand-ins) the
    returns converge to the stationary weight pi(x)/pi(V); the decay rate is
    then read off the centered sequence, which tracks the second eigenvalue.
    """
    if g.directed:
        raise GraphError("spectral_radius_estimate requires an undirected graph")
    if nmax < 4 or nmax % 2:
        raise GraphError("nmax must be an even integer >= 4")
    g.check_vertex(x)
    rows, cols, vals = g.transition_matrix()
    v = np.zeros(g.vertex_count)
    v[x] = 1.0
    returns = [1.0]
    for k in range(1, nmax + 1):
        v = np.bincount(cols, vals * v[rows], v.size)  # P^T v
        if k % 2 == 0:
            returns.append(float(v[x]))
    returns = np.array(returns)
    leakage = float(v[g.boundary_mask].sum())
    stationary = 0.0 if g.boundary_mask.any() else float(g.pi[x] / g.pi.sum())
    centered = returns - stationary
    if np.any(centered[1:] <= 0):
        centered = returns  # closed bipartite-like input; keep raw decay
    ns = np.arange(1, returns.size)
    root_seq = centered[1:] ** (1.0 / (2 * ns))
    ratio_seq = np.sqrt(centered[2:] / centered[1:-1])
    m = np.arange(1, ratio_seq.size + 1).astype(float)
    richardson = m[1:] * ratio_seq[1:] - m[:-1] * ratio_seq[:-1]
    monotone = bool(np.all(np.diff(returns) <= 1e-15))
    estimate = float(richardson[-1]) if richardson.size else float(ratio_seq[-1])
    estimate = min(estimate, 1.0)
    if g.boundary_mask.any():
        bdist = int(distances_from(g, x)[g.boundary_mask].min())
        warn = nmax >= 2 * bdist
    else:
        warn = False
    return SpectralEstimate(estimate, returns, root_seq, ratio_seq,
                            richardson, monotone, leakage, warn)
