import numpy as np
import pytest

from frogsim import GraphSpec, build_graph, frogs
from frogsim.experiments import _read_all
from frogsim.rng import _MASK


# A directed weighted graph with non-dyadic weights and a sink (vertex 4)
WEIGHTED_DIGRAPH = """frogsim-graph v1 directed
0 1 1.5
0 2 0.25
0 3 2.0
1 0 1.0
1 2 3.0
1 4 0.6
2 0 0.5
2 1 0.7
2 3 0.1
3 0 1.0
3 2 2.5
3 4 0.4
"""


@pytest.fixture(scope="session")
def tree8():
    return build_graph(GraphSpec("regular_tree", degree=3, depth=8))


@pytest.fixture(scope="session")
def tree12():
    return build_graph(GraphSpec("regular_tree", degree=3, depth=12))


@pytest.fixture(scope="session")
def tree16():
    return build_graph(GraphSpec("regular_tree", degree=3, depth=16))


@pytest.fixture(scope="session")
def z1_box():
    return build_graph(GraphSpec("lattice_box", d=1, radius=30))


@pytest.fixture(scope="session")
def z2_box20():
    return build_graph(GraphSpec("lattice_box", d=2, radius=20))


@pytest.fixture(scope="session")
def z2_box40():
    return build_graph(GraphSpec("lattice_box", d=2, radius=40))


@pytest.fixture(scope="session")
def ladder240():
    return build_graph(GraphSpec("ladder", width=2, length=240))


def bfs_oracle(neighbors, start, radius=None):
    """Reference BFS, independent of the package's id layout: `neighbors`
    is a callable on hashable states."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            if radius is not None and dist[v] >= radius:
                continue
            for u in neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def key_row(field):
    """The key (seed mod 2^64) that gives the particles of each vertex of
    field's graph under field, as a uint64 array by vertex id."""
    if isinstance(field.seed, np.ndarray):
        return field.seed
    return np.full(field.graph.vertex_count, field.seed & _MASK,
                   dtype=np.uint64)


def key_at(field, x):
    """The key that gives the particles of vertex x under field."""
    return int(key_row(field)[x])


class SpliceField:
    """Field that answers from `field_in` on a vertex set and `field_out`
    elsewhere: the tool for locality tests (re-sample everything outside a
    window and check nothing changes). The engines read it as its seed, a
    uint64 array of each vertex's key by vertex id (frogs._field_keys, or
    keys_of's rows); count_at, trajectory and particles answer from the
    field of the vertex, for the per-particle oracles."""

    def __init__(self, inside, field_in, field_out):
        self.inside = set(inside)
        self.field_in = field_in
        self.field_out = field_out
        self.graph = field_in.graph
        mask = np.zeros(self.graph.vertex_count, dtype=bool)
        mask[list(self.inside)] = True
        self.seed = np.where(mask, key_row(field_in), key_row(field_out))

    def _at(self, x: int):
        """The field that answers for vertex x."""
        return self.field_in if x in self.inside else self.field_out

    def count_at(self, x: int, lam: float) -> int:
        return self._at(x).count_at(x, lam)

    def trajectory(self, x: int, i: int, t: float):
        return self._at(x).trajectory(x, i, t)

    def particles(self, x: int, params):
        return self._at(x).particles(x, params)


def keys_of(fields, verts):
    """The engines' key array of `fields` over the columns' vertices verts:
    one key a field, shape (fields,), when no field is spliced, and
    otherwise a row of keys a field, one a column, shape (fields,
    len(verts))."""
    fields = list(fields)
    if not any(isinstance(f, SpliceField) for f in fields):
        return np.array([f.seed & _MASK for f in fields], dtype=np.uint64)
    return np.array([key_row(f)[list(verts)] for f in fields],
                    dtype=np.uint64).reshape(len(fields), len(verts))


def stay_keys(fields, S, start):
    """keys_of for frogs._stay_closure on the window S from start, whose
    columns are sorted S and then start."""
    return keys_of(fields, [*sorted(S), start])


def read_all_arrows(g, B, fields, params):
    """The arrows of B under each of `fields`, as {x: the set of vertices
    of B other than x that x's particles visit} for every x of B, read
    through frogs._read_arrows with block_open's read-everything scan."""
    verts = sorted(B)
    return [{x: {verts[y] for y in got.get(c, ())}
             for c, x in enumerate(verts)}
            for got in frogs._read_arrows(g, verts, keys_of(fields, verts),
                                          params, _read_all)]


def spy_wave_arrows(monkeypatch):
    """Record every pair that frogs._wave_arrows reveals, by a lockstep
    pass or one walk at a time, as (field key, vertex, particle count);
    returns the list the records are appended to."""
    revealed = []
    wave_arrows = frogs._wave_arrows

    def spy(g, verts, look, keys, wave, params):
        for f, c in wave:
            x = int(verts[c])
            key = int(keys[f] if keys.ndim == 1 else keys[f, c])
            revealed.append((key, x, frogs.ParticleField(g, key).count_at(
                x, params.lam)))
        return wave_arrows(g, verts, look, keys, wave, params)

    monkeypatch.setattr(frogs, "_wave_arrows", spy)
    return revealed


def spy_trajectories(monkeypatch):
    """Record the distinct (field seed mod 2^64, vertex, particle index) of
    every trajectory read through ParticleField.trajectory, which every
    single particle read goes through; returns the set the records are
    added to."""
    read = set()
    trajectory = frogs.ParticleField.trajectory

    def spy(field, x, i, t):
        read.add((field.seed & _MASK, x, i))
        return trajectory(field, x, i, t)

    monkeypatch.setattr(frogs.ParticleField, "trajectory", spy)
    return read


def reads_of(read, field):
    """How many of the (seed, vertex, index) records of `read` are
    particles of the ParticleField `field`."""
    return sum(1 for seed, _, _ in read if seed == field.seed & _MASK)
