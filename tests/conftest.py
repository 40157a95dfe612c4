import pytest

from frogsim import GraphSpec, build_graph, frogs
from frogsim.experiments import _read_all


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


def read_all_arrows(g, B, fields, params):
    """The arrows of B under each of `fields`, as {x: the set of vertices
    of B other than x that x's particles visit} for every x of B, read
    through frogs._read_arrows with block_open's read-everything scan."""
    verts = sorted(B)
    return [{x: {verts[y] for y in got.get(c, ())}
             for c, x in enumerate(verts)}
            for got in frogs._read_arrows(g, verts, fields, params,
                                          _read_all)]


def spy_wave_arrows(monkeypatch):
    """Record every pair that frogs._wave_arrows reveals, by a lockstep
    pass or through field.particles, as (field seed, vertex, particle
    count); returns the list the records are appended to."""
    revealed = []
    wave_arrows = frogs._wave_arrows

    def spy(g, verts, look, fields, seeds, wave, params):
        for f, c in wave:
            x = int(verts[c])
            revealed.append((fields[f].seeds([x])[0], x,
                             fields[f].count_at(x, params.lam)))
        return wave_arrows(g, verts, look, fields, seeds, wave, params)

    monkeypatch.setattr(frogs, "_wave_arrows", spy)
    return revealed


def spy_trajectories(monkeypatch):
    """Record the distinct (field seed, vertex, particle index) of every
    trajectory read through ParticleField.trajectory, which every single
    particle read goes through; returns the set the records are added to."""
    read = set()
    trajectory = frogs.ParticleField.trajectory

    def spy(field, x, i, t):
        read.add((field.seed, x, i))
        return trajectory(field, x, i, t)

    monkeypatch.setattr(frogs.ParticleField, "trajectory", spy)
    return read


def reads_of(read, field):
    """How many of the (seed, vertex, index) records of `read` are
    particles of the ParticleField `field`."""
    return sum(1 for seed, _, _ in read if seed == field.seed)
