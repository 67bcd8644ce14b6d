"""Shared fixtures and helpers for the test suite.

``networkx`` serves strictly as an *oracle* (known-good minimum cut,
max-flow, core numbers); every algorithm under test is this package's own
implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph.csr import Graph


def nx_to_graph(G) -> Graph:
    """Convert a networkx graph (optional 'weight' attributes) to CSR."""
    n = G.number_of_nodes()
    mapping = {v: i for i, v in enumerate(G.nodes())}
    us, vs, ws = [], [], []
    for u, v, data in G.edges(data=True):
        us.append(mapping[u])
        vs.append(mapping[v])
        ws.append(int(data.get("weight", 1)))
    return from_edges(n, us, vs, ws)


def graph_to_nx(g: Graph):
    """Convert CSR to networkx (for oracle calls)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in zip(*g.edge_arrays()):
        G.add_edge(int(u), int(v), weight=int(w), capacity=int(w))
    return G


class SegmentLog:
    """Names of the shared-memory segments this process created during a
    test (filled by the ``shm_segments`` fixture)."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def leaked(self) -> list[str]:
        """The recorded segments that still exist."""
        from repro.graph.shm import _attach_untracked

        left = []
        for name in self.names:
            try:
                _attach_untracked(name).close()
            except FileNotFoundError:
                continue
            left.append(name)
        return left

    def assert_all_unlinked(self, at_least: int) -> None:
        """At least ``at_least`` segments were created, and none is left."""
        assert len(self.names) >= at_least
        assert self.leaked() == []


@pytest.fixture
def shm_segments(monkeypatch) -> SegmentLog:
    """Record every shared-memory segment this process creates.

    Leak checks assert on these names rather than on the whole
    ``/dev/shm`` listing, so segments of a concurrent solve in another
    process cannot fail them.  Every segment type is created through
    :func:`repro.graph.shm._create`, the one function wrapped here.
    """
    from repro.graph import shm

    log = SegmentLog()
    create = shm._create

    def recording_create(size: int):
        seg = create(size)
        log.names.append(seg.name)
        return seg

    monkeypatch.setattr(shm, "_create", recording_create)
    return log


def oracle_mincut(g: Graph) -> int:
    """Exact minimum cut via networkx Stoer–Wagner (connected graphs)."""
    import networkx as nx

    value, _ = nx.stoer_wagner(graph_to_nx(g))
    return value


def random_connected_weighted(rng: np.random.Generator, n_max: int = 40, w_max: int = 10) -> Graph:
    """A random connected weighted graph for oracle comparisons."""
    from repro.generators import connected_gnm

    n = int(rng.integers(2, n_max))
    extra = int(rng.integers(0, max(1, n)))
    m = n - 1 + extra
    m = min(m, n * (n - 1) // 2)
    return connected_gnm(n, m, rng=rng, weights=(1, w_max))


# -- canonical small graphs ---------------------------------------------------


@pytest.fixture
def triangle() -> Graph:
    return from_edges(3, [0, 1, 2], [1, 2, 0], [1, 2, 3])


@pytest.fixture
def dumbbell() -> Graph:
    """Two K4s joined by one unit edge: λ = 1, sides {0..3} / {4..7}."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j, 1))
    edges.append((3, 4, 1))
    us, vs, ws = zip(*edges)
    return from_edges(8, us, vs, ws)


@pytest.fixture
def weighted_cycle() -> Graph:
    """C4 with weights 3,1,3,1: λ = 2 (the two weight-1 edges)."""
    return from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [3, 1, 3, 1])


@pytest.fixture
def star() -> Graph:
    """Star K1,5 with distinct weights: λ = min leaf weight = 2."""
    return from_edges(6, [0] * 5, [1, 2, 3, 4, 5], [2, 3, 4, 5, 6])


@pytest.fixture
def clique6() -> Graph:
    """K6 unit weights: λ = 5."""
    us, vs = [], []
    for i in range(6):
        for j in range(i + 1, 6):
            us.append(i)
            vs.append(j)
    return from_edges(6, us, vs)


@pytest.fixture
def path4() -> Graph:
    """P4: λ = 1."""
    return from_edges(4, [0, 1, 2], [1, 2, 3])


@pytest.fixture
def two_triangles_disconnected() -> Graph:
    """Two disjoint triangles: disconnected, λ = 0."""
    return from_edges(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])


@pytest.fixture
def two_vertices() -> Graph:
    return from_edges(2, [0], [1], [7])


CANONICAL_CUTS = {
    "dumbbell": 1,
    "weighted_cycle": 2,
    "star": 2,
    "clique6": 5,
    "path4": 1,
    "two_vertices": 7,
}
