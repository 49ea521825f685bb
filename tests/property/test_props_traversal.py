"""Whole-graph traversal against oracles that share no code with scipy.

``connected_components`` and ``bfs_distances`` are single ``csgraph``
calls; here they must agree with the union-find labeller and with a
plain-Python queue BFS on graphs with isolated nodes and several
components.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    bfs_distances,
    connected_components,
    connected_components_unionfind,
    is_connected,
)

from .strategies import graphs


@st.composite
def sparse_graphs(draw):
    """A random graph plus up to three isolated nodes, its node ids
    shuffled so the isolated nodes and the components interleave."""
    g = draw(graphs(min_nodes=1, max_nodes=12))
    n = g.n + draw(st.integers(0, 3))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return Graph.from_edges(n, perm[g.edge_array()].reshape(-1, 2))


def _by_smallest_member(labels):
    """Renumber a partition densely, in the order of each part's smallest node."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _queue_bfs(g, sources):
    dist = [-1] * g.n
    queue = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u).tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(max_examples=150, deadline=None)
@given(sparse_graphs())
def test_components_equal_unionfind_oracle(g):
    labels = connected_components(g)
    uf_labels = connected_components_unionfind(g)
    oracle = _by_smallest_member(uf_labels)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, oracle)
    assert np.array_equal(uf_labels, labels)
    assert is_connected(g) == (g.n <= 1 or int(oracle.max()) == 0)


@settings(max_examples=150, deadline=None)
@given(sparse_graphs(), st.data())
def test_bfs_distances_equal_queue_bfs(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    dist = bfs_distances(g, np.array(sources, dtype=np.int64))
    assert dist.dtype == np.int64
    assert dist.tolist() == _queue_bfs(g, sources)
