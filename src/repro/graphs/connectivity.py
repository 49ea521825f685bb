"""Max-flow based connectivity: Menger bounds for the fault adversary.

Theorem 2.1 tells the adversary how many faults break *expansion*; Menger's
theorem tells it how many faults break *connectivity at all*: no fewer than
the vertex connectivity ``κ(G)`` node deletions can disconnect the network.
These quantities bracket the interesting fault regime
(``κ(G) ≤ faults-to-disconnect ≤ faults-to-shatter``), so the library ships
exact unit-capacity max-flow bounds:

* :func:`edge_connectivity_between` — max edge-disjoint ``s``–``t`` paths
  (a max flow on the bidirected unit-capacity graph);
* :func:`node_connectivity_between` — max internally vertex-disjoint paths
  via the standard node-splitting transform;
* :func:`global_node_connectivity` — κ(G) by the Even–Tarjan reduction
  (flows from a minimum-degree anchor to its non-neighbours, plus flows
  between non-adjacent neighbour pairs of the anchor).

Every flow is one ``scipy.sparse.csgraph.maximum_flow(method="dinic")``
call on an int32 capacity matrix.  Cross-checked against networkx in the
tests.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..errors import InvalidParameterError
from .build import to_scipy_sparse
from .graph import Graph

__all__ = [
    "edge_connectivity_between",
    "node_connectivity_between",
    "global_node_connectivity",
    "global_edge_connectivity",
    "min_vertex_cut_between",
]


def _split_capacities(graph: Graph) -> sp.csr_matrix:
    """Node-splitting transform: v → (v_in = 2v, v_out = 2v+1), internal
    capacity 1, edge arcs with effectively-infinite capacity."""
    n = graph.n
    inf = n + 1  # no vertex cut can exceed n, so n+1 acts as infinity
    nodes = np.arange(n, dtype=np.int64)
    u, v = graph.edge_array().T
    tails = np.concatenate([2 * nodes, 2 * u + 1, 2 * v + 1])
    heads = np.concatenate([2 * nodes + 1, 2 * v, 2 * u])
    caps = np.full(tails.shape[0], inf, dtype=np.int32)
    caps[:n] = 1
    return sp.csr_matrix((caps, (tails, heads)), shape=(2 * n, 2 * n))


def _check_pair(graph: Graph, s: int, t: int) -> None:
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise InvalidParameterError(f"endpoints outside [0, {graph.n})")
    if s == t:
        raise InvalidParameterError("endpoints must be distinct")


def edge_connectivity_between(graph: Graph, s: int, t: int) -> int:
    """Maximum number of edge-disjoint ``s``–``t`` paths (= min edge cut)."""
    _check_pair(graph, s, t)
    # undirected: the symmetric adjacency gives every edge capacity 1 both ways
    unit = to_scipy_sparse(graph).astype(np.int32)
    return int(csgraph.maximum_flow(unit, s, t, method="dinic").flow_value)


def node_connectivity_between(graph: Graph, s: int, t: int) -> int:
    """Maximum number of internally vertex-disjoint ``s``–``t`` paths.

    By Menger this equals the minimum number of *other* vertices whose
    removal disconnects ``s`` from ``t`` — undefined (infinite) for adjacent
    pairs, reported as ``graph.n`` in that case (no vertex cut exists).
    """
    _check_pair(graph, s, t)
    if graph.has_edge(s, t):
        return graph.n  # adjacent: cannot be separated by vertex deletions
    split = _split_capacities(graph)
    return int(csgraph.maximum_flow(split, 2 * s + 1, 2 * t, method="dinic").flow_value)


def min_vertex_cut_between(graph: Graph, s: int, t: int) -> np.ndarray:
    """An explicit minimum vertex cut separating non-adjacent ``s``, ``t``.

    Returns the sorted node ids of a cut of size
    ``node_connectivity_between(s, t)``.
    """
    _check_pair(graph, s, t)
    if graph.has_edge(s, t):
        raise InvalidParameterError("adjacent endpoints cannot be separated")
    capacities = _split_capacities(graph)
    flow = csgraph.maximum_flow(capacities, 2 * s + 1, 2 * t, method="dinic").flow
    # the source side of the cut: what s_out still reaches in the residual
    # graph, the same node set for every maximum flow
    residual = (capacities - flow) > 0
    reach = np.zeros(2 * graph.n, dtype=bool)
    reach[
        csgraph.breadth_first_order(residual, 2 * s + 1, return_predecessors=False)
    ] = True
    # a saturated internal arc: v_in reached, v_out not
    return np.flatnonzero(reach[0::2] & ~reach[1::2]).astype(np.int64)


def global_edge_connectivity(graph: Graph) -> int:
    """λ(G): the minimum number of edge deletions that disconnect ``G``.

    For an undirected graph, λ(G) = min over ``t ≠ s`` of λ(s, t) for any
    fixed ``s`` (every global min cut separates ``s`` from *something*), so
    ``n − 1`` unit-capacity flow computations suffice.
    """
    n = graph.n
    if n < 2:
        return 0
    from .traversal import is_connected

    if not is_connected(graph):
        return 0
    best = graph.min_degree  # λ ≤ δ_min always
    for t in range(1, n):
        if best == 0:
            break
        best = min(best, edge_connectivity_between(graph, 0, t))
    return best


def global_node_connectivity(graph: Graph) -> int:
    """κ(G): the minimum number of node deletions that disconnect ``G``
    (or leave fewer than 2 nodes).

    Even–Tarjan reduction: fix an anchor ``a`` of minimum degree; κ is the
    minimum of κ(a, w) over non-neighbours ``w`` and κ(u, w) over
    non-adjacent pairs of neighbours of ``a`` — at most ``deg(a)²/2 + n``
    max-flow calls.  Complete graphs have κ = n − 1 by convention.
    """
    n = graph.n
    if n < 2:
        return 0
    if graph.m == n * (n - 1) // 2:
        return n - 1
    from .traversal import is_connected

    if not is_connected(graph):
        return 0
    anchor = int(np.argmin(graph.degrees))
    neighbors = set(graph.neighbors(anchor).tolist())
    best = n
    for w in range(n):
        if w != anchor and w not in neighbors:
            best = min(best, node_connectivity_between(graph, anchor, w))
    for u, w in combinations(sorted(neighbors), 2):
        if not graph.has_edge(u, w):
            best = min(best, node_connectivity_between(graph, u, w))
    # κ ≤ δ_min for every non-complete graph (delete a min-degree node's
    # neighbourhood); completeness was handled above.
    return min(best, graph.min_degree)
