"""Traversal primitives: BFS, connected components, distances.

Whole-graph components and distances run in scipy's ``csgraph`` over the
graph's own CSR arrays.  :func:`bfs_tree` and :func:`is_subset_connected`
stay frontier BFS loops (one neighbour gather per level): the first because
its parent choice feeds the routing paths, the second because it walks a
node subset without building the induced subgraph.

Connected components are labelled three ways, cross-checked in tests: the
scalar :func:`connected_components` is one ``csgraph`` call over one graph,
:func:`connected_components_unionfind` is its union-find oracle, and
:func:`batched_connected_components` labels ``T`` masked trials of one graph
at once with ``csgraph`` over their block-diagonal trial graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..errors import InvalidParameterError, NotConnectedError
from ..util.unionfind import UnionFind
from .build import to_scipy_sparse
from .graph import Graph, neighbors_of_many

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "connected_components",
    "connected_components_unionfind",
    "component_sizes",
    "largest_component",
    "largest_component_fraction",
    "is_connected",
    "is_subset_connected",
    "eccentricity",
    "pairwise_distupdate",
    "ComponentSummary",
    "component_summary",
    "batched_connected_components",
    "batched_component_stats",
    "batched_largest_component_fraction",
]

UNREACHED = np.int64(-1)


def bfs_distances(graph: Graph, sources: Sequence[int] | np.ndarray | int) -> np.ndarray:
    """Multi-source BFS distances; unreachable nodes get ``-1``.

    Parameters
    ----------
    sources:
        A node id or an array of them (distance 0 seeds).
    """
    if isinstance(sources, (int, np.integer)):
        sources = np.array([sources], dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64).ravel()
    if src.size == 0:
        raise InvalidParameterError("bfs_distances needs at least one source")
    if src.min() < 0 or src.max() >= graph.n:
        raise InvalidParameterError(f"source ids outside [0, {graph.n})")
    dist = csgraph.dijkstra(
        to_scipy_sparse(graph), indices=np.unique(src), unweighted=True, min_only=True
    )
    return np.where(np.isinf(dist), UNREACHED, dist).astype(np.int64)


def bfs_tree(graph: Graph, root: int) -> np.ndarray:
    """BFS predecessor array from ``root``; ``parent[root] = root``,
    unreachable nodes get ``-1``.  Used to extract explicit paths."""
    if not 0 <= root < graph.n:
        raise InvalidParameterError(f"root {root} outside [0, {graph.n})")
    parent = np.full(graph.n, -1, dtype=np.int64)
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        counts = graph.indptr[frontier + 1] - graph.indptr[frontier]
        srcs = np.repeat(frontier, counts)
        nbrs = neighbors_of_many(graph, frontier)
        new_mask = parent[nbrs] == -1
        nbrs, srcs = nbrs[new_mask], srcs[new_mask]
        if nbrs.size == 0:
            break
        # keep the first discovered parent per node
        uniq, first = np.unique(nbrs, return_index=True)
        parent[uniq] = srcs[first]
        frontier = uniq
    return parent


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node (labels dense, ordered by smallest member)."""
    if graph.n == 0:
        return np.empty(0, dtype=np.int64)
    _, labels = csgraph.connected_components(to_scipy_sparse(graph), directed=False)
    return labels.astype(np.int64)


def connected_components_unionfind(graph: Graph) -> np.ndarray:
    """Component labels via union-find over the edge list (oracle variant)."""
    uf = UnionFind(graph.n)
    edges = graph.edge_array()
    if edges.size:
        uf.union_edges(edges[:, 0], edges[:, 1])
    return uf.labels()


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes per component label (index = label)."""
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.bincount(labels).astype(np.int64)


def largest_component(graph: Graph) -> np.ndarray:
    """Sorted node ids of one largest connected component."""
    if graph.n == 0:
        return np.empty(0, dtype=np.int64)
    labels = connected_components(graph)
    sizes = component_sizes(labels)
    return np.flatnonzero(labels == int(np.argmax(sizes)))


def largest_component_fraction(graph: Graph) -> float:
    """``γ(G)``: fraction of nodes in a largest component (paper §1.1);
    0.0 for the empty graph."""
    if graph.n == 0:
        return 0.0
    labels = connected_components(graph)
    return int(component_sizes(labels).max()) / graph.n


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.n <= 1:
        return True
    n_components = csgraph.connected_components(
        to_scipy_sparse(graph), directed=False, return_labels=False
    )
    return n_components == 1


def is_subset_connected(graph: Graph, subset: np.ndarray) -> bool:
    """Whether the induced subgraph on ``subset`` is connected.

    Runs BFS restricted to the subset without materialising the subgraph —
    this is on the hot path of compact-set checks.
    """
    idx = np.asarray(subset)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    else:
        idx = np.unique(np.asarray(idx, dtype=np.int64))
    if idx.size <= 1:
        return True
    inside = np.zeros(graph.n, dtype=bool)
    inside[idx] = True
    seen = np.zeros(graph.n, dtype=bool)
    frontier = idx[:1]
    seen[frontier] = True
    reached = 1
    while frontier.size:
        nbrs = neighbors_of_many(graph, frontier)
        if nbrs.size == 0:
            break
        cand = nbrs[inside[nbrs] & ~seen[nbrs]]
        if cand.size == 0:
            break
        frontier = np.unique(cand)
        seen[frontier] = True
        reached += frontier.size
    return reached == idx.size


def eccentricity(graph: Graph, v: int) -> int:
    """Maximum BFS distance from ``v``; raises if the graph is disconnected."""
    dist = bfs_distances(graph, v)
    if np.any(dist < 0):
        raise NotConnectedError("eccentricity undefined on a disconnected graph")
    return int(dist.max())


def pairwise_distupdate(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Distances for explicit ``(source, target)`` pairs.

    Groups pairs by source so each distinct source costs one BFS.  Returns
    ``-1`` where the target is unreachable.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParameterError("pairs must have shape (k, 2)")
    out = np.empty(pairs.shape[0], dtype=np.int64)
    order = np.argsort(pairs[:, 0], kind="stable")
    sorted_pairs = pairs[order]
    i = 0
    while i < sorted_pairs.shape[0]:
        s = sorted_pairs[i, 0]
        j = i
        while j < sorted_pairs.shape[0] and sorted_pairs[j, 0] == s:
            j += 1
        dist = bfs_distances(graph, int(s))
        out[order[i:j]] = dist[sorted_pairs[i:j, 1]]
        i = j
    return out


@dataclass(frozen=True)
class ComponentSummary:
    """Connectivity digest used throughout the experiment reports."""

    n_components: int
    largest_size: int
    largest_fraction: float
    sizes: np.ndarray

    def sublinear_against(self, n_original: int, threshold: float = 0.5) -> bool:
        """Whether the largest component has fallen below ``threshold`` of
        the original node count — the paper's notion of 'disintegrated'."""
        if n_original <= 0:
            return True
        return self.largest_size < threshold * n_original


def component_summary(graph: Graph) -> ComponentSummary:
    """Compute a :class:`ComponentSummary` for ``graph``."""
    if graph.n == 0:
        return ComponentSummary(0, 0, 0.0, np.empty(0, dtype=np.int64))
    labels = connected_components(graph)
    sizes = np.sort(component_sizes(labels))[::-1]
    return ComponentSummary(
        n_components=int(sizes.shape[0]),
        largest_size=int(sizes[0]),
        largest_fraction=float(sizes[0] / graph.n),
        sizes=sizes,
    )


# --------------------------------------------------------------------- #
# Mask-parallel (batched) variants
# --------------------------------------------------------------------- #
#
# The functions below evaluate T independent fault trials on ONE shared
# graph simultaneously.  A trial is a row of a ``(T, n)`` boolean
# ``alive`` matrix (True = the node survived this trial); bond-style
# trials use a ``(T, m)`` ``edge_alive`` matrix over ``edge_array()``
# order instead.  All per-trial loops are replaced by whole-matrix passes
# over the CSR arrays, so the Python-interpreter cost is O(rounds) (or,
# for components, O(row chunks)) instead of O(trials × components ×
# levels).
#
# Degenerate inputs are *defined*, never raised: T = 0 and n = 0 return
# correctly-shaped empty results, and a fully-dead row yields zero
# components / an all ``-1`` distance row — the batched engine relies on
# this when a trial happens to kill every node.


def _check_alive_matrix(graph: Graph, alive: np.ndarray) -> np.ndarray:
    alive = np.asarray(alive)
    if alive.dtype != np.bool_:
        raise InvalidParameterError("alive mask matrix must be boolean")
    if alive.ndim != 2 or alive.shape[1] != graph.n:
        raise InvalidParameterError(
            f"alive mask must have shape (T, {graph.n}), got {alive.shape}"
        )
    return alive


#: Bytes the component kernel may hold for one row chunk of the trial
#: graph.  A chunk holds ``_CHUNK_BYTES // (24 * (n + m))`` rows: labelling
#: peaks near 20 bytes per trial-graph node or edge (the edge-survival
#: mask, the int32 CSR arrays, scipy's float64 weights and transpose, the
#: label arrays).  Any budget below 2**31 bytes also keeps a chunk's node
#: and edge ids inside scipy's int32 indices.
_CHUNK_BYTES = 16 << 20


def _trial_graph_labels(
    graph: Graph, alive: np.ndarray, edge_alive: Optional[np.ndarray]
) -> np.ndarray:
    """Canonical component labels of ``T >= 1`` trials on a graph with at
    least one edge, one scipy ``connected_components`` call per row chunk.

    A chunk of ``R`` rows is one block-diagonal *trial graph* on ``R·n``
    nodes: node ``v`` of row ``t`` is node ``t·n + v``, linked along every
    edge whose endpoints (and, for bond trials, the edge itself) survived
    in that row.  Each such edge is passed once, as a directed CSR entry
    labelled by weak connectivity.  scipy numbers components in an order of
    its own, so the canonical label — the smallest node id of the
    component — is a ``minimum.at`` reduction over the members.
    """
    T, n = alive.shape
    m = graph.m
    edges = graph.index.edge_array
    src, dst = edges[:, 0], edges[:, 1]
    edges32 = edges.astype(np.int32)
    node_ids = np.arange(n, dtype=np.int32)
    out = np.full((T, n), -1, dtype=np.int64)
    rows = max(1, _CHUNK_BYTES // (24 * (n + m)))
    for lo in range(0, T, rows):
        hi = min(lo + rows, T)
        size = (hi - lo) * n
        conducts = alive[lo:hi, src] & alive[lo:hi, dst]
        if edge_alive is not None:
            conducts &= edge_alive[lo:hi]
        # row-major: the surviving edges come out ordered by (row, edge),
        # and edge_array is sorted by its first endpoint, so the CSR rows
        # below ascend without a sort
        flat = np.flatnonzero(conducts).astype(np.int32)
        del conducts
        row, edge = np.divmod(flat, np.int32(m))
        del flat
        row *= np.int32(n)
        tails = edges32[edge, 0] + row
        heads = edges32[edge, 1] + row
        del row, edge
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails, minlength=size), out=indptr[1:])
        del tails
        adj = sp.csr_matrix(
            (np.ones(heads.shape[0]), heads, indptr), shape=(size, size)
        )
        n_comp, comp = csgraph.connected_components(
            adj, directed=True, connection="weak"
        )
        # components never span rows, so the minimum over node ids is the
        # minimum within the component's own row
        root = np.full(n_comp, n, dtype=np.int32)
        np.minimum.at(root, comp, np.tile(node_ids, hi - lo))
        np.copyto(out[lo:hi], root[comp].reshape(hi - lo, n), where=alive[lo:hi])
    return out


def batched_connected_components(
    graph: Graph,
    alive: Optional[np.ndarray] = None,
    *,
    edge_alive: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Connected-component labels for ``T`` masked trials at once.

    Parameters
    ----------
    alive:
        ``(T, n)`` boolean node-survival matrix (site/fault trials).  May
        be omitted when ``edge_alive`` is given (all nodes alive).
    edge_alive:
        Optional ``(T, m)`` boolean edge-survival matrix in
        :meth:`Graph.edge_array` order (bond trials).  Composable with
        ``alive``: an edge conducts only if it survived *and* both its
        endpoints are alive.

    Returns
    -------
    numpy.ndarray
        ``(T, n)`` int64 labels: for each alive node the smallest alive
        node id reachable from it (so labels are canonical per component);
        dead nodes get ``-1``.  ``T = 0`` / ``n = 0`` produce empty
        results of the right shape.

    Validation and the degenerate cases live here; the labelling itself
    is one scipy ``csgraph`` pass per row chunk over the block-diagonal
    trial graph (:func:`_trial_graph_labels`).
    """
    if alive is None:
        if edge_alive is None:
            raise InvalidParameterError(
                "batched_connected_components needs 'alive' and/or 'edge_alive'"
            )
        edge_alive = np.asarray(edge_alive)
        alive = np.ones((edge_alive.shape[0], graph.n), dtype=bool)
    alive = _check_alive_matrix(graph, alive)
    n = graph.n
    T = alive.shape[0]
    if edge_alive is not None:
        edge_alive = np.asarray(edge_alive)
        if edge_alive.dtype != np.bool_:
            raise InvalidParameterError("edge_alive matrix must be boolean")
        if edge_alive.ndim != 2 or edge_alive.shape != (T, graph.m):
            raise InvalidParameterError(
                f"edge_alive must have shape ({T}, {graph.m}), "
                f"got {edge_alive.shape}"
            )
    if T == 0 or n == 0 or graph.indices.size == 0:
        labels = np.where(alive, np.arange(n, dtype=np.int64)[None, :], np.int64(n))
        return np.where(alive, labels, np.int64(-1))
    return _trial_graph_labels(graph, alive, edge_alive)


def batched_component_stats(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial ``(n_components, largest_size)`` from batched labels.

    ``labels`` is the ``(T, n)`` output of
    :func:`batched_connected_components` (``-1`` = dead).  Both returned
    arrays have shape ``(T,)``; an all-dead (or ``n = 0``) row reports
    ``0`` components of size ``0``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise InvalidParameterError("labels must be a (T, n) matrix")
    T, n = labels.shape
    if T == 0 or n == 0:
        zeros = np.zeros(T, dtype=np.int64)
        return zeros, zeros.copy()
    alive = labels >= 0
    n_components = (alive & (labels == np.arange(n, dtype=np.int64))).sum(
        axis=1, dtype=np.int64
    )
    # one shared bincount: offset each row's labels into its own bin range
    offsets = np.arange(T, dtype=np.int64)[:, None] * np.int64(n)
    flat = (labels + offsets)[alive]
    counts = np.bincount(flat, minlength=T * n).reshape(T, n)
    return n_components, counts.max(axis=1).astype(np.int64)


def batched_largest_component_fraction(
    graph: Graph,
    alive: np.ndarray,
    *,
    edge_alive: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``γ`` per trial: largest alive-component size over the *original*
    node count (the paper's §1.1 normalisation), as a ``(T,)`` float array.

    Defined for every degenerate input: ``n = 0`` and all-dead rows give
    ``0.0``, a row whose survivors are all isolated gives ``1/n``.
    """
    alive = _check_alive_matrix(graph, alive)
    if graph.n == 0:
        return np.zeros(alive.shape[0], dtype=np.float64)
    labels = batched_connected_components(graph, alive, edge_alive=edge_alive)
    _, largest = batched_component_stats(labels)
    return largest / float(graph.n)
