"""Chain-replacement graphs — the lower-bound construction of Theorems 2.3/3.1.

Given a base graph ``G`` (in the paper: a constant-degree expander with
expansion β and degree δ) and an even ``k``, the graph ``H(G, k)`` replaces
every edge of ``G`` by a chain of ``k`` fresh nodes.  Claim 2.4 shows
``H`` has node expansion ``Θ(1/k)``; removing the centre node of every chain
(``m = δ·n/2`` nodes, a ``Θ(1/k)`` fraction) shatters ``H`` into components
of size ``δ·k/2 + 1`` — sublinear in ``N = n + k·m``.  Theorem 3.1 uses the
same construction to show random faults at ``p = Θ(α)`` are already fatal.

Because the attacks need to know which nodes are chain centres, the
constructor returns a :class:`ChainReplacement` record carrying the base
graph, the per-chain node ids, and convenience views (centres, base nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import InvalidParameterError
from ..graph import Graph
from ...api.registry import register_generator

__all__ = ["ChainReplacement", "chain_replacement"]


@dataclass(frozen=True)
class ChainReplacement:
    """The graph ``H(G, k)`` plus the provenance needed by the experiments.

    Attributes
    ----------
    graph:
        The chain-replacement graph ``H``.  Node ids ``0..n-1`` are the base
        nodes of ``G``; ids ``n + e·k + j`` is the ``j``-th node (0-based,
        ordered from the ``u`` side) of the chain replacing base edge ``e``.
    base:
        The base graph ``G``.
    k:
        Chain length (number of fresh nodes per base edge, even).
    chain_nodes:
        ``(m, k)`` array of chain node ids, row ``e`` ordered from the
        lower-id endpoint of base edge ``e`` to the higher-id endpoint.
    base_edges:
        ``(m, 2)`` base edge array aligned with ``chain_nodes`` rows.
    """

    graph: Graph
    base: Graph
    k: int
    chain_nodes: np.ndarray
    base_edges: np.ndarray

    @property
    def center_nodes(self) -> np.ndarray:
        """One centre node per chain — the paper's Theorem 2.3 fault set.

        For even ``k`` the chain has two central nodes; we take the one at
        0-based position ``k // 2`` (either disconnects the chain).
        """
        return self.chain_nodes[:, self.k // 2].copy()

    def expected_component_size_after_center_attack(self) -> int:
        """Paper's bound: each surviving component has at most
        ``δ·k/2 + 1 + δ`` nodes (a base node, its ``≤ δ`` half-chains of
        ``≤ k/2`` nodes each, plus adjacent chain stubs)."""
        delta = self.base.max_degree
        return delta * (self.k // 2) + 1 + delta


@register_generator("chain_replacement")
def chain_replacement(base: Graph, k: int) -> ChainReplacement:
    """Build ``H(base, k)``: every base edge becomes a chain of ``k`` nodes.

    Parameters
    ----------
    base:
        Base graph ``G`` (any simple undirected graph; the paper uses a
        constant-degree expander).
    k:
        Even chain length ``>= 2``.

    Notes
    -----
    ``H`` has ``n + k·m`` nodes and ``m·(k + 1)`` edges.  Claim 2.4:
    ``α(H) = Θ(1/k)`` when ``G`` is a constant-degree expander.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidParameterError(f"chain length k must be even and >= 2, got {k}")
    if base.n == 0 or base.m == 0:
        raise InvalidParameterError("base graph must have at least one edge")
    n, m = base.n, base.m
    base_edges = base.edge_array()
    total = n + k * m
    chain_ids = (n + np.arange(m * k, dtype=np.int64)).reshape(m, k)
    # edges: u - c0, c_{j} - c_{j+1}, c_{k-1} - v  for each base edge (u, v)
    u = base_edges[:, 0]
    v = base_edges[:, 1]
    first = np.column_stack([u, chain_ids[:, 0]])
    last = np.column_stack([chain_ids[:, -1], v])
    internal = np.column_stack(
        [chain_ids[:, :-1].ravel(), chain_ids[:, 1:].ravel()]
    )
    edges = np.concatenate([first, internal, last], axis=0)
    graph = Graph.from_edges(total, edges, name=f"chain({base.name},k={k})")
    return ChainReplacement(
        graph=graph, base=base, k=k, chain_nodes=chain_ids, base_edges=base_edges
    )
