"""Bond (edge) percolation: per-``q`` Monte Carlo and a Newman–Ziff sweep.

Bond percolation keeps each *edge* independently with probability ``q``
(nodes never fail) — the model behind the Section 1.1 survey rows with edge
faults (Kesten's ``p* = 1/2`` for the 2-D mesh is a bond result).

The Newman–Ziff-style sweep adds edges one at a time in random order,
maintaining the largest cluster with union-find.  One O(m·α(n)) pass yields
the whole microcanonical curve ``γ(k edges)``; evaluating it at ``k ≈ q·m``
approximates the canonical ``γ(q)`` (exact smoothing would convolve with the
binomial; at our sizes — m ≥ 10³ — the binomial's ±√m window is a vanishing
fraction of m, so the approximation error is below Monte-Carlo noise, and
the threshold estimator only consumes coarse curve shape anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..graphs.traversal import batched_largest_component_fraction
from ..util.rng import SeedLike, as_generator, spawn
from ..util.stats import OnlineStats
from ..util.unionfind import UnionFind
from ..util.validation import check_positive_int, check_probability

__all__ = ["bond_percolation_trial", "bond_percolation", "BondSweep", "bond_sweep"]


def bond_percolation_trial(graph: Graph, q: float, seed: SeedLike = None) -> float:
    """One trial: keep each edge w.p. ``q``; return largest-component fraction."""
    q = check_probability(q, "q")
    rng = as_generator(seed)
    n = graph.n
    if n == 0:
        return 0.0
    edges = graph.edge_array()
    if edges.size:
        keep = rng.random(edges.shape[0]) < q
        edges = edges[keep]
    uf = UnionFind(n)
    if edges.size:
        uf.union_edges(edges[:, 0], edges[:, 1])
    return uf.max_size / n


@dataclass(frozen=True)
class BondPercolationResult:
    q: float
    gamma_mean: float
    gamma_std: float
    n_trials: int
    samples: np.ndarray


def bond_percolation(
    graph: Graph, q: float, *, n_trials: int = 20, seed: SeedLike = None
) -> BondPercolationResult:
    """Monte-Carlo γ estimate for bond percolation at edge-survival prob ``q``.

    All trials' Bernoulli edge masks stack into one ``(trials × m)``
    matrix, and one batched pass labels every trial's components
    (:func:`repro.graphs.traversal.batched_connected_components` with
    ``edge_alive``).  Trial ``i`` draws from the ``i``-th stream of
    ``spawn(seed, n_trials)``, exactly as :func:`bond_percolation_trial`
    would, so the samples equal a per-trial loop's bit for bit.
    Aggregates accumulate online (:class:`~repro.util.stats.OnlineStats`)
    in trial order.
    """
    q = check_probability(q, "q")
    n_trials = check_positive_int(n_trials, "n_trials")
    rngs = spawn(seed, n_trials)
    m = graph.m
    keep = np.empty((n_trials, m), dtype=bool)
    for i in range(n_trials):
        keep[i] = rngs[i].random(m) < q
    alive = np.ones((n_trials, graph.n), dtype=bool)
    samples = batched_largest_component_fraction(graph, alive, edge_alive=keep)
    stats = OnlineStats()
    for value in samples:
        stats.push(float(value))
    return BondPercolationResult(
        q=q,
        gamma_mean=stats.mean,
        gamma_std=stats.std if n_trials > 1 else 0.0,
        n_trials=n_trials,
        samples=samples,
    )


@dataclass(frozen=True)
class BondSweep:
    """Microcanonical largest-cluster curve from one edge-insertion sweep.

    ``gamma_by_edges[k]`` is the largest-component fraction after the first
    ``k`` random edges have been added (``k = 0..m``)."""

    gamma_by_edges: np.ndarray

    def gamma_at(self, q: float) -> float:
        """Canonical-ensemble approximation: evaluate at ``k = round(q·m)``."""
        q = check_probability(q, "q")
        m = self.gamma_by_edges.shape[0] - 1
        return float(self.gamma_by_edges[int(round(q * m))])


def bond_sweep(graph: Graph, *, n_sweeps: int = 8, seed: SeedLike = None) -> BondSweep:
    """Average microcanonical sweep over ``n_sweeps`` random edge orders.

    The per-edge loop lives in :meth:`UnionFind.union_edges_trace`, which
    returns the running largest-cluster trace for a whole edge order in one
    call; the curve is then assembled with vectorised numpy (identical
    values to the historical per-edge ``union(); read max_size`` loop —
    asserted by the regression test against the reference implementation).
    """
    n_sweeps = check_positive_int(n_sweeps, "n_sweeps")
    edges = graph.edge_array()
    m = edges.shape[0]
    acc = np.zeros(m + 1, dtype=np.float64)
    rngs = spawn(seed, n_sweeps)
    denom = float(max(graph.n, 1))
    for s in range(n_sweeps):
        order = rngs[s].permutation(m)
        e = edges[order]
        trace = UnionFind(graph.n).union_edges_trace(e[:, 0], e[:, 1])
        curve = np.empty(m + 1, dtype=np.float64)
        curve[0] = 1.0 / denom
        np.divide(trace, denom, out=curve[1:])
        acc += curve
    acc /= n_sweeps
    return BondSweep(gamma_by_edges=acc)
