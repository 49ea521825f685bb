"""Site (node) percolation Monte Carlo.

The paper's random-fault model *is* site percolation: every node survives
independently with probability ``1 − p`` (we follow the percolation
convention and parameterise by the *survival* probability ``q`` here; the
fault experiments convert).  The estimator of interest is
``γ(G^{(q)})`` — the expected fraction of (original) nodes in the largest
surviving component (paper §1.1).

Implementation: :func:`site_percolation` stacks all trials' Bernoulli
masks into one ``(trials × n)`` alive matrix and hands it to the batched
component kernel
(:func:`repro.graphs.traversal.batched_connected_components`) — one pass
for the whole trial set, no per-trial union-find.
:func:`site_percolation_trial` is the one-mask union-find trial; the
differential tests compare the two through
:func:`repro.testing.scalar_site_percolation`, which loops it over the
same spawned RNG streams, sample for sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..util.rng import SeedLike, as_generator, spawn
from ..util.stats import OnlineStats
from ..util.unionfind import UnionFind
from ..util.validation import check_positive_int, check_probability

__all__ = ["SitePercolationResult", "site_percolation_trial", "site_percolation"]


@dataclass(frozen=True)
class SitePercolationResult:
    """Monte-Carlo estimate of γ at one survival probability."""

    q: float
    gamma_mean: float
    gamma_std: float
    n_trials: int
    samples: np.ndarray

    @property
    def p_fault(self) -> float:
        """The paper's fault probability ``p = 1 − q``."""
        return 1.0 - self.q


def site_percolation_trial(graph: Graph, q: float, seed: SeedLike = None) -> float:
    """One trial: keep each node w.p. ``q``; return largest-component fraction
    **relative to the original node count** (γ's normalisation)."""
    q = check_probability(q, "q")
    rng = as_generator(seed)
    n = graph.n
    if n == 0:
        return 0.0
    alive = rng.random(n) < q
    n_alive = int(np.count_nonzero(alive))
    if n_alive == 0:
        return 0.0
    edges = graph.edge_array()
    if edges.size:
        keep = alive[edges[:, 0]] & alive[edges[:, 1]]
        edges = edges[keep]
    uf = UnionFind(n)
    if edges.size:
        uf.union_edges(edges[:, 0], edges[:, 1])
    # the union-find covers dead nodes as singletons; the largest *alive*
    # cluster is the max component size among alive roots
    if edges.size == 0:
        return 1.0 / n if n_alive else 0.0
    # max_size tracks the largest merged set, which only contains alive nodes
    return max(uf.max_size, 1) / n


def site_percolation(
    graph: Graph, q: float, *, n_trials: int = 20, seed: SeedLike = None
) -> SitePercolationResult:
    """Monte-Carlo γ estimate at survival probability ``q``.

    All trials are evaluated through the batched component kernel.  Trial
    ``i`` draws its mask from the ``i``-th stream of ``spawn(seed,
    n_trials)``, exactly as :func:`site_percolation_trial` would, so the
    samples equal a per-trial loop's bit for bit.
    """
    from ..batch.metrics import batched_gamma

    q = check_probability(q, "q")
    n_trials = check_positive_int(n_trials, "n_trials")
    rngs = spawn(seed, n_trials)
    n = graph.n
    alive = np.empty((n_trials, n), dtype=bool)
    for i in range(n_trials):
        alive[i] = as_generator(rngs[i]).random(n) < q
    samples = batched_gamma(graph, alive)
    # Streaming aggregation (Welford), same pattern as the sweep layer —
    # the samples array is kept for callers that post-process trials.
    stats = OnlineStats()
    for value in samples:
        stats.push(float(value))
    return SitePercolationResult(
        q=q,
        gamma_mean=stats.mean,
        gamma_std=stats.std if n_trials > 1 else 0.0,
        n_trials=n_trials,
        samples=samples,
    )
