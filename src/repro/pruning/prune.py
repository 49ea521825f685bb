"""Algorithm `Prune` (Figure 1) — the paper's adversarial-fault tool.

    Algorithm Prune(ε):
      G₀ ← G_f;  i ← 0
      while ∃ Sᵢ ⊆ Gᵢ with |Γ(Sᵢ)| ≤ α·ε·|Sᵢ| and |Sᵢ| ≤ |Gᵢ|/2:
          Gᵢ₊₁ ← Gᵢ \\ Sᵢ;  i ← i+1
      H ← Gᵢ

Theorem 2.1: with ``f`` adversarial faults and any ``k ≥ 2`` such that
``k·f/α ≤ n/4``, ``Prune(1 − 1/k)`` returns ``H`` of size ``≥ n − k·f/α``
with node expansion ``≥ (1 − 1/k)·α``.

``α`` here is the expansion of the *fault-free* network — callers measure it
up front (or use the known closed form for the family) and pass it in.  The
search step is delegated to a :class:`~repro.pruning.cutfinder.CutFinder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import BudgetExceededError, InvalidParameterError
from ..graphs.graph import Graph
from ..util.validation import check_fraction
from .cutfinder import CutFinder, CutKind, default_cut_finder
from ..api.registry import register_pruner

__all__ = ["PruneResult", "prune", "CulledSet"]


@dataclass(frozen=True)
class CulledSet:
    """One culled set with the ratio certificate recorded at cull time."""

    nodes: np.ndarray  # ids local to the *input* graph of prune()
    ratio: float
    boundary: int
    iteration: int


@dataclass(frozen=True)
class PruneResult:
    """Outcome of a pruning run.

    ``surviving_local`` indexes into the graph passed to :func:`prune` (the
    faulty network ``G_f``); ``surviving_graph`` is the induced subnetwork
    ``H`` itself — the very graph object the cut finder last examined and
    found no cut in, so whatever the finder memoised on it (its Fiedler
    pair) serves later measurements of ``H``.  Its ``original_ids`` resolve
    through the input.
    """

    input_graph: Graph
    surviving_local: np.ndarray
    culled: List[CulledSet]
    threshold: float
    kind: str
    iterations: int
    surviving_graph: Graph

    @property
    def n_culled(self) -> int:
        """Total number of nodes removed by pruning."""
        return self.input_graph.n - int(self.surviving_local.shape[0])

    @property
    def survivor_fraction(self) -> float:
        """``|H| / |G_f|``."""
        if self.input_graph.n == 0:
            return 0.0
        return self.surviving_local.shape[0] / self.input_graph.n

    def culled_union(self) -> np.ndarray:
        """All culled node ids (input-local), sorted."""
        if not self.culled:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([c.nodes for c in self.culled]))


@register_pruner("prune")
def prune(
    graph: Graph,
    alpha: float,
    epsilon: float,
    *,
    finder: Optional[CutFinder] = None,
    max_iterations: Optional[int] = None,
) -> PruneResult:
    """Run ``Prune(ε)`` on the (faulty) network ``graph``.

    Parameters
    ----------
    graph:
        The faulty network ``G_f``.
    alpha:
        Node expansion of the *fault-free* network ``G`` (the threshold in
        the loop condition is ``α·ε``).
    epsilon:
        The prune parameter ``ε ∈ (0, 1]``; Theorem 2.1 uses ``ε = 1 − 1/k``.
    finder:
        Cut-search strategy; defaults to the hybrid finder.
    max_iterations:
        Safety cap (default: ``graph.n`` — each iteration removes ≥ 1 node,
        so the loop can never exceed it; hitting the cap raises).

    Returns
    -------
    PruneResult
        Survivors, culled sets with their ratio certificates, and metadata.
    """
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")
    epsilon = check_fraction(epsilon, "epsilon")
    if finder is None:
        finder = default_cut_finder()
    threshold = alpha * epsilon
    cap = graph.n if max_iterations is None else int(max_iterations)
    alive = np.arange(graph.n, dtype=np.int64)
    current = graph.subgraph(alive)
    culled: List[CulledSet] = []
    iteration = 0
    while alive.size > 0:
        if iteration > cap:
            raise BudgetExceededError(
                f"prune exceeded {cap} iterations — cut finder is misbehaving"
            )
        found = finder.find(current, threshold, "node", require_connected=False)
        if found is None:
            break
        culled.append(
            CulledSet(
                nodes=alive[found.nodes],
                ratio=found.ratio,
                boundary=found.boundary,
                iteration=iteration,
            )
        )
        keep = np.ones(alive.size, dtype=bool)
        keep[found.nodes] = False
        alive = alive[keep]
        current = graph.subgraph(alive)
        iteration += 1
    return PruneResult(
        input_graph=graph,
        surviving_local=alive,
        culled=culled,
        threshold=threshold,
        kind="node",
        iterations=iteration,
        surviving_graph=current,
    )
