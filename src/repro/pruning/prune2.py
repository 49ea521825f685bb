"""Algorithm `Prune2` (Figure 2) — the paper's random-fault tool.

    Algorithm Prune2(ε):
      G₀ ← G_f;  i ← 0
      while ∃ (Sᵢ, Gᵢ\\Sᵢ) in Gᵢ with |(Sᵢ, Gᵢ\\Sᵢ)| ≤ αe·ε·|Sᵢ|,
            |Sᵢ| ≤ |Gᵢ|/2 and Sᵢ connected:
          Kᵢ ← K_{Gᵢ}(Sᵢ)          # compactification, Lemma 3.3
          Gᵢ₊₁ ← Gᵢ \\ Kᵢ;  i ← i+1
      H ← Gᵢ

Theorem 3.4: if ``αe ≥ 6δ²·log³_δ n / n``, fault probability
``p ≤ 1/(2e·δ^{4σ})`` and ``ε ≤ 1/(2δ)``, then with high probability
``Prune2(ε)`` returns ``H`` with ``|H| ≥ n/2`` and edge expansion ``≥ ε·αe``.

As with `Prune`, ``αe`` is the edge expansion of the fault-free network and
the set search is a pluggable finder (with ``require_connected=True``).
A subtlety faithful to the paper: when ``Gᵢ`` itself is disconnected, every
component of size ≤ |Gᵢ|/2 satisfies the loop condition with boundary 0 and
is compact-by-culling (its complement within ``Gᵢ`` may be several
components, so ``K_{Gᵢ}`` falls back to the component itself — already a
union of compact pieces from the perspective of the analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import BudgetExceededError, InvalidParameterError
from ..graphs.graph import Graph
from ..graphs.traversal import is_connected
from ..util.validation import check_fraction
from .compact import compactify, is_compact
from .cutfinder import CutFinder, default_cut_finder
from .prune import CulledSet, PruneResult
from ..api.registry import register_pruner

__all__ = ["prune2"]


@register_pruner("prune2")
def prune2(
    graph: Graph,
    alpha_e: float,
    epsilon: float,
    *,
    finder: Optional[CutFinder] = None,
    max_iterations: Optional[int] = None,
) -> PruneResult:
    """Run ``Prune2(ε)`` on the (faulty) network ``graph``.

    Parameters
    ----------
    graph:
        The faulty network ``G_f``.
    alpha_e:
        Edge expansion of the fault-free network (threshold is ``αe·ε``).
    epsilon:
        Degradation parameter; Theorem 3.4 needs ``ε ≤ 1/(2δ)``.
    finder:
        Cut-search strategy (invoked with ``require_connected=True``).
    max_iterations:
        Safety cap, default ``graph.n``.

    Returns
    -------
    PruneResult
        Same record type as :func:`repro.pruning.prune.prune`, with
        ``kind="edge"``; each culled set is the *compactified* region.
    """
    if alpha_e < 0:
        raise InvalidParameterError(f"alpha_e must be >= 0, got {alpha_e}")
    epsilon = check_fraction(epsilon, "epsilon")
    if finder is None:
        finder = default_cut_finder()
    threshold = alpha_e * epsilon
    cap = graph.n if max_iterations is None else int(max_iterations)
    alive = np.arange(graph.n, dtype=np.int64)
    current = graph.subgraph(alive)
    culled: List[CulledSet] = []
    iteration = 0
    while alive.size > 0:
        if iteration > cap:
            raise BudgetExceededError(
                f"prune2 exceeded {cap} iterations — cut finder is misbehaving"
            )
        found = finder.find(current, threshold, "edge", require_connected=True)
        if found is None:
            break
        s_local = found.nodes
        if is_connected(current) and 2 * s_local.size <= current.n:
            k_local = compactify(current, s_local)
        else:
            # disconnected G_i: the found set is a whole small component (or
            # lies inside one); culling it verbatim matches the analysis.
            k_local = s_local
        culled.append(
            CulledSet(
                nodes=alive[k_local],
                ratio=found.ratio,
                boundary=found.boundary,
                iteration=iteration,
            )
        )
        keep = np.ones(alive.size, dtype=bool)
        keep[k_local] = False
        alive = alive[keep]
        current = graph.subgraph(alive)
        iteration += 1
    return PruneResult(
        input_graph=graph,
        surviving_local=alive,
        culled=culled,
        threshold=threshold,
        kind="edge",
        iterations=iteration,
        surviving_graph=current,
    )
