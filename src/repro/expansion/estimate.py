"""Two-sided expansion estimation — the facade the experiments use.

``estimate_node_expansion`` / ``estimate_edge_expansion`` return an
:class:`ExpansionEstimate` carrying:

* ``upper`` — a constructive bound: the ratio of the best cut found
  (exhaustive on small graphs, Fiedler sweep + greedy refinement otherwise),
  together with the witnessing set;
* ``lower`` — a certified bound: exact value when enumeration ran, else the
  Cheeger-type spectral bound (see :mod:`repro.spectral.cheeger`);
* ``exact`` — whether the two coincide by construction.

The experiments report ``value`` (= upper, the conventional estimate) and
use ``lower`` whenever a theorem needs a certified inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from ..errors import InvalidParameterError, NotConnectedError
from ..graphs.graph import Graph
from ..graphs.traversal import connected_components, component_sizes
from ..spectral.cheeger import cheeger_bounds
from .exact import edge_expansion_exact, node_expansion_exact
from .local import refine_cut
from .sweep import best_edge_sweep_cut, best_node_sweep_cut

__all__ = [
    "ExpansionEstimate",
    "estimate_node_expansion",
    "estimate_edge_expansion",
    "DEFAULT_EXACT_THRESHOLD",
]

#: Graphs at or below this size get exhaustive (exact) treatment by default.
DEFAULT_EXACT_THRESHOLD = 14

Kind = Literal["node", "edge"]


@dataclass(frozen=True)
class ExpansionEstimate:
    """Two-sided expansion estimate with a witness cut."""

    kind: str
    lower: float
    upper: float
    witness: np.ndarray
    exact: bool
    method: str

    @property
    def value(self) -> float:
        """The conventional point estimate (the constructive upper bound)."""
        return self.upper

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-9:
            raise InvalidParameterError(
                f"inconsistent estimate: lower {self.lower} > upper {self.upper}"
            )


def _disconnected_estimate(graph: Graph, kind: Kind) -> ExpansionEstimate:
    """A disconnected graph has expansion 0 witnessed by a smallest component
    (or any component of size ≤ n/2; one always exists)."""
    labels = connected_components(graph)
    sizes = component_sizes(labels)
    smallest = int(np.argmin(sizes))
    witness = np.flatnonzero(labels == smallest)
    return ExpansionEstimate(
        kind=kind, lower=0.0, upper=0.0, witness=witness, exact=True,
        method="disconnected",
    )


def estimate_node_expansion(
    graph: Graph,
    *,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    refine: bool = True,
) -> ExpansionEstimate:
    """Estimate ``α(G)`` (see module docstring for the contract)."""
    if graph.n < 2:
        raise InvalidParameterError("expansion needs at least 2 nodes")
    labels = connected_components(graph)
    if labels.max() > 0:
        return _disconnected_estimate(graph, "node")
    if graph.n <= exact_threshold:
        res = node_expansion_exact(graph, max_nodes=exact_threshold)
        return ExpansionEstimate(
            kind="node", lower=res.value, upper=res.value, witness=res.witness,
            exact=True, method="exhaustive",
        )
    cut = best_node_sweep_cut(graph)
    witness = cut.nodes
    upper = cut.ratio
    method = "sweep"
    if refine:
        refined = refine_cut(graph, witness, "node")
        from ..graphs.ops import node_expansion_of_set

        refined_ratio = node_expansion_of_set(graph, refined)
        if refined_ratio < upper:
            witness, upper, method = refined, refined_ratio, "sweep+refine"
    lower = min(cheeger_bounds(graph).node_expansion_lower, upper)
    return ExpansionEstimate(
        kind="node", lower=lower, upper=upper, witness=witness, exact=False,
        method=method,
    )


def estimate_edge_expansion(
    graph: Graph,
    *,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    refine: bool = True,
) -> ExpansionEstimate:
    """Estimate ``αe(G)`` (see module docstring for the contract)."""
    if graph.n < 2:
        raise InvalidParameterError("expansion needs at least 2 nodes")
    labels = connected_components(graph)
    if labels.max() > 0:
        return _disconnected_estimate(graph, "edge")
    if graph.n <= exact_threshold:
        res = edge_expansion_exact(graph, max_nodes=exact_threshold)
        return ExpansionEstimate(
            kind="edge", lower=res.value, upper=res.value, witness=res.witness,
            exact=True, method="exhaustive",
        )
    cut = best_edge_sweep_cut(graph)
    witness = cut.nodes
    upper = cut.ratio
    method = "sweep"
    if refine:
        refined = refine_cut(graph, witness, "edge")
        from ..graphs.ops import edge_expansion_of_set

        refined_ratio = edge_expansion_of_set(graph, refined)
        if refined_ratio < upper:
            witness, upper, method = refined, refined_ratio, "sweep+refine"
    lower = min(cheeger_bounds(graph).edge_expansion_lower, upper)
    return ExpansionEstimate(
        kind="edge", lower=lower, upper=upper, witness=witness, exact=False,
        method=method,
    )
