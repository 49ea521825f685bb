"""Cheeger-type bounds linking the spectral gap to expansion.

Conventions (documented once, used everywhere):

* conductance ``φ(S) = |∂e S| / min(vol(S), vol(V\\S))`` and
  ``φ(G) = min_S φ(S)``;
* the discrete Cheeger inequality for the normalised Laplacian:
  ``λ₂ / 2 ≤ φ(G) ≤ √(2 λ₂)``;
* edge expansion ``αe`` relates to conductance via the degree bounds:
  ``δ_min · φ ≤ αe ≤ δ_max · φ`` (since ``|S|·δ_min ≤ vol(S) ≤ |S|·δ_max``);
* node expansion ``α`` relates to edge expansion via
  ``αe / δ_max ≤ α ≤ αe`` (each boundary node absorbs between 1 and δ
  boundary edges).

These conversions give certified *lower* bounds on both expansions from one
eigenvalue computation; constructive *upper* bounds come from sweep cuts
(:mod:`repro.expansion.sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidGraphError
from ..graphs.graph import Graph
from .eigen import fiedler_vector

__all__ = ["CheegerBounds", "cheeger_bounds"]


@dataclass(frozen=True)
class CheegerBounds:
    """Spectral bounds on conductance and the two expansions."""

    lambda2: float
    conductance_lower: float
    conductance_upper: float
    edge_expansion_lower: float
    node_expansion_lower: float

    def describe(self) -> str:
        return (
            f"λ₂={self.lambda2:.5f}  φ∈[{self.conductance_lower:.5f},"
            f" {self.conductance_upper:.5f}]  αe≥{self.edge_expansion_lower:.5f}"
            f"  α≥{self.node_expansion_lower:.5f}"
        )


def cheeger_bounds(graph: Graph) -> CheegerBounds:
    """Compute :class:`CheegerBounds` for a connected graph with ≥ 1 edge."""
    if graph.m == 0:
        raise InvalidGraphError("cheeger bounds need at least one edge")
    lam = fiedler_vector(graph).lambda2
    dmin = max(graph.min_degree, 1)
    dmax = max(graph.max_degree, 1)
    phi_lo = lam / 2.0
    phi_hi = math.sqrt(max(2.0 * lam, 0.0))
    return CheegerBounds(
        lambda2=lam,
        conductance_lower=phi_lo,
        conductance_upper=phi_hi,
        edge_expansion_lower=dmin * phi_lo,
        node_expansion_lower=dmin * phi_lo / dmax,
    )
