"""Matrix views of graphs: adjacency, Laplacian, normalised Laplacian.

All builders return ``scipy.sparse.csr_matrix`` sharing no state with the
graph; ``adjacency_matrix`` is :func:`repro.graphs.build.to_scipy_sparse`
under its spectral name.  The normalised Laplacian handles isolated nodes by treating their
degree as 1 (their row/column is then just the identity entry), which keeps
eigensolvers well-posed on faulty graphs that contain isolated survivors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graphs.build import to_scipy_sparse as adjacency_matrix
from ..graphs.graph import Graph

__all__ = ["adjacency_matrix", "laplacian_matrix", "normalized_laplacian"]


def laplacian_matrix(graph: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian ``L = D − A``."""
    a = adjacency_matrix(graph)
    d = sp.diags(graph.degrees.astype(np.float64))
    return (d - a).tocsr()


def normalized_laplacian(graph: Graph) -> sp.csr_matrix:
    """Symmetric normalised Laplacian ``𝓛 = I − D^{-1/2} A D^{-1/2}``.

    Isolated nodes get a unit diagonal entry (consistent with treating their
    degree as 1); eigenvalues still lie in ``[0, 2]``.
    """
    a = adjacency_matrix(graph)
    deg = graph.degrees.astype(np.float64)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 1.0)
    d_inv = sp.diags(inv_sqrt)
    lap = sp.identity(graph.n, format="csr") - d_inv @ a @ d_inv
    return lap.tocsr()
