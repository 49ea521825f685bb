"""Eigen-solvers: spectral gap and Fiedler vector.

Strategy (per the hpc-parallel guide: pick the right linear-algebra call for
the problem):

* small graphs (``n < DENSE_CUTOFF``) use dense ``numpy.linalg.eigh`` on the
  normalised Laplacian — exact, no convergence concerns;
* larger graphs use ``scipy.sparse.linalg.eigsh`` with ``sigma=0``
  (shift-invert) to pull the smallest eigenpairs, falling back to the
  non-shifted Lanczos mode (``which="SM"``) and finally to LOBPCG if ARPACK
  struggles.  A deterministic start vector keeps results reproducible.

All solvers operate per connected graph; callers working with faulty graphs
should extract the component of interest first (the analyzer does this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import NotConnectedError, SolverError
from ..graphs.graph import Graph
from ..graphs.traversal import is_connected
from .laplacian import normalized_laplacian

__all__ = ["SpectralInfo", "fiedler_vector", "spectral_gap", "DENSE_CUTOFF"]

#: Below this node count, dense eigendecomposition is both faster and exact.
DENSE_CUTOFF = 400


@dataclass(frozen=True)
class SpectralInfo:
    """Second-smallest normalised-Laplacian eigenpair of a connected graph."""

    lambda2: float
    vector: np.ndarray

    @property
    def gap(self) -> float:
        """Alias: the spectral gap λ₂ of the normalised Laplacian."""
        return self.lambda2


def _dense_fiedler(lap: sp.csr_matrix) -> SpectralInfo:
    dense = lap.toarray()
    vals, vecs = np.linalg.eigh(dense)
    # eigh returns ascending eigenvalues; index 1 is λ₂.
    return SpectralInfo(lambda2=float(max(vals[1], 0.0)), vector=vecs[:, 1].copy())


def _sparse_fiedler(lap: sp.csr_matrix, n: int) -> SpectralInfo:
    v0 = np.linspace(-1.0, 1.0, n)  # deterministic start vector
    try:
        # Shift-invert just *below* zero: the Laplacian itself is singular
        # (0 is an eigenvalue), so sigma=0 would factorise a singular matrix
        # and silently degrade to slow, inaccurate Lanczos.
        vals, vecs = spla.eigsh(lap, k=2, sigma=-1e-2, which="LM", v0=v0, maxiter=5000)
    except Exception:
        try:
            vals, vecs = spla.eigsh(lap, k=2, which="SM", v0=v0, maxiter=5000)
        except Exception:
            try:
                rng = np.random.default_rng(0)
                x = rng.standard_normal((n, 2))
                x[:, 0] = 1.0
                vals, vecs = spla.lobpcg(lap, x, largest=False, maxiter=2000, tol=1e-8)
            except Exception as exc:  # pragma: no cover - last resort path
                raise SolverError(f"all sparse eigensolvers failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    return SpectralInfo(lambda2=float(max(vals[1], 0.0)), vector=vecs[:, 1].copy())


def fiedler_vector(graph: Graph) -> SpectralInfo:
    """λ₂ and its eigenvector for the normalised Laplacian of ``graph``.

    The pair is solved once per CSR pair and memoised on the graph's
    :class:`~repro.graphs.index.GraphIndex` (so ``renamed``/``detached``
    copies share it); ``vector`` is read-only because every caller gets
    the same array.  Failed solves raise every time and cache nothing.

    Raises
    ------
    NotConnectedError
        If the graph is disconnected (λ₂ would be 0 and the vector would
        merely indicate components, not a useful cut direction).
    """
    index = graph.index
    if index.fiedler is not None:
        return index.fiedler
    if graph.n < 2:
        raise NotConnectedError("fiedler_vector needs at least 2 nodes")
    if not is_connected(graph):
        raise NotConnectedError("fiedler_vector requires a connected graph")
    lap = normalized_laplacian(graph)
    if graph.n < DENSE_CUTOFF:
        info = _dense_fiedler(lap)
    else:
        info = _sparse_fiedler(lap, graph.n)
    info.vector.flags.writeable = False
    index.fiedler = info
    return info


def spectral_gap(graph: Graph) -> float:
    """λ₂ of the normalised Laplacian (see :func:`fiedler_vector`)."""
    return fiedler_vector(graph).lambda2
