"""GraphIndex: immutable cached derived views of one CSR graph.

Every mask-parallel kernel and scatter-style graph operation needs the
same handful of arrays derived from the CSR pair — the flat source-id
expansion ``repeat(arange(n), degrees)``, the per-row segment starts, the
``degree == 0`` mask, the two directed CSR slots of each undirected edge,
the canonical ``(m, 2)`` edge array.  Before this module existed each hot
call site rebuilt them from scratch (an O(m) ``np.repeat`` + friends per
kernel invocation); profiled at sweep scale those rebuilds rivalled the
kernels themselves.

A :class:`GraphIndex` computes each view lazily, exactly once, and hands
out **read-only** arrays so sharing is safe.  It is owned by
:class:`~repro.graphs.graph.Graph` (the lazy ``Graph.index`` property) and
*shared* between graphs that share their CSR arrays —
``Graph.renamed``/``Graph.detached`` copies carry the same index object,
so a renamed graph never re-derives anything.  The design follows dgl's
``ImmutableGraphIndex``: the graph object stays a thin value type, the
index is the memoised structural companion.

The index also holds one memo it does not compute itself: the
normalised-Laplacian Fiedler pair, in :attr:`GraphIndex.fiedler`.  The
Laplacian is a function of the CSR pair alone, so a solve is valid for
every graph sharing the index; :func:`repro.spectral.eigen.fiedler_vector`
is its only writer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["GraphIndex"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (cached views are shared across callers)."""
    arr.flags.writeable = False
    return arr


class GraphIndex:
    """Lazily-built, memoised derived views of one ``(indptr, indices)``
    CSR pair.  All returned arrays are read-only; callers that need to
    mutate must copy."""

    __slots__ = (
        "indptr",
        "indices",
        "_degrees",
        "_slot_src",
        "_isolated",
        "_has_isolated",
        "_slot_pairs",
        "_edge_array",
        "fiedler",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self._degrees: Optional[np.ndarray] = None
        self._slot_src: Optional[np.ndarray] = None
        self._isolated: Optional[np.ndarray] = None
        self._has_isolated: Optional[bool] = None
        self._slot_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._edge_array: Optional[np.ndarray] = None
        #: The Fiedler pair (a ``SpectralInfo``) once ``fiedler_vector``
        #: has solved it; ``None`` until then, and after a failed solve.
        self.fiedler = None

    # -- scalar shape ---------------------------------------------------- #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.indptr.shape[0] - 1)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.shape[0] // 2)

    # -- cached views ---------------------------------------------------- #

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree array (``int64``, length ``n``)."""
        if self._degrees is None:
            self._degrees = _frozen(np.diff(self.indptr))
        return self._degrees

    @property
    def starts(self) -> np.ndarray:
        """Per-row CSR segment starts — ``indptr[:-1]`` (a view)."""
        return self.indptr[: -1]

    @property
    def slot_src(self) -> np.ndarray:
        """Source node id of every directed CSR slot, length ``2m`` —
        the ``repeat(arange(n), degrees)`` expansion every scatter-style
        operation used to rebuild per call."""
        if self._slot_src is None:
            self._slot_src = _frozen(
                np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            )
        return self._slot_src

    @property
    def isolated(self) -> np.ndarray:
        """Boolean mask of degree-0 nodes (empty ``reduceat`` segments)."""
        if self._isolated is None:
            self._isolated = _frozen(self.degrees == 0)
        return self._isolated

    @property
    def has_isolated(self) -> bool:
        """Whether any node has degree 0 (memoised ``isolated.any()``)."""
        if self._has_isolated is None:
            self._has_isolated = bool(self.isolated.any())
        return self._has_isolated

    @property
    def directed_slot_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR slot indices of each undirected edge's two directed copies.

        ``(fwd, rev)`` of length ``m``: ``fwd[k]``/``rev[k]`` are the flat
        CSR positions of edge ``k`` (in :attr:`edge_array` order) as
        ``u→v`` and ``v→u``.  CSR order sorts directed edges by
        ``(src, dst)``, so the reverse copy is found by binary search on
        the ascending key array.
        """
        if self._slot_pairs is None:
            n = self.n
            src = self.slot_src
            fwd = np.flatnonzero(src < self.indices)
            key = src * np.int64(max(n, 1)) + self.indices
            rev = np.searchsorted(
                key, self.indices[fwd] * np.int64(max(n, 1)) + src[fwd]
            )
            self._slot_pairs = (_frozen(fwd), _frozen(rev))
        return self._slot_pairs

    @property
    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` per
        row, in canonical (CSR scan) order."""
        if self._edge_array is None:
            fwd, _ = self.directed_slot_pairs
            self._edge_array = _frozen(
                np.column_stack([self.slot_src[fwd], self.indices[fwd]])
            )
        return self._edge_array

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = [
            name
            for name, slot in (
                ("degrees", self._degrees),
                ("slot_src", self._slot_src),
                ("isolated", self._isolated),
                ("slot_pairs", self._slot_pairs),
                ("edge_array", self._edge_array),
                ("fiedler", self.fiedler),
            )
            if slot is not None
        ]
        return f"GraphIndex(n={self.n}, m={self.m}, built={built})"
