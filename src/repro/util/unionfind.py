"""Array-backed disjoint-set union (union–find).

The percolation engine and connected-component routines union millions of
element pairs, so the structure is kept as two flat numpy arrays (parent and
size) with path-halving finds and union-by-size.  Per-call work is a tight
Python loop over machine integers — profiling showed this beats building
scipy sparse structures for the incremental workloads used here (Newman–Ziff
style sweeps add one edge at a time, which no batch API serves well).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint-set union over the integers ``0 .. n-1``.

    Supports the classic operations plus bookkeeping needed by percolation
    sweeps: the size of the largest current set is maintained incrementally
    so callers can read it in O(1) after every union.

    Parameters
    ----------
    n:
        Number of elements.  Elements are always the integers ``0..n-1``.
    """

    __slots__ = ("_parent", "_size", "_n_sets", "_max_size")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise InvalidParameterError(f"UnionFind size must be >= 0, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)
        self._n_sets = n
        self._max_size = 1 if n > 0 else 0

    def __len__(self) -> int:
        return int(self._parent.shape[0])

    @property
    def n_sets(self) -> int:
        """Number of disjoint sets currently present."""
        return self._n_sets

    @property
    def max_size(self) -> int:
        """Size of the largest set (0 for an empty structure)."""
        return self._max_size

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns
        -------
        bool
            ``True`` if a merge happened, ``False`` if they were already
            in the same set.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        size[ra] += size[rb]
        if size[ra] > self._max_size:
            self._max_size = int(size[ra])
        self._n_sets -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are currently in the same set."""
        return self.find(a) == self.find(b)

    def set_size(self, x: int) -> int:
        """Size of the set containing ``x``."""
        return int(self._size[self.find(x)])

    def union_edges(self, u: np.ndarray, v: np.ndarray) -> int:
        """Union many pairs at once; returns the number of effective merges.

        ``u`` and ``v`` are equal-length integer arrays.  The loop is plain
        Python over numpy scalars which is the fastest pure-Python option for
        a data-dependent sequential computation (vectorising DSU is not
        possible without changing the algorithm).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise InvalidParameterError("u and v must have equal shapes")
        merges = 0
        # Localise bound methods: ~30% faster in the hot loop.
        union = self.union
        for a, b in zip(u.tolist(), v.tolist()):
            if union(a, b):
                merges += 1
        return merges

    def union_edges_trace(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Union pairs in order; return the largest-set size after *each* one.

        This is the Newman–Ziff inner kernel: one call replaces the
        per-edge ``union(); read max_size`` loop.  The DSU state is staged
        in plain Python lists (list indexing beats numpy scalar indexing by
        ~4× for data-dependent access patterns), run through one tight loop
        with inlined path-halving finds, and written back, so the structure
        is left exactly as if :meth:`union` had been called edge by edge.
        The returned ``int64`` trace is the running maximum — callers get
        the whole microcanonical curve from a single vectorisable array.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise InvalidParameterError("u and v must have equal shapes")
        m = int(u.shape[0])
        trace = np.empty(m, dtype=np.int64)
        parent = self._parent.tolist()
        size = self._size.tolist()
        max_size = self._max_size
        n_sets = self._n_sets
        us, vs = u.tolist(), v.tolist()
        for k in range(m):
            a, b = us[k], vs[k]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                if size[a] > max_size:
                    max_size = size[a]
                n_sets -= 1
            trace[k] = max_size
        self._parent = np.asarray(parent, dtype=np.int64)
        self._size = np.asarray(size, dtype=np.int64)
        self._max_size = max_size
        self._n_sets = n_sets
        return trace

    def labels(self) -> np.ndarray:
        """Return an ``int64`` array mapping each element to a canonical
        component label in ``0..n_sets-1`` (labels are dense and ordered by
        first appearance, i.e. by each set's smallest member)."""
        n = len(self)
        roots = np.empty(n, dtype=np.int64)
        for i in range(n):
            roots[i] = self.find(i)
        # np.unique numbers the roots by root id; renumber by first element
        _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
        return np.argsort(np.argsort(first))[inverse].astype(np.int64)

    def component_sizes(self) -> np.ndarray:
        """Sizes of all current sets, in canonical label order."""
        labels = self.labels()
        return np.bincount(labels).astype(np.int64)
