"""Unit tests for the array-backed union-find."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.util.unionfind import UnionFind


class TestConstruction:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.n_sets == 5
        assert uf.max_size == 1

    def test_empty(self):
        uf = UnionFind(0)
        assert len(uf) == 0
        assert uf.n_sets == 0
        assert uf.max_size == 0

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            UnionFind(-1)


class TestUnionFind:
    def test_union_returns_true_on_merge(self):
        uf = UnionFind(4)
        assert uf.union(0, 1) is True
        assert uf.union(0, 1) is False

    def test_find_idempotent(self):
        uf = UnionFind(4)
        uf.union(1, 2)
        r = uf.find(1)
        assert uf.find(2) == r
        assert uf.find(r) == r

    def test_connected(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.connected(0, 1)
        assert not uf.connected(1, 2)
        uf.union(1, 2)
        assert uf.connected(0, 3)

    def test_n_sets_decrements(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.n_sets == 3
        uf.union(0, 2)
        assert uf.n_sets == 2

    def test_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.set_size(0) == 3
        assert uf.set_size(2) == 3
        assert uf.set_size(5) == 1

    def test_max_size_tracking(self):
        uf = UnionFind(6)
        assert uf.max_size == 1
        uf.union(0, 1)
        assert uf.max_size == 2
        uf.union(2, 3)
        assert uf.max_size == 2
        uf.union(0, 2)
        assert uf.max_size == 4

    def test_union_by_size_keeps_depth_small(self):
        # chain of unions should still find quickly (no recursion error)
        n = 10000
        uf = UnionFind(n)
        for i in range(n - 1):
            uf.union(i, i + 1)
        assert uf.n_sets == 1
        assert uf.set_size(0) == n


class TestBatchOps:
    def test_union_edges_count(self):
        uf = UnionFind(5)
        u = np.array([0, 1, 2, 0])
        v = np.array([1, 2, 3, 3])
        merges = uf.union_edges(u, v)
        assert merges == 3  # the last edge is redundant
        assert uf.n_sets == 2

    def test_union_edges_shape_mismatch(self):
        uf = UnionFind(5)
        with pytest.raises(InvalidParameterError):
            uf.union_edges(np.array([0]), np.array([1, 2]))

    def test_labels_dense_and_consistent(self):
        uf = UnionFind(6)
        uf.union(0, 3)
        uf.union(1, 4)
        labels = uf.labels()
        assert labels.shape == (6,)
        assert labels[0] == labels[3]
        assert labels[1] == labels[4]
        assert labels[0] != labels[1]
        assert set(labels.tolist()) == set(range(uf.n_sets))

    def test_labels_ordered_by_first_appearance(self):
        # the roots end up as 3 and 1: numbering by root id gave [1, 0, 1, 1]
        uf = UnionFind(4)
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.labels().tolist() == [0, 1, 0, 0]
        assert uf.labels().dtype == np.int64
        assert UnionFind(0).labels().tolist() == []

    def test_component_sizes_sum(self):
        uf = UnionFind(8)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        sizes = uf.component_sizes()
        assert sizes.sum() == 8
        assert sorted(sizes.tolist(), reverse=True)[0] == 3
