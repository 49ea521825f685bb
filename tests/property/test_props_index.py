"""Property-based tests for :class:`repro.graphs.index.GraphIndex`.

The index is a cache of derived views over an immutable CSR graph, so its
whole contract is (a) every view equals what you would compute fresh from
``indptr``/``indices``, (b) the object is *shared* across cheap graph
copies (``renamed``/``detached``) so the cache amortises, and (c) nothing
it hands out is writable — aliasing a cached array must not let a caller
corrupt every future read.

The same three hold for the one memo the index does not derive itself,
the Fiedler pair :func:`~repro.spectral.eigen.fiedler_vector` stores there;
and a solve that fails must leave nothing behind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.errors import NotConnectedError, SolverError
from repro.graphs.graph import Graph
from repro.graphs.index import GraphIndex
from repro.graphs.traversal import is_connected
from repro.spectral import eigen
from repro.spectral.eigen import fiedler_vector

from .strategies import connected_graphs, graphs


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_views_match_fresh_computation(g):
    idx = g.index
    n = g.n
    degrees = np.diff(g.indptr)
    assert idx.n == n and idx.m == g.m
    assert np.array_equal(idx.degrees, degrees)
    assert np.array_equal(idx.starts, g.indptr[:-1])
    assert np.array_equal(
        idx.slot_src, np.repeat(np.arange(n, dtype=np.int64), degrees)
    )
    assert np.array_equal(idx.isolated, degrees == 0)
    assert idx.has_isolated == bool(np.any(degrees == 0))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_directed_slot_pairs_are_mutual(g):
    """fwd/rev index the two directed copies of each undirected edge."""
    fwd, rev = g.index.directed_slot_pairs
    src = g.index.slot_src
    assert fwd.shape == rev.shape == (g.m,)
    # the forward slot is the (u < v) copy; its reverse slot holds (v, u)
    assert np.all(src[fwd] < g.indices[fwd])
    assert np.array_equal(src[rev], g.indices[fwd])
    assert np.array_equal(g.indices[rev], src[fwd])


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_array_matches_graph_contract(g):
    edges = g.index.edge_array
    assert edges.shape == (g.m, 2)
    if g.m:
        assert np.all(edges[:, 0] < edges[:, 1])
    assert Graph.from_edges(g.n, edges) == g
    # and the Graph-level accessor serves the very same cached object
    assert g.edge_array() is edges


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_index_shared_across_copies(g):
    """renamed/detached share arrays, so they share the index object."""
    idx = g.index
    assert g.renamed("other").index is idx
    assert g.detached().index is idx
    # repeated access memoises on the graph
    assert g.index is idx


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_views_are_read_only(g):
    idx = g.index
    for arr in (idx.degrees, idx.slot_src, idx.isolated, idx.edge_array,
                *idx.directed_slot_pairs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_standalone_index_equals_graph_index_views():
    g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [3, 4]], dtype=np.int64))
    standalone = GraphIndex(g.indptr, g.indices)
    assert np.array_equal(standalone.degrees, g.index.degrees)
    assert np.array_equal(standalone.edge_array, g.index.edge_array)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_fiedler_memo_equals_a_fresh_solve_and_is_shared(g):
    info = fiedler_vector(g)
    assert g.index.fiedler is info
    assert fiedler_vector(g) is info
    fresh = fiedler_vector(
        Graph(g.indptr.copy(), g.indices.copy(), validate=False)
    )
    assert fresh is not info
    assert info.lambda2 == fresh.lambda2
    assert np.array_equal(info.vector, fresh.vector)
    assert fiedler_vector(g.renamed("other")) is info
    assert fiedler_vector(g.detached()) is info


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_fiedler_vector_is_read_only(g):
    vector = fiedler_vector(g).vector
    assert not vector.flags.writeable
    with pytest.raises(ValueError):
        vector[...] = 0


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_disconnected_graph_raises_every_time_and_caches_nothing(g):
    assume(not is_connected(g))
    for _ in range(2):
        with pytest.raises(NotConnectedError):
            fiedler_vector(g)
        assert g.index.fiedler is None


def test_solver_failure_is_not_cached(monkeypatch):
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64))

    def failing(lap):
        raise SolverError("no convergence")

    with monkeypatch.context() as patch:
        patch.setattr(eigen, "_dense_fiedler", failing)
        with pytest.raises(SolverError):
            fiedler_vector(g)
    assert g.index.fiedler is None
    assert fiedler_vector(g).lambda2 > 0
