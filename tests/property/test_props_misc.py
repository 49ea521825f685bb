"""Property-based tests: union-find laws, percolation monotonicity, span,
table rendering totality."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import mesh
from repro.graphs.ops import node_boundary
from repro.percolation.bonds import bond_sweep
from repro.span.compact_enum import random_compact_set
from repro.span.mesh_tree import mesh_boundary_tree
from repro.span.span import span_exact
from repro.report.tables import fmt_float, format_table
from repro.util.unionfind import UnionFind

from .strategies import connected_graphs


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
)
def test_unionfind_equivalence_laws(n, pairs):
    pairs = [(a % n, b % n) for a, b in pairs]
    uf = UnionFind(n)
    merges = 0
    for a, b in pairs:
        if uf.union(a, b):
            merges += 1
    # invariant: components + merges = n
    assert uf.n_sets + merges == n
    # transitivity via labels
    labels = uf.labels()
    for a, b in pairs:
        assert labels[a] == labels[b]
    # sizes sum to n; max matches tracker
    sizes = uf.component_sizes()
    assert sizes.sum() == n
    assert sizes.max() == uf.max_size


@settings(max_examples=10, deadline=None)
@given(connected_graphs(min_nodes=4, max_nodes=9), st.integers(0, 1000))
def test_bond_sweep_curve_monotone(g, seed):
    curve = bond_sweep(g, n_sweeps=2, seed=seed).gamma_by_edges
    assert np.all(np.diff(curve) >= -1e-12)
    assert curve[-1] == 1.0


@settings(max_examples=15, deadline=None)
@given(connected_graphs(min_nodes=3, max_nodes=8))
def test_span_at_least_one(g):
    res = span_exact(g, max_nodes=8)
    assert res.value >= 1.0 - 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.integers(0, 10_000))
def test_mesh_tree_bound_random_meshes(rows, cols, seed):
    g = mesh([rows, cols])
    u = random_compact_set(g, seed=seed)
    if u is None:
        return
    res = mesh_boundary_tree(g, u)
    assert res.virtual_connected
    assert res.tree_nodes.shape[0] <= 2 * res.boundary.shape[0] - 1


@settings(max_examples=50, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_fmt_float_total(x):
    out = fmt_float(x)
    assert isinstance(out, str) and out


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cc", "Cs")),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 5),
)
def test_format_table_total(headers, n_rows):
    # headers restricted to printable text: cells are single-line by contract
    rows = [[f"c{i}{j}" for j in range(len(headers))] for i in range(n_rows)]
    out = format_table(headers, rows)
    assert len(out.split("\n")) == 2 + n_rows
