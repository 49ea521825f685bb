"""Property-based tests for expansion machinery and pruning postconditions."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.expansion.estimate import estimate_node_expansion
from repro.expansion.exact import edge_expansion_exact, node_expansion_exact
from repro.expansion.local import refine_cut
from repro.expansion.sweep import best_edge_sweep_cut, best_node_sweep_cut
from repro.graphs.ops import (
    edge_boundary_count,
    node_boundary,
    node_boundary_size,
    node_expansion_of_set,
)
from repro.graphs.traversal import is_connected
from repro.pruning.compact import compactify, is_compact
from repro.pruning.cutfinder import ExhaustiveCutFinder
from repro.pruning.prune import prune
from repro.pruning.certificates import verify_culls

from .strategies import connected_graphs, graph_with_subset, graphs


@settings(max_examples=40, deadline=None)
@given(graph_with_subset(max_nodes=10))
def test_exact_node_expansion_is_minimum(gs):
    """The exact value lower-bounds the ratio of every candidate subset."""
    g, subset = gs
    exact = node_expansion_exact(g, max_nodes=10).value
    assert node_expansion_of_set(g, subset) >= exact - 1e-12


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_nodes=10))
def test_node_edge_expansion_sandwich(g):
    """α ≤ αe ≤ δ·α (§1.3 conventions; both minimised over |S| ≤ n/2)."""
    node = node_expansion_exact(g, max_nodes=10).value
    edge = edge_expansion_exact(g, max_nodes=10).value
    delta = max(g.max_degree, 1)
    assert node <= edge + 1e-12
    assert edge <= delta * node + 1e-12


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_nodes=3, max_nodes=10))
def test_sweep_upper_bounds_exact(g):
    exact = node_expansion_exact(g, max_nodes=10).value
    cut = best_node_sweep_cut(g)
    assert cut.ratio >= exact - 1e-12
    exact_e = edge_expansion_exact(g, max_nodes=10).value
    cut_e = best_edge_sweep_cut(g)
    assert cut_e.ratio >= exact_e - 1e-12


@settings(max_examples=30, deadline=None)
@given(graph_with_subset(max_nodes=10))
def test_refine_never_worse(gs):
    g, subset = gs
    before = node_expansion_of_set(g, subset)
    refined = refine_cut(g, subset, "node")
    assert node_expansion_of_set(g, refined) <= before + 1e-12


def _refine_by_rescoring(g, seed, kind, budget):
    """``refine_cut``'s greedy pass spelled out: every candidate move
    re-scores the whole set from scratch."""
    mask = np.zeros(g.n, dtype=bool)
    mask[seed] = True

    def ratio():
        size = int(mask.sum())
        if size == 0 or size > g.n // 2:
            return float("inf")
        if kind == "node":
            return node_boundary_size(g, mask) / size
        return edge_boundary_count(g, mask) / min(size, g.n - size)

    best, moves, improved = ratio(), 0, True
    while improved and moves < budget:
        improved = False
        candidates = [(v, True) for v in node_boundary(g, mask).tolist()]
        candidates += [(v, False) for v in node_boundary(g, ~mask).tolist()]
        for v, add in candidates:
            if moves >= budget:
                break
            mask[v] = add
            value = ratio()
            if value < best:
                best, moves, improved = value, moves + 1, True
            else:
                mask[v] = not add
    return np.flatnonzero(mask)


@st.composite
def _refine_inputs(draw):
    g = draw(graphs(min_nodes=2, max_nodes=14, max_extra_edges=25))
    seed = draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
    )
    kind = draw(st.sampled_from(["node", "edge"]))
    budget = draw(st.one_of(st.none(), st.integers(0, 6)))
    return g, np.array(seed, dtype=np.int64), kind, budget


@settings(max_examples=150, deadline=None)
@given(_refine_inputs())
def test_refine_matches_rescoring_every_move(inputs):
    """The incremental boundary counts pick exactly the moves a full
    re-score would (any graph, seed size, kind and move budget)."""
    g, seed, kind, budget = inputs
    full = 2 * g.n if budget is None else budget
    expected = _refine_by_rescoring(g, seed, kind, full)
    assert refine_cut(g, seed, kind, max_moves=budget).tolist() == expected.tolist()


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_nodes=3, max_nodes=10))
def test_estimate_brackets_exact(g):
    est = estimate_node_expansion(g, exact_threshold=4)  # force sweep path
    exact = node_expansion_exact(g, max_nodes=10).value
    if g.n > 4:
        assert est.lower - 1e-9 <= exact <= est.upper + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    connected_graphs(min_nodes=4, max_nodes=10),
    st.floats(0.1, 1.0),
)
def test_prune_postcondition_exact(g, eps):
    """After Prune with the exhaustive finder, the surviving graph has no
    cullable set: its exact expansion exceeds the threshold (or |H| ≤ 1)."""
    alpha = node_expansion_exact(g, max_nodes=10).value
    assume(alpha > 0)
    finder = ExhaustiveCutFinder(max_nodes=10)
    res = prune(g, alpha, eps, finder=finder)
    assert verify_culls(res)
    h = res.surviving_graph
    if h.n >= 2:
        h_alpha = node_expansion_exact(h, max_nodes=10).value
        assert h_alpha >= alpha * eps - 1e-9
    # partition: culled + survivors = everything
    assert res.n_culled + h.n == g.n


@settings(max_examples=30, deadline=None)
@given(graph_with_subset(min_nodes=4, max_nodes=10))
def test_compactify_contract(gs):
    """K_G(S) is compact with edge expansion ≤ S's, whenever S qualifies."""
    from repro.graphs.ops import edge_boundary_count
    from repro.graphs.traversal import is_subset_connected

    g, subset = gs
    assume(is_subset_connected(g, subset))
    assume(2 * subset.size <= g.n)
    k = compactify(g, subset)
    assert is_compact(g, k)
    s_ratio = edge_boundary_count(g, subset) / subset.size
    k_ratio = edge_boundary_count(g, k) / k.size
    assert k_ratio <= s_ratio + 1e-9
