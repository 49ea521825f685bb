"""Unit tests for the two-sided expansion estimate facade and refinement."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.expansion.estimate import (
    ExpansionEstimate,
    estimate_edge_expansion,
    estimate_node_expansion,
)
from repro.expansion.exact import edge_expansion_exact, node_expansion_exact
from repro.expansion.local import refine_cut
from repro.expansion.profiles import bfs_ball, expansion_profile
from repro.graphs.generators import barbell, cycle_graph, mesh, torus
from repro.graphs.graph import Graph
from repro.graphs.ops import node_boundary_size, node_expansion_of_set


class TestEstimateNode:
    def test_small_graph_exact(self):
        g = cycle_graph(10)
        est = estimate_node_expansion(g)
        assert est.exact
        assert est.lower == est.upper == pytest.approx(2 / 5)

    def test_large_graph_bracket(self):
        g = torus(8, 2)
        est = estimate_node_expansion(g, exact_threshold=14)
        assert not est.exact
        assert 0 < est.lower <= est.upper

    def test_upper_is_constructive(self):
        g = torus(8, 2)
        est = estimate_node_expansion(g)
        achieved = node_expansion_of_set(g, est.witness)
        assert achieved == pytest.approx(est.upper)

    def test_disconnected_zero(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        est = estimate_node_expansion(g)
        assert est.value == 0.0 and est.exact

    def test_value_is_upper(self, small_torus):
        est = estimate_node_expansion(small_torus)
        assert est.value == est.upper

    def test_tiny_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimate_node_expansion(Graph.empty(1))

    def test_inconsistent_estimate_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExpansionEstimate("node", lower=1.0, upper=0.5,
                              witness=np.array([0]), exact=False, method="x")


@pytest.mark.parametrize(
    "estimate", [estimate_node_expansion, estimate_edge_expansion]
)
def test_estimate_solves_the_laplacian_once(monkeypatch, estimate):
    """The sweep order and the Cheeger bound share one eigensolve."""
    from repro.spectral import eigen

    solves = []
    dense = eigen._dense_fiedler

    def counted(lap):
        solves.append(lap.shape)
        return dense(lap)

    monkeypatch.setattr(eigen, "_dense_fiedler", counted)
    est = estimate(torus(8, 2))
    assert not est.exact
    assert len(solves) == 1


class TestEstimateEdge:
    def test_small_graph_exact(self):
        g = cycle_graph(12)
        est = estimate_edge_expansion(g)
        assert est.exact
        assert est.value == pytest.approx(2 / 6)

    def test_large_graph_bracket_valid(self):
        g = torus(8, 2)
        est = estimate_edge_expansion(g)
        # true alpha_e of 8x8 torus is 4*8/32 = 1.0? cut a band: 16 edges/32
        assert est.lower <= est.upper
        assert est.upper <= 2.0

    def test_barbell_finds_bottleneck(self):
        g = barbell(8, 0)
        est = estimate_edge_expansion(g, exact_threshold=4)
        # bridge cut: 1 edge / 8 nodes
        assert est.upper == pytest.approx(1 / 8)


class TestRefineCut:
    def test_never_worse(self, small_torus):
        seed = np.arange(10)
        before = node_expansion_of_set(small_torus, seed)
        refined = refine_cut(small_torus, seed, "node")
        after = node_expansion_of_set(small_torus, refined)
        assert after <= before + 1e-12

    def test_respects_half_constraint(self, small_torus):
        refined = refine_cut(small_torus, np.arange(small_torus.n // 2), "node")
        assert refined.size <= small_torus.n // 2

    def test_mask_input(self, small_mesh):
        mask = np.zeros(small_mesh.n, dtype=bool)
        mask[[0, 1]] = True
        refined = refine_cut(small_mesh, mask, "edge")
        assert refined.size >= 1

    def test_empty_seed_rejected(self, small_mesh):
        with pytest.raises(InvalidParameterError):
            refine_cut(small_mesh, np.array([], dtype=np.int64))

    def test_bad_kind_rejected(self, small_mesh):
        with pytest.raises(InvalidParameterError):
            refine_cut(small_mesh, np.array([0]), "vertex")  # type: ignore[arg-type]

    def test_move_budget_respected(self, small_torus):
        refined = refine_cut(small_torus, np.arange(8), "node", max_moves=0)
        assert np.array_equal(refined, np.arange(8))


class TestProfiles:
    def test_bfs_ball_size(self, small_torus):
        ball = bfs_ball(small_torus, 0, 10)
        assert ball.size == 10
        assert 0 in ball.tolist()

    def test_bfs_ball_connected(self, small_torus):
        from repro.graphs.traversal import is_subset_connected

        ball = bfs_ball(small_torus, 5, 17)
        assert is_subset_connected(small_torus, ball)

    def test_bfs_ball_component_capped(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        ball = bfs_ball(g, 0, 10)
        assert ball.size == 3  # can't leave the component

    def test_mesh_profile_exponent(self):
        g = torus(16, 2)
        prof = expansion_profile(g, seed=0, samples_per_size=2)
        # 2-D mesh family: alpha(m) ~ m^{-1/2}
        assert -0.9 < prof.exponent < -0.2
        assert prof.is_uniform(slack=10.0)

    def test_profile_prediction_positive(self):
        g = torus(12, 2)
        prof = expansion_profile(g, seed=1, samples_per_size=2)
        assert prof.predicted(100.0) > 0

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            expansion_profile(cycle_graph(8))
