"""Unit tests for the percolation engine."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graphs.generators import complete_graph, cycle_graph, mesh, torus
from repro.graphs.graph import Graph
from repro.percolation.bonds import (
    bond_percolation,
    bond_percolation_trial,
    bond_sweep,
)
from repro.percolation.known import known_thresholds
from repro.percolation.sites import site_percolation, site_percolation_trial
from repro.percolation.threshold import estimate_critical_probability


class TestSitePercolation:
    def test_q_one_full_graph(self, small_torus):
        assert site_percolation_trial(small_torus, 1.0, seed=0) == 1.0

    def test_q_zero_empty(self, small_torus):
        assert site_percolation_trial(small_torus, 0.0, seed=0) == 0.0

    def test_gamma_monotone_in_q(self):
        g = torus(16, 2)
        lo = site_percolation(g, 0.3, n_trials=10, seed=1).gamma_mean
        hi = site_percolation(g, 0.9, n_trials=10, seed=1).gamma_mean
        assert hi > lo

    def test_result_fields(self, small_torus):
        res = site_percolation(small_torus, 0.7, n_trials=5, seed=2)
        assert res.n_trials == 5
        assert res.samples.shape == (5,)
        assert res.p_fault == pytest.approx(0.3)
        assert 0.0 <= res.gamma_mean <= 1.0

    def test_deterministic(self, small_torus):
        a = site_percolation(small_torus, 0.5, n_trials=4, seed=7).gamma_mean
        b = site_percolation(small_torus, 0.5, n_trials=4, seed=7).gamma_mean
        assert a == b

    def test_bad_q(self, small_torus):
        with pytest.raises(InvalidParameterError):
            site_percolation_trial(small_torus, 1.2)

    def test_empty_graph(self):
        assert site_percolation_trial(Graph.empty(0), 0.5, seed=0) == 0.0


class TestBondPercolation:
    def test_q_one_full(self, small_torus):
        assert bond_percolation_trial(small_torus, 1.0, seed=0) == 1.0

    def test_q_zero_singletons(self, small_torus):
        assert bond_percolation_trial(small_torus, 0.0, seed=0) == pytest.approx(
            1 / small_torus.n
        )

    def test_mean_monotone(self):
        g = mesh([16, 16])
        lo = bond_percolation(g, 0.3, n_trials=8, seed=1).gamma_mean
        hi = bond_percolation(g, 0.7, n_trials=8, seed=1).gamma_mean
        assert hi > lo

    def test_sweep_monotone_curve(self, small_torus):
        sweep = bond_sweep(small_torus, n_sweeps=4, seed=0)
        curve = sweep.gamma_by_edges
        assert curve.shape == (small_torus.m + 1,)
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] == 1.0

    def test_sweep_gamma_at(self, small_torus):
        sweep = bond_sweep(small_torus, n_sweeps=4, seed=0)
        assert sweep.gamma_at(1.0) == 1.0
        assert sweep.gamma_at(0.0) == pytest.approx(1 / small_torus.n)
        with pytest.raises(InvalidParameterError):
            sweep.gamma_at(1.5)


class TestThresholdEstimate:
    def test_complete_graph_threshold(self):
        # K_n bond threshold ~ 1/(n-1)
        g = complete_graph(40)
        est = estimate_critical_probability(
            g, mode="bond", n_trials=10, tol=0.02, seed=0
        )
        assert est.midpoint < 0.12

    def test_mesh_threshold_near_half(self):
        g = mesh([20, 20])
        est = estimate_critical_probability(
            g, mode="bond", n_trials=8, tol=0.04, seed=1
        )
        assert 0.3 < est.midpoint < 0.6

    def test_bracket_shrinks_below_tol(self, small_torus):
        est = estimate_critical_probability(
            small_torus, mode="site", n_trials=5, tol=0.05, seed=2
        )
        assert est.width <= 0.05 + 1e-12

    def test_site_mode(self, small_torus):
        est = estimate_critical_probability(
            small_torus, mode="site", n_trials=5, tol=0.1, seed=3
        )
        assert 0.0 <= est.lo <= est.hi <= 1.0

    def test_bad_target(self, small_torus):
        with pytest.raises(InvalidParameterError):
            estimate_critical_probability(small_torus, gamma_target=0.0)

    def test_bisection_stops_at_the_probe_cap(self):
        # tol=0 never converges: bisection must stop at the 30-probe cap
        # the ladder honours, not one probe past it
        g = mesh([4, 4])
        bisect = estimate_critical_probability(g, tol=0.0, n_trials=2, seed=1)
        ladder = estimate_critical_probability(
            g, tol=0.0, n_trials=2, seed=1, ladder=3
        )
        assert bisect.n_probes == ladder.n_probes == 30

    @pytest.mark.parametrize(
        "q_lo, q_hi", [(0.9, 0.1), (0.5, 0.5), (-0.1, 1.0), (0.0, 1.5)]
    )
    def test_bad_bracket(self, small_torus, q_lo, q_hi):
        with pytest.raises(InvalidParameterError):
            estimate_critical_probability(small_torus, q_lo=q_lo, q_hi=q_hi)


class TestKnownTable:
    def test_rows_present(self):
        rows = known_thresholds()
        families = {r.family for r in rows}
        assert len(rows) == 5
        assert any("mesh" in f for f in families)
        assert any("hypercube" in f for f in families)

    def test_values_callable(self):
        for row in known_thresholds():
            params = {"n": 100, "d": 8}
            v = row.p_star(params)
            assert 0 < v < 1
            desc = row.describe(params)
            assert desc

    def test_butterfly_interval(self):
        bf = [r for r in known_thresholds() if r.family == "butterfly"][0]
        assert bf.p_star_hi is not None
        assert "[" in bf.describe({})


# ------------------------------------------------------------------ #
# Vectorised kernels vs the historical per-edge reference
# ------------------------------------------------------------------ #


def _reference_bond_sweep(graph, *, n_sweeps, seed):
    """The pre-vectorisation bond_sweep: one union + max_size read per edge."""
    from repro.util.rng import spawn
    from repro.util.unionfind import UnionFind

    edges = graph.edge_array()
    m = edges.shape[0]
    acc = np.zeros(m + 1, dtype=np.float64)
    rngs = spawn(seed, n_sweeps)
    for s in range(n_sweeps):
        order = rngs[s].permutation(m)
        uf = UnionFind(graph.n)
        curve = np.empty(m + 1, dtype=np.float64)
        curve[0] = 1.0 / max(graph.n, 1)
        e = edges[order]
        us, vs = e[:, 0].tolist(), e[:, 1].tolist()
        for k in range(m):
            uf.union(us[k], vs[k])
            curve[k + 1] = uf.max_size
        curve[1:] /= max(graph.n, 1)
        acc += curve
    acc /= n_sweeps
    return acc


def _reference_bond_percolation_samples(graph, q, *, n_trials, seed):
    """The pre-vectorisation per-trial mask formulation."""
    from repro.util.rng import spawn

    rngs = spawn(seed, n_trials)
    return np.array(
        [bond_percolation_trial(graph, q, rngs[i]) for i in range(n_trials)]
    )


class TestVectorisedBondKernels:
    def test_bond_sweep_identical_to_reference(self, small_torus):
        new = bond_sweep(small_torus, n_sweeps=4, seed=123).gamma_by_edges
        ref = _reference_bond_sweep(small_torus, n_sweeps=4, seed=123)
        np.testing.assert_array_equal(new, ref)

    def test_bond_sweep_identical_on_irregular_graph(self):
        g = mesh([5, 7])
        new = bond_sweep(g, n_sweeps=3, seed=9).gamma_by_edges
        ref = _reference_bond_sweep(g, n_sweeps=3, seed=9)
        np.testing.assert_array_equal(new, ref)

    def test_bond_percolation_samples_identical_to_reference(self, small_torus):
        res = bond_percolation(small_torus, 0.55, n_trials=12, seed=77)
        ref = _reference_bond_percolation_samples(
            small_torus, 0.55, n_trials=12, seed=77
        )
        np.testing.assert_array_equal(res.samples, ref)
        assert res.gamma_mean == pytest.approx(float(ref.mean()), abs=1e-12)
        assert res.gamma_std == pytest.approx(float(ref.std(ddof=1)), abs=1e-12)

    def test_union_edges_trace_matches_incremental_unions(self, rng):
        from repro.util.unionfind import UnionFind

        n = 40
        u = rng.integers(0, n, size=200)
        v = rng.integers(0, n, size=200)
        traced = UnionFind(n)
        trace = traced.union_edges_trace(u, v)
        stepwise = UnionFind(n)
        expected = []
        for a, b in zip(u.tolist(), v.tolist()):
            stepwise.union(a, b)
            expected.append(stepwise.max_size)
        assert trace.tolist() == expected
        # the DSU is left in the same state as the incremental path
        assert traced.n_sets == stepwise.n_sets
        assert traced.max_size == stepwise.max_size
        np.testing.assert_array_equal(traced.labels(), stepwise.labels())

    def test_trace_rejects_mismatched_shapes(self):
        from repro.util.unionfind import UnionFind

        with pytest.raises(InvalidParameterError):
            UnionFind(4).union_edges_trace(np.array([0, 1]), np.array([1]))
