"""Degenerate-input contracts of the batched kernels and metrics.

These behaviours were *defined* (rather than left to raise) when the
differential harness first exercised them: T = 0 trial matrices, n = 0
graphs, fully-dead mask rows, all-faulty percolation trials, and BFS rows
with no sources.  Every case documents the chosen semantics with an
assertion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.metrics import batched_gamma, batched_set_expansion
from repro.batch.rounds import cascade_rounds, run_rounds
from repro.errors import InvalidParameterError, SolverError
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    batched_bfs_distances,
    batched_boundary_masks,
    batched_boundary_sizes,
    batched_component_stats,
    batched_connected_components,
    batched_largest_component_fraction,
    largest_component_fraction,
)
from repro.percolation.bonds import bond_percolation
from repro.percolation.sites import site_percolation
from repro.testing import scalar_bond_percolation, scalar_site_percolation


@pytest.fixture()
def square():
    return Graph.from_edges(4, np.array([(0, 1), (1, 2), (2, 3), (3, 0)]))


# --------------------------------------------------------------------- #
# T = 0: no trials
# --------------------------------------------------------------------- #


def test_zero_trials_yield_empty_results(square):
    empty = np.zeros((0, 4), dtype=bool)
    labels = batched_connected_components(square, empty)
    assert labels.shape == (0, 4)
    n_components, largest = batched_component_stats(labels)
    assert n_components.shape == largest.shape == (0,)
    assert batched_largest_component_fraction(square, empty).shape == (0,)
    assert batched_bfs_distances(square, empty).shape == (0, 4)
    assert batched_boundary_sizes(square, empty).shape == (0,)
    assert batched_set_expansion(square, empty).shape == (0,)


# --------------------------------------------------------------------- #
# n = 0: the empty graph
# --------------------------------------------------------------------- #


def test_empty_graph_is_defined_everywhere():
    g = Graph.empty(0)
    masks = np.zeros((3, 0), dtype=bool)
    labels = batched_connected_components(g, masks)
    assert labels.shape == (3, 0)
    n_components, largest = batched_component_stats(labels)
    assert n_components.tolist() == largest.tolist() == [0, 0, 0]
    assert batched_largest_component_fraction(g, masks).tolist() == [0.0] * 3
    assert batched_bfs_distances(g, masks).shape == (3, 0)
    # the scalar γ shares the 0.0-for-empty convention
    assert largest_component_fraction(g) == 0.0
    # percolation on the empty graph: all-zero samples, both strategies
    for site, bond in (
        (site_percolation, bond_percolation),
        (scalar_site_percolation, scalar_bond_percolation),
    ):
        assert site(g, 0.5, n_trials=3, seed=1).samples.tolist() == [0.0] * 3
        assert bond(g, 0.5, n_trials=3, seed=1).samples.tolist() == [0.0] * 3


# --------------------------------------------------------------------- #
# fully-dead rows: every node faulty in one trial
# --------------------------------------------------------------------- #


def test_fully_dead_rows_report_zero_components(square):
    alive = np.array([[True] * 4, [False] * 4, [True, False, True, False]])
    labels = batched_connected_components(square, alive)
    assert (labels[1] == -1).all()
    n_components, largest = batched_component_stats(labels)
    assert n_components.tolist() == [1, 0, 2]
    assert largest.tolist() == [4, 0, 1]
    gamma = batched_largest_component_fraction(square, alive)
    assert gamma.tolist() == [1.0, 0.0, 0.25]


def test_all_faulty_percolation_trial_is_zero(square):
    # q = 0 kills every node in every trial — γ must be 0.0, not an error
    for site, bond in (
        (site_percolation, bond_percolation),
        (scalar_site_percolation, scalar_bond_percolation),
    ):
        result = site(square, 0.0, n_trials=4, seed=2)
        assert result.samples.tolist() == [0.0] * 4
        # bond q = 0 keeps all nodes but no edges: γ = 1/n exactly
        result = bond(square, 0.0, n_trials=4, seed=2)
        assert result.samples.tolist() == [0.25] * 4


def test_isolated_survivors_give_one_over_n(square):
    alive = np.array([[True, False, False, False]])
    assert batched_largest_component_fraction(square, alive).tolist() == [0.25]


# --------------------------------------------------------------------- #
# BFS rows without sources; dead sources
# --------------------------------------------------------------------- #


def test_bfs_row_without_sources_stays_unreached(square):
    sources = np.array([[True, False, False, False], [False] * 4])
    dist = batched_bfs_distances(square, sources)
    assert dist[0].tolist() == [0, 1, 2, 1]
    assert (dist[1] == -1).all()


def test_bfs_dead_sources_do_not_seed(square):
    sources = np.array([[True, False, True, False]])
    alive = np.array([[False, True, True, True]])
    dist = batched_bfs_distances(square, sources, alive)
    # node 0 is dead: not a seed, not reachable; 2 seeds the rest
    assert dist[0].tolist() == [-1, 1, 0, 1]


# --------------------------------------------------------------------- #
# metrics: undefined ratios come back nan, never raise
# --------------------------------------------------------------------- #


def test_set_expansion_degenerate_rows_are_nan(square):
    masks = np.array([
        [False] * 4,                  # empty set
        [True] * 4,                   # the whole node set
        [True, False, False, False],  # a proper set
    ])
    node = batched_set_expansion(square, masks, mode="node")
    assert np.isnan(node[0]) and node[2] == 2.0
    edge = batched_set_expansion(square, masks, mode="edge")
    assert np.isnan(edge[0]) and np.isnan(edge[1]) and edge[2] == 2.0


def test_gamma_composes_node_and_edge_masks(square):
    alive = np.ones((1, 4), dtype=bool)
    edge_alive = np.zeros((1, square.m), dtype=bool)
    assert batched_gamma(square, alive, edge_alive=edge_alive).tolist() == [0.25]


# --------------------------------------------------------------------- #
# sequential-round kernels: degenerate trials and convergence caps
# --------------------------------------------------------------------- #


def test_cascade_rounds_zero_trials(square):
    final, rounds = cascade_rounds(square, np.zeros((0, 4), dtype=bool), 0.0)
    assert final.shape == (0, 4) and rounds.shape == (0,)


def test_cascade_rounds_empty_graph():
    g = Graph.empty(0)
    final, rounds = cascade_rounds(g, np.zeros((3, 0), dtype=bool), 0.5)
    assert final.shape == (3, 0)
    assert rounds.tolist() == [0, 0, 0]


def test_cascade_rounds_all_dead_row_is_stable(square):
    # a fully-failed seed row has nobody left to recruit: 0 rounds
    seeds = np.array([[True] * 4, [True, False, False, False]])
    final, rounds = cascade_rounds(square, seeds, 0.0)
    assert final[0].all() and rounds[0] == 0
    assert final[1].all() and rounds[1] > 0  # alpha=0 cascades fully


def test_cascade_rounds_huge_margin_stops_at_seeds(square):
    # capacity far above any reachable load: the cascade is the seed set
    seeds = np.array([[True, False, False, False]])
    final, rounds = cascade_rounds(square, seeds, 100.0)
    assert np.array_equal(final, seeds)
    assert rounds.tolist() == [0]


def test_cascade_rounds_pins_round_count():
    # path 0-1-2 at alpha=0: the failure front advances one hop per
    # round — node 1 falls in round 1, node 2 in round 2, and the load
    # node 2 accumulated is lost (no survivors to give to)
    path = Graph.from_edges(3, np.array([(0, 1), (1, 2)]))
    seeds = np.array([[True, False, False]])
    final, rounds = cascade_rounds(path, seeds, 0.0)
    assert final.tolist() == [[True, True, True]]
    assert rounds.tolist() == [2]


def test_run_rounds_no_op_step_is_zero_rounds(square):
    masks = np.array([[True, False, True, False]])
    final, rounds = run_rounds(masks, lambda m: m.copy())
    assert np.array_equal(final, masks)
    assert rounds.tolist() == [0]


def test_run_rounds_raises_past_max_rounds(square):
    masks = np.array([[True, False, True, False]])
    with pytest.raises(SolverError):
        run_rounds(masks, np.logical_not, max_rounds=10)


def test_cascade_rounds_rejects_non_boolean_masks(square):
    # NaN/negative entries arrive as a float dtype and must be rejected
    # loudly, never silently truthified — same contract as the
    # single-shot kernels below
    bad = np.array([[np.nan, -1.0, 0.0, 1.0]])
    with pytest.raises(InvalidParameterError, match="boolean"):
        cascade_rounds(square, bad, 0.5)
    with pytest.raises(InvalidParameterError):
        cascade_rounds(square, np.zeros((2, 3), dtype=bool), 0.5)  # bad shape
    with pytest.raises(InvalidParameterError):
        cascade_rounds(square, np.zeros((2, 4), dtype=bool), -0.1)  # bad alpha
    with pytest.raises(InvalidParameterError):
        cascade_rounds(square, np.zeros((2, 4), dtype=bool), np.nan)


# --------------------------------------------------------------------- #
# input validation stays loud for real mistakes
# --------------------------------------------------------------------- #


def test_batched_kernels_reject_nan_float_masks(square):
    """The single-shot kernels share the reject-non-bool contract."""
    bad = np.array([[np.nan, -1.0, 0.0, 1.0]])
    with pytest.raises(InvalidParameterError):
        batched_connected_components(square, bad)
    with pytest.raises(InvalidParameterError):
        batched_bfs_distances(square, bad)
    with pytest.raises(InvalidParameterError):
        batched_set_expansion(square, bad)


def test_shape_and_dtype_mistakes_raise(square):
    with pytest.raises(InvalidParameterError):
        batched_connected_components(square, np.zeros((2, 3), dtype=bool))
    with pytest.raises(InvalidParameterError):
        batched_connected_components(square, np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        batched_connected_components(square)  # neither mask given
    with pytest.raises(InvalidParameterError):
        batched_connected_components(
            square, np.ones((2, 4), dtype=bool),
            edge_alive=np.ones((3, square.m), dtype=bool),  # trial mismatch
        )
    with pytest.raises(InvalidParameterError):
        batched_boundary_masks(
            square, np.ones((2, 4), dtype=bool), np.ones((1, 4), dtype=bool)
        )
