"""K0 — kernel micro-benchmarks.

Times the primitives every experiment leans on, at representative sizes.
These are calibrated pytest-benchmark loops (many iterations), unlike the
one-shot experiment benches.
"""

import numpy as np
import pytest

from repro.expansion.sweep import best_edge_sweep_cut, fiedler_order
from repro.faults.random_faults import random_node_faults
from repro.graphs.generators import torus
from repro.graphs.graph import neighbors_of_many
from repro.graphs.ops import node_boundary
from repro.graphs.traversal import bfs_distances, connected_components
from repro.percolation.sites import site_percolation_trial
from repro.pruning.prune import prune
from repro.spectral.eigen import fiedler_vector
from repro.span.steiner import approx_steiner_tree
from repro.util.unionfind import UnionFind


@pytest.fixture(scope="module")
def torus_4k():
    return torus(64, 2)  # 4096 nodes, 8192 edges


@pytest.fixture(scope="module")
def torus_1k():
    return torus(32, 2)


def test_bench_bfs_distances(benchmark, torus_4k):
    benchmark(bfs_distances, torus_4k, 0)


def test_bench_connected_components(benchmark, torus_4k):
    benchmark(connected_components, torus_4k)


def test_bench_neighbors_gather(benchmark, torus_4k):
    nodes = np.arange(0, torus_4k.n, 2)
    benchmark(neighbors_of_many, torus_4k, nodes)


def test_bench_node_boundary(benchmark, torus_4k):
    subset = np.arange(torus_4k.n // 2)
    benchmark(node_boundary, torus_4k, subset)


def test_bench_unionfind_union_edges(benchmark, torus_4k):
    edges = torus_4k.edge_array()

    def run():
        uf = UnionFind(torus_4k.n)
        uf.union_edges(edges[:, 0], edges[:, 1])
        return uf.max_size

    benchmark(run)


def test_bench_fiedler_vector(benchmark):
    # fiedler_vector memoises its pair on the graph's index, which renamed
    # copies share, so every round solves a freshly built torus.
    benchmark.pedantic(
        fiedler_vector, setup=lambda: ((torus(32, 2),), {}), rounds=10
    )


def test_bench_sweep_cut(benchmark, torus_1k):
    order = fiedler_order(torus_1k)
    benchmark(best_edge_sweep_cut, torus_1k, order)


def test_bench_subgraph(benchmark, torus_4k):
    keep = np.arange(0, torus_4k.n, 3)
    benchmark(torus_4k.subgraph, keep)


def test_bench_site_percolation_trial(benchmark, torus_4k):
    benchmark(site_percolation_trial, torus_4k, 0.6, 0)


def test_bench_prune_faulty_torus(benchmark, torus_1k):
    scenario = random_node_faults(torus_1k, 0.05, seed=1)

    def run():
        return prune(scenario.surviving, 4 / 32, 0.5)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_steiner_approx(benchmark, torus_1k):
    rng = np.random.default_rng(0)
    terminals = rng.choice(torus_1k.n, size=12, replace=False)
    benchmark(approx_steiner_tree, torus_1k, terminals)
