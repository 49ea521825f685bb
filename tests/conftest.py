"""Shared fixtures for the test-suite.

Fixtures provide small deterministic graphs used across many modules; tests
needing randomness take explicit integer seeds so failures replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    expander,
    hypercube,
    mesh,
    path_graph,
    torus,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pool_starts(monkeypatch):
    """The ``max_workers`` of every process pool an executor starts."""
    from repro.api import executors

    starts = []

    class CountingPool(executors.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.fixture
def small_mesh():
    """4x4 mesh: 16 nodes, degree 2-4, the workhorse small planar graph."""
    return mesh([4, 4])


@pytest.fixture
def small_torus():
    """8x8 torus: 4-regular, vertex-transitive."""
    return torus(8, 2)


@pytest.fixture
def small_cycle():
    return cycle_graph(10)


@pytest.fixture
def small_path():
    return path_graph(8)


@pytest.fixture
def small_complete():
    return complete_graph(8)


@pytest.fixture
def small_hypercube():
    return hypercube(4)


@pytest.fixture
def small_expander():
    return expander(32, 4, seed=7)
