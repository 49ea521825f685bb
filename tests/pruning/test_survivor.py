"""The survivor H a pruner returns, and the eigensolves it saves.

``PruneResult.surviving_graph`` is the graph object the cut finder last
examined and found no cut in.  The finder's Fiedler solve of that graph is
memoised on its index, so the survivor's expansion estimate (and the
theorem checks) reuse it: a trial whose cuts are all fault-shattered
fragments makes two solves, the fault-free baseline and H.
"""

import numpy as np
import pytest

from repro.api.engine import analyze_graph, apply_fault_spec, resolve_graph, run
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.faults.random_faults import random_node_faults
from repro.graphs.generators import torus
from repro.pruning.certificates import check_theorem21, check_theorem34
from repro.pruning.prune import prune
from repro.pruning.prune2 import prune2
from repro.spectral import eigen

PRUNERS = [("prune", "node"), ("prune2", "edge")]


@pytest.fixture
def solves(monkeypatch):
    """The size of every Laplacian a Fiedler solve takes, in call order."""
    sizes = []
    for name in ("_sparse_fiedler", "_dense_fiedler"):
        real = getattr(eigen, name)

        def counted(lap, *args, _real=real):
            sizes.append(lap.shape[0])
            return _real(lap, *args)

        monkeypatch.setattr(eigen, name, counted)
    return sizes


def scenario(pruner, mode, seed):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 24, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.1}),
        analysis=AnalysisSpec(mode=mode, pruner=pruner, measure_expansion=True),
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pruner, mode", PRUNERS)
def test_a_trial_solves_the_baseline_and_the_survivor_once_each(
    solves, pruner, mode, seed
):
    result = run(scenario(pruner, mode, seed))
    assert result.surviving_expansion is not None
    assert solves == [24 * 24, result.n_surviving]


@pytest.mark.parametrize("pruner, mode", PRUNERS)
def test_theorem_checks_reuse_the_survivor_solve(solves, pruner, mode):
    spec = scenario(pruner, mode, 3)
    graph, raw = resolve_graph(spec.graph)
    faults = apply_fault_spec(graph, spec.fault, seed=spec.seed, raw=raw)
    report = analyze_graph(graph, faults, mode=mode, pruner=pruner)
    result = report.prune_result
    assert result.culled  # H is not the faulty graph itself
    before = len(solves)
    if mode == "node":
        check = check_theorem21(
            result, n_original=graph.n, f=faults.f,
            alpha=report.baseline_expansion.value, k=2,
        )
    else:
        check = check_theorem34(
            result, n_original=graph.n,
            alpha_e=report.baseline_expansion.value, epsilon=report.epsilon,
        )
    assert len(solves) == before
    assert check.surviving_expansion.upper == report.surviving_expansion.upper
    assert check.surviving_expansion.lower == report.surviving_expansion.lower


@pytest.mark.parametrize("alpha", [0.25, 1.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("prune_fn", [prune, prune2])
def test_surviving_graph_is_the_induced_subgraph(prune_fn, seed, alpha):
    faulty = random_node_faults(torus(10, 2), 0.15, seed=seed).surviving
    res = prune_fn(faulty, alpha, 0.5)
    expected = res.input_graph.subgraph(res.surviving_local)
    h = res.surviving_graph
    for attr in ("indptr", "indices", "original_ids"):
        assert np.array_equal(getattr(h, attr), getattr(expected, attr))
    assert h.name == expected.name
