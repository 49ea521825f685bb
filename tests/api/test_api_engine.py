"""Engine tests: resolution, execution semantics, determinism, batching."""

import numpy as np
import pytest

from repro.api.engine import (
    apply_fault_spec,
    resolve_finder,
    resolve_graph,
    run,
    run_batch,
)
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, RunResult, ScenarioSpec
from repro.errors import SpecError, UnknownComponentError
from repro.pruning.cutfinder import HybridCutFinder, SweepCutFinder


def torus_spec(p=0.1, seed=3, **analysis):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": p}),
        analysis=AnalysisSpec(**analysis),
        seed=seed,
    )


class TestResolveGraph:
    def test_plain_generator(self):
        graph, raw = resolve_graph(GraphSpec("torus", {"sides": 6, "d": 2}))
        assert graph.n == 36
        assert raw is graph

    def test_nested_graph_spec(self):
        spec = GraphSpec(
            "chain_replacement",
            {"base": GraphSpec("expander", {"n": 16, "degree": 4, "seed": 0}), "k": 4},
        )
        graph, raw = resolve_graph(spec)
        assert graph.n > 16
        assert hasattr(raw, "center_nodes")  # ChainReplacement bookkeeping survives

    def test_unknown_generator(self):
        with pytest.raises(UnknownComponentError):
            resolve_graph(GraphSpec("nope", {}))

    def test_bad_param_name_is_spec_error(self):
        with pytest.raises(SpecError, match="torus"):
            resolve_graph(GraphSpec("torus", {"size": 4}))

    def test_graph_identity_is_spec_content(self):
        spec = GraphSpec("expander", {"n": 32, "degree": 4, "seed": 11})
        g1, _ = resolve_graph(spec)
        g2, _ = resolve_graph(spec)
        assert g1 == g2  # same seed param → same graph, independent of run seed

    def test_unseeded_stochastic_generator_rejected(self):
        # Without an explicit seed the baseline phase and the run phase would
        # silently resolve two different random graphs for one spec hash.
        with pytest.raises(SpecError, match="seed"):
            resolve_graph(GraphSpec("gnm_random", {"n": 40, "m": 60}))
        with pytest.raises(SpecError, match="seed"):
            run_batch(
                [
                    ScenarioSpec(
                        graph=GraphSpec("expander", {"n": 32, "degree": 4}),
                        fault=FaultSpec("random_node", {"p": 0.1}),
                        seed=s,
                    )
                    for s in range(4)
                ]
            )


class TestApplyFaultSpec:
    def test_none_is_fault_free(self, small_torus):
        scenario = apply_fault_spec(small_torus, None)
        assert scenario.f == 0
        assert scenario.kind == "none"

    def test_seed_threading_deterministic(self, small_torus):
        a = apply_fault_spec(small_torus, FaultSpec("random_node", {"p": 0.2}), seed=5)
        b = apply_fault_spec(small_torus, FaultSpec("random_node", {"p": 0.2}), seed=5)
        assert np.array_equal(a.faulty_nodes, b.faulty_nodes)

    def test_explicit_param_seed_wins(self, small_torus):
        fault = FaultSpec("random_node", {"p": 0.2, "seed": 9})
        a = apply_fault_spec(small_torus, fault, seed=1)
        b = apply_fault_spec(small_torus, fault, seed=2)
        assert np.array_equal(a.faulty_nodes, b.faulty_nodes)

    def test_raw_mode_model(self):
        spec = GraphSpec(
            "chain_replacement",
            {"base": GraphSpec("expander", {"n": 16, "degree": 4, "seed": 0}), "k": 4},
        )
        graph, raw = resolve_graph(spec)
        scenario = apply_fault_spec(graph, FaultSpec("chain_center", {}), raw=raw)
        assert scenario.f == raw.center_nodes.shape[0]


class TestResolveFinder:
    def test_none_means_default(self):
        assert resolve_finder(None) is None

    def test_named_finders(self):
        assert isinstance(resolve_finder("hybrid"), HybridCutFinder)
        sweep = resolve_finder("sweep", {"refine": False})
        assert isinstance(sweep, SweepCutFinder)

    def test_unknown_finder(self):
        with pytest.raises(SpecError, match="unknown finder"):
            resolve_finder("magic")

    def test_bad_finder_params_is_spec_error(self):
        with pytest.raises(SpecError, match="sweep"):
            resolve_finder("sweep", {"polish": True})

    def test_bad_fault_param_is_spec_error(self, small_torus):
        with pytest.raises(SpecError, match="random_node"):
            apply_fault_spec(small_torus, FaultSpec("random_node", {"prob": 0.1}))


class TestRun:
    def test_end_to_end_result_shape(self):
        res = run(torus_spec())
        assert isinstance(res, RunResult)
        assert res.n_original == 64
        assert 0 < res.n_surviving <= 64
        assert res.baseline_expansion > 0
        assert res.spec_hash == torus_spec().hash()

    def test_result_round_trips_through_json(self):
        res = run(torus_spec())
        restored = RunResult.from_json(res.to_json())
        assert restored == res
        assert restored.fingerprint() == res.fingerprint()

    def test_identical_spec_seed_identical_result(self):
        a, b = run(torus_spec(seed=7)), run(torus_spec(seed=7))
        assert a.fingerprint() == b.fingerprint()
        assert a == b

    def test_different_seed_different_faults(self):
        a, b = run(torus_spec(p=0.3, seed=1)), run(torus_spec(p=0.3, seed=2))
        assert a.spec_hash != b.spec_hash
        assert a.fault_kind == b.fault_kind

    def test_pruner_none_keeps_faulty_network(self):
        res = run(torus_spec(p=0.2, pruner=None))
        assert res.n_surviving == res.n_original - res.f
        assert res.prune_iterations == 0
        assert res.n_culled_sets == 0

    def test_measure_expansion_off(self):
        res = run(torus_spec(measure_expansion=False))
        assert res.surviving_expansion is None
        assert res.expansion_retention is None

    def test_surviving_nodes_are_original_ids(self):
        res = run(torus_spec(p=0.2, seed=4))
        graph, _ = resolve_graph(torus_spec().graph)
        h = graph.subgraph(np.asarray(res.surviving_nodes, dtype=np.int64))
        assert h.n == res.n_surviving

    def test_matches_analyzer_facade(self, small_torus):
        """The declarative path and the imperative facade agree exactly."""
        from repro.core import FaultExpansionAnalyzer

        res = run(torus_spec(p=0.1, seed=12))
        report = FaultExpansionAnalyzer(small_torus).random_faults(0.1, seed=12)
        assert res.n_surviving == report.n_surviving
        assert res.baseline_expansion == report.baseline_expansion.value
        assert res.surviving_expansion == pytest.approx(
            report.surviving_expansion.value
        )

    def test_edge_mode_prune2(self):
        res = run(torus_spec(mode="edge", pruner="prune2"))
        assert res.mode == "edge"
        assert res.epsilon == pytest.approx(1.0 / 8.0)  # 1/(2δ), δ=4

    def test_rejects_non_spec(self):
        with pytest.raises(SpecError):
            run({"graph": {"generator": "torus"}})


class TestRunBatch:
    def _sweep_specs(self, n=24):
        return [torus_spec(p=0.05 + 0.01 * (s % 4), seed=s) for s in range(n)]

    def test_serial_and_parallel_agree(self):
        specs = self._sweep_specs()
        serial = run_batch(specs, workers=1)
        parallel = run_batch(specs, workers=4)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    def test_determinism_across_invocations(self):
        specs = self._sweep_specs(8)
        a = run_batch(specs, workers=2)
        b = run_batch(specs, workers=2)
        assert [r.fingerprint() for r in a] == [r.fingerprint() for r in b]

    def test_baseline_deduplicated(self):
        # All 24 scenarios share a graph spec: the batch baseline phase must
        # reduce to a single estimate; every result reports the same value.
        results = run_batch(self._sweep_specs(), workers=1)
        assert len({r.baseline_expansion for r in results}) == 1

    def test_order_preserved(self):
        specs = [torus_spec(seed=s) for s in (5, 3, 9)]
        results = run_batch(specs, workers=2)
        assert [r.seed for r in results] == [5, 3, 9]

    def test_baseline_cache_carries_across_batches(self):
        cache = {}
        run_batch([torus_spec(seed=1)], workers=1, baseline_cache=cache)
        assert len(cache) == 1
        (estimate,) = cache.values()
        run_batch([torus_spec(seed=s) for s in range(3)], workers=1,
                  baseline_cache=cache)
        assert len(cache) == 1  # no new keys: second batch reused the estimate
        assert next(iter(cache.values())) is estimate

    def test_rejects_non_specs(self):
        with pytest.raises(SpecError):
            run_batch([torus_spec(), "not a spec"])
