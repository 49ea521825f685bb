"""Session semantics: caching, streaming, resumability, determinism."""

import dataclasses

import pytest

import repro.api.engine as engine
from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, RunResult, ScenarioSpec
from repro.api.store import ResultStore
from repro.api.sweeps import Axis, SweepSpec, run_sweep
from repro.errors import SpecError
from repro.testing import scalar_sweep
from repro.storage.log import RecordLog
from repro.util.locking import FileLock


def sweep(n=24, p_values=(0.05, 0.08, 0.1)):
    return [
        ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 8, "d": 2}),
            fault=FaultSpec("random_node", {"p": p_values[s % len(p_values)]}),
            analysis=AnalysisSpec(),
            seed=s,
        )
        for s in range(n)
    ]


def stacked_sweep():
    """2 points × 4 trials of γ on one graph: one stacked kernel call."""
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 8, "d": 2}),
            fault=FaultSpec("random_node", {"p": 0.1}),
            analysis=AnalysisSpec(pruner=None, measure_expansion=False),
        ),
        axes=(Axis("fault.params.p", (0.1, 0.4)),),
        trials=4,
        seed=7,
        metrics=("gamma",),
    )


GRAPH = GraphSpec("torus", {"sides": 8, "d": 2})


def prune_sweep(measure_expansion=True):
    """:func:`stacked_sweep` with Prune on: the scalar engine runs it."""
    sweep = stacked_sweep()
    analysis = AnalysisSpec(pruner="prune", measure_expansion=measure_expansion)
    return dataclasses.replace(sweep, base=dataclasses.replace(sweep.base, analysis=analysis))


def _forbid_execution(monkeypatch):
    """Any engine execution after this call is a test failure."""

    def boom(*args, **kwargs):  # pragma: no cover - failing path
        raise AssertionError("engine executed during a warm run")

    monkeypatch.setattr(engine, "run", boom)
    monkeypatch.setattr(engine, "_run_task", boom)
    monkeypatch.setattr(engine, "_baseline_task", boom)
    monkeypatch.setattr(engine, "baseline_expansion", boom)


class TestCaching:
    def test_warm_batch_executes_nothing(self, tmp_path, monkeypatch):
        """Acceptance: a repeated >=20-scenario batch re-executes zero
        scenarios — no engine calls at all, baseline phase included."""
        specs = sweep(24)
        cold = Session(tmp_path / "store").run_batch(specs)
        _forbid_execution(monkeypatch)
        warm_session = Session(tmp_path / "store")
        warm = warm_session.run_batch(specs)
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]
        assert warm_session.hits == 24
        assert warm_session.misses == 0

    def test_cached_equals_fresh(self, tmp_path):
        specs = sweep(6)
        cold = Session(tmp_path / "s").run_batch(specs)
        warm = Session(tmp_path / "s").run_batch(specs)
        fresh = Session().run_batch(specs)  # storeless control
        assert [r.fingerprint() for r in cold] == [r.fingerprint() for r in warm]
        assert [r.fingerprint() for r in cold] == [r.fingerprint() for r in fresh]

    def test_partial_overlap_executes_only_new(self, tmp_path):
        Session(tmp_path / "s").run_batch(sweep(4))
        session = Session(tmp_path / "s")
        session.run_batch(sweep(10))
        assert session.hits == 4
        assert session.misses == 6

    def test_single_run_uses_store(self, tmp_path, monkeypatch):
        spec = sweep(1)[0]
        Session(tmp_path / "s").run(spec)
        _forbid_execution(monkeypatch)
        session = Session(tmp_path / "s")
        assert session.run(spec).spec == spec
        assert session.hits == 1

    def test_refresh_recomputes(self, tmp_path):
        spec = sweep(1)[0]
        first = Session(tmp_path / "s").run(spec)
        session = Session(tmp_path / "s", refresh=True)
        again = session.run(spec)
        assert session.misses == 1  # refresh never reads the store...
        assert again.fingerprint() == first.fingerprint()  # ...and reproduces

    def test_storeless_session_always_computes(self):
        session = Session()
        session.run_batch(sweep(4))
        session.run_batch(sweep(4))
        assert session.hits == 0
        assert session.misses == 8

    def test_accepts_open_store_instance(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        Session(store).run_batch(sweep(3))
        assert len(store) == 3

    def test_baseline_reused_from_store(self, tmp_path, monkeypatch):
        Session(tmp_path / "s").run_batch(sweep(4))
        # New scenario, same graph: the baseline *phase* must be a store
        # read, not a recomputation (the run itself still executes).
        def boom(*a, **k):  # pragma: no cover - failing path
            raise AssertionError("baseline recomputed despite store")

        monkeypatch.setattr(engine, "_baseline_task", boom)
        session = Session(tmp_path / "s")
        session.run_batch(sweep(5))  # seed 4 is new
        assert session.misses == 1

    @staticmethod
    def _count_probes(monkeypatch):
        probes = []
        real = ResultStore.get_baseline

        def counting(store, key):
            probes.append(key)
            return real(store, key)

        monkeypatch.setattr(ResultStore, "get_baseline", counting)
        return probes

    def test_cold_gamma_sweep_never_probes_the_baseline_store(
        self, tmp_path, monkeypatch
    ):
        """γ reads no baseline, so a cold γ sweep never asks the store
        for one."""
        probes = self._count_probes(monkeypatch)
        run_sweep(stacked_sweep(), session=Session(tmp_path / "s"))
        assert probes == []

    def test_cold_prune_sweep_probes_the_store_once_per_baseline_key(
        self, tmp_path, monkeypatch
    ):
        """Eight missing Prune trials on one graph share one baseline key,
        so the store's baseline index is read once, not once per trial."""
        probes = self._count_probes(monkeypatch)
        run_sweep(prune_sweep(), session=Session(tmp_path / "s"))
        assert len(probes) == 1


class TestBaselines:
    """The fault-free estimate α(G) is resolved only for analyses that
    read it (a pruner, or a survivor expansion), once per graph."""

    @staticmethod
    def _spy(monkeypatch):
        """The graphs ``repro.api.engine.baseline_expansion`` estimates."""
        graphs = []
        real = engine.baseline_expansion

        def spy(graph, *args, **kwargs):
            graphs.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(engine, "baseline_expansion", spy)
        return graphs

    def test_batched_gamma_sweep_makes_no_estimate(self, monkeypatch):
        graphs = self._spy(monkeypatch)
        result = run_sweep(stacked_sweep(), Session(), keep_results=True)
        assert graphs == []
        assert {r.baseline_expansion for p in result.points for r in p.results} == {None}

    def test_scalar_gamma_sweep_makes_no_estimate(self, monkeypatch):
        graphs = self._spy(monkeypatch)
        scalar = scalar_sweep(stacked_sweep())
        assert graphs == []
        assert scalar.fingerprint() == run_sweep(stacked_sweep(), Session()).fingerprint()

    def test_prune_sweep_makes_one_estimate_per_graph(self, monkeypatch):
        # no survivor measurement, so every estimate is a fault-free one
        graphs = self._spy(monkeypatch)
        result = run_sweep(
            prune_sweep(measure_expansion=False), Session(), keep_results=True
        )
        assert [g.n for g in graphs] == [64]
        alphas = {r.baseline_expansion for p in result.points for r in p.results}
        assert len(alphas) == 1 and None not in alphas

    def test_second_call_is_served_from_memory(self, tmp_path, monkeypatch):
        probes = TestCaching._count_probes(monkeypatch)
        graphs = self._spy(monkeypatch)
        session = Session(tmp_path / "s")
        first = session.baseline(GRAPH)
        assert (len(probes), len(graphs)) == (1, 1)
        assert session.baseline(GRAPH) is first
        assert (len(probes), len(graphs)) == (1, 1)

    def test_fresh_session_serves_it_from_the_store(self, tmp_path, monkeypatch):
        first = Session(tmp_path / "s").baseline(GRAPH, "edge")
        _forbid_execution(monkeypatch)
        again = Session(tmp_path / "s").baseline(GRAPH, "edge")
        assert (again.value, again.exact, again.method) == (
            first.value, first.exact, first.method
        )

    @pytest.mark.parametrize("mode, pruner", [("node", "prune"), ("edge", "prune2")])
    def test_equals_the_estimate_a_prune_batch_reads(self, mode, pruner):
        spec = ScenarioSpec(
            graph=GRAPH,
            fault=FaultSpec("random_node", {"p": 0.1}),
            analysis=AnalysisSpec(mode=mode, pruner=pruner),
            seed=1,
        )
        (result,) = engine.run_batch([spec])
        assert Session().baseline(GRAPH, mode).value == result.baseline_expansion

    def test_alpha_metrics_skip_results_without_alpha(self):
        sweep = dataclasses.replace(
            stacked_sweep(), metrics=("gamma", "baseline_expansion", "prune2_success")
        )
        for point in run_sweep(sweep, Session()).points:
            assert point.stats["gamma"].n == 4
            for metric in ("baseline_expansion", "prune2_success"):
                assert (point.stats[metric].n, point.stats[metric].n_skipped) == (0, 4)


class TestDeterminism:
    def test_workers_1_vs_n_identical_fingerprints(self, tmp_path):
        specs = sweep(12)
        serial = Session(tmp_path / "a", workers=1).run_batch(specs)
        parallel = Session(tmp_path / "b", workers=4).run_batch(specs)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    def test_parallel_cold_then_serial_warm(self, tmp_path):
        specs = sweep(12)
        cold = Session(tmp_path / "s", workers=4).run_batch(specs)
        warm_session = Session(tmp_path / "s", workers=1)
        warm = warm_session.run_batch(specs)
        assert warm_session.hits == 12
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]

    def test_order_preserved(self, tmp_path):
        specs = [sweep(8)[i] for i in (5, 2, 7, 0)]
        results = Session(tmp_path / "s", workers=2).run_batch(specs)
        assert [r.seed for r in results] == [5, 2, 7, 0]


class TestRunIter:
    def test_streams_incrementally_and_persists_before_yield(self, tmp_path):
        specs = sweep(6)
        session = Session(tmp_path / "s")
        stream = session.run_iter(specs)
        first = next(stream)
        assert first.seed == 0
        # The first result is on disk while five scenarios are still pending.
        assert ResultStore(tmp_path / "s").stats().results == 1
        assert [r.seed for r in stream] == [1, 2, 3, 4, 5]

    def test_interrupted_iter_resumes_from_store(self, tmp_path, monkeypatch):
        specs = sweep(8)
        session = Session(tmp_path / "s")
        stream = session.run_iter(specs)
        for _ in range(3):
            next(stream)
        stream.close()  # interrupt: 5 scenarios never ran
        calls = []
        real = engine._run_task

        def counting(payload):
            calls.append(payload[0].seed)
            return real(payload)

        monkeypatch.setattr(engine, "_run_task", counting)
        resumed = Session(tmp_path / "s")
        results = resumed.run_batch(specs)
        assert resumed.hits == 3
        assert sorted(calls) == [3, 4, 5, 6, 7]  # only the lost tail re-ran
        assert [r.seed for r in results] == list(range(8))

    def test_fully_cached_iter_yields_everything(self, tmp_path, monkeypatch):
        specs = sweep(5)
        Session(tmp_path / "s").run_batch(specs)
        _forbid_execution(monkeypatch)
        results = list(Session(tmp_path / "s").run_iter(specs))
        assert [r.seed for r in results] == [0, 1, 2, 3, 4]

    def test_validates_eagerly(self, tmp_path):
        session = Session(tmp_path / "s")
        with pytest.raises(SpecError):
            session.run_iter([sweep(1)[0], "nope"])  # no iteration needed


class TestWarmHitCost:
    def test_a_hit_rebuilds_no_spec_and_encodes_no_record(self, tmp_path, monkeypatch):
        """A fully warm 2-point × 8-trial stacked sweep hashes each trial
        spec once (its lookup key), builds only the grid's point specs,
        and fingerprints every result from the bytes it read."""
        grid = dataclasses.replace(stacked_sweep(), trials=8)
        cold = run_sweep(grid, session=Session(tmp_path / "s"))
        calls = {"hash": 0, "from_dict": 0, "fingerprint_and_text": 0}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ScenarioSpec, "hash", spy("hash", ScenarioSpec.hash))
        monkeypatch.setattr(
            ScenarioSpec,
            "from_dict",
            classmethod(spy("from_dict", ScenarioSpec.from_dict.__func__)),
        )
        monkeypatch.setattr(
            RunResult,
            "fingerprint_and_text",
            spy("fingerprint_and_text", RunResult.fingerprint_and_text),
        )
        _forbid_execution(monkeypatch)
        session = Session(ResultStore(tmp_path / "s"))
        warm = run_sweep(grid, session=session)
        assert (session.hits, session.misses) == (16, 0)
        assert warm.fingerprint() == cold.fingerprint()
        assert calls == {"hash": 16, "from_dict": 2, "fingerprint_and_text": 0}


class TestWriteGranularity:
    def test_stack_is_one_append_to_one_log(self, tmp_path, monkeypatch):
        """A stacked sweep's records reach the results log in one append:
        one lock, one epoch read and one segment file, not one each."""
        sweep_spec = stacked_sweep()
        store = ResultStore(tmp_path / "s")
        locked = []
        real_acquire = FileLock.acquire

        def acquire(lock):
            if not lock.held:
                locked.append(lock.path)
            real_acquire(lock)

        calls = []
        real = RecordLog.append_many

        def counting(log, items):
            items = list(items)
            before = len(locked)
            out = real(log, items)
            calls.append((log.path.name, len(items), locked[before:]))
            return out

        monkeypatch.setattr(FileLock, "acquire", acquire)
        monkeypatch.setattr(RecordLog, "append_many", counting)
        result = run_sweep(sweep_spec, session=Session(store))
        results_dir = tmp_path / "s" / "results"
        assert [c for c in calls if c[0] == "results"] == [
            ("results", 8, [results_dir / ".lock"])
        ]
        assert store.segment_files("results") == [results_dir / "seg-000000.jsonl"]
        assert result.fingerprint() == run_sweep(sweep_spec).fingerprint()

    def test_serve_stores_a_whole_batch_before_its_first_yield(self, tmp_path):
        specs = sweep(4)
        results = {spec: engine.run(spec) for spec in specs}
        computed = []

        def two_batches(missing, _slots):
            for half in (missing[:2], missing[2:]):
                computed.append(len(half))
                yield [(missing.index(spec), results[spec]) for spec in half]

        session = Session(tmp_path / "s")
        stream = session._serve(specs, two_batches)
        assert next(stream).seed == 0
        assert computed == [2]
        on_disk = ResultStore(tmp_path / "s")
        assert len(on_disk) == 2
        assert on_disk.get_result(specs[1]) == results[specs[1]]
        assert [r.seed for r in stream] == [1, 2, 3]
        assert len(ResultStore(tmp_path / "s")) == 4


class TestResumeAfterPartialWrite:
    def test_truncated_store_recomputes_only_lost_entries(self, tmp_path):
        specs = sweep(8)
        reference = Session(tmp_path / "s").run_batch(specs)
        store = ResultStore(tmp_path / "s")
        # Simulate a crash mid-append: truncate the results log half-way
        # through specs[5]'s line — it and every later entry are lost,
        # everything else stays warm.
        key = specs[5].hash()
        log = store.engine.log("results")
        entry = log.entry(key)
        lost = {k for k in log.keys() if log.entry(k).off >= entry.off}
        seg = store.engine.locate("results", key)[0]
        with open(seg, "r+b") as fh:
            fh.truncate(entry.off + 60)
        session = Session(tmp_path / "s")
        resumed = session.run_batch(specs)
        assert session.hits == 8 - len(lost)
        assert session.misses == len(lost)
        assert [r.fingerprint() for r in resumed] == [
            r.fingerprint() for r in reference
        ]
        # The store healed: next run is fully warm.
        follow_up = Session(tmp_path / "s")
        follow_up.run_batch(specs)
        assert follow_up.hits == 8


class TestEngineWrappers:
    def test_run_batch_store_param(self, tmp_path, monkeypatch):
        specs = sweep(21)
        cold = engine.run_batch(specs, store=tmp_path / "s")
        _forbid_execution(monkeypatch)
        warm = engine.run_batch(specs, store=tmp_path / "s")
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]

    def test_run_batch_without_store_unchanged(self):
        specs = sweep(4)
        a = engine.run_batch(specs)
        b = engine.run_batch(specs)
        assert [r.fingerprint() for r in a] == [r.fingerprint() for r in b]
