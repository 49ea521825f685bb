"""Session semantics: caching, streaming, resumability, determinism."""

import pytest

import repro.api.engine as engine
from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.store import ResultStore
from repro.errors import SpecError


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


class TestResumeAfterPartialWrite:
    def test_truncated_store_recomputes_only_lost_entries(self, tmp_path):
        specs = sweep(8)
        reference = Session(tmp_path / "s").run_batch(specs)
        store = ResultStore(tmp_path / "s")
        # Simulate a crash mid-append: truncate the shard segment holding
        # specs[5] half-way through that record — it and every later entry
        # in the same segment are lost, everything else stays warm.
        key = specs[5].hash()
        shard = store.engine.shard_for("results", key)
        entry = shard.entry(key)
        lost = {
            k
            for k in shard.keys()
            if shard.entry(k).seg == entry.seg
            and shard.entry(k).off >= entry.off
        }
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
