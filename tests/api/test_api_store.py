"""ResultStore behaviour: round-trips, corruption tolerance, maintenance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.engine import run
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.store import ResultStore, baseline_key
from repro.expansion.estimate import ExpansionEstimate


def torus_spec(seed=3, p=0.1):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": p}),
        analysis=AnalysisSpec(),
        seed=seed,
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestResultRoundTrip:
    def test_miss_then_hit(self, store):
        spec = torus_spec()
        assert store.get_result(spec) is None
        result = run(spec)
        store.put_result(result)
        assert spec in store
        cached = store.get_result(spec)
        assert cached == result
        assert cached.fingerprint() == result.fingerprint()

    def test_persists_across_instances(self, store):
        result = run(torus_spec())
        store.put_result(result)
        reopened = ResultStore(store.path)
        assert reopened.get_result(torus_spec()) == result
        assert len(reopened) == 1

    def test_different_seed_is_different_key(self, store):
        store.put_result(run(torus_spec(seed=1)))
        assert store.get_result(torus_spec(seed=2)) is None

    def test_last_entry_wins_and_counts_superseded(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)
        assert store.stats().superseded == 1  # counted at write time...
        reopened = ResultStore(store.path)
        assert len(reopened) == 1
        assert reopened.stats().superseded == 1  # ...and again at load time

    def test_same_instance_duplicates_counted_by_prune(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)
        assert store.prune() == {"kept": 1, "dropped": 1}


class TestOlderLayout:
    def test_root_jsonl_files_open_cold_and_stay_on_disk(self, tmp_path):
        """The store is a cache: a directory in the single-file layout of
        early stores (root results/baselines/tables JSONL) opens as an
        empty store, and those files are neither read nor removed."""
        path = tmp_path / "store"
        path.mkdir()
        result = run(torus_spec())
        record = {
            "key": result.spec.hash(),
            "seed": result.seed,
            "label": result.label,
            "fingerprint": result.fingerprint(),
            "result": result.to_dict(),
        }
        files = {
            "results.jsonl": json.dumps(record, sort_keys=True) + "\n",
            "baselines.jsonl": json.dumps({"key": "g:node:14"}) + "\n",
            "tables.jsonl": json.dumps({"key": "t", "payload": {}}) + "\n",
        }
        for name, text in files.items():
            (path / name).write_text(text)
        store = ResultStore(path)
        assert len(store) == 0
        assert store.get_result(torus_spec()) is None
        assert store.get_table("t") is None
        stats = store.stats()
        assert (stats.results, stats.baselines, stats.tables) == (0, 0, 0)
        for name, text in files.items():
            assert (path / name).read_text() == text


class TestBaselineRoundTrip:
    def test_baseline_round_trip(self, store):
        spec = torus_spec()
        key = baseline_key(spec)
        assert store.get_baseline(key) is None
        from repro.api.engine import _baseline_task

        estimate = _baseline_task(spec)
        store.put_baseline(key, estimate)
        restored = ResultStore(store.path).get_baseline(key)
        assert isinstance(restored, ExpansionEstimate)
        assert restored.value == estimate.value
        assert restored.exact == estimate.exact
        assert list(restored.witness) == list(estimate.witness)


class TestCorruptionTolerance:
    def _fill(self, store, n=4):
        results = [run(torus_spec(seed=s)) for s in range(n)]
        for r in results:
            store.put_result(r)
        return results

    def test_garbage_lines_skipped(self, store):
        results = self._fill(store)
        seg = store.engine.locate("results", results[0].spec.hash())[0]
        with open(seg, "a") as fh:
            fh.write("not json at all\n")
            fh.write('[1, 2, 3]\n')
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results)
        assert reopened.stats().corrupt == 2
        for r in results:
            assert reopened.get_result(r.spec) == r

    def test_parseable_but_bogus_record_dropped_by_compaction(self, store):
        """A line that parses (dict + string key) but holds no usable result
        survives the shallow index scan; compaction's verify pass — the one
        eager integrity sweep — physically drops it."""
        results = self._fill(store)
        store.engine.append_raw(
            "results", "bogus-key", b'{"key": "bogus-key"}\n'
        )
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results) + 1  # shallow count
        counts = reopened.compact(force=True)
        assert counts["corrupt"] == 1
        assert len(reopened) == len(results)
        for r in results:
            assert reopened.get_result(r.spec) == r

    def test_truncated_final_line_tolerated(self, store):
        results = self._fill(store)
        # Truncate mid-way through seed=3's line; every later entry in the
        # same shard segment is collateral damage, everything else survives.
        key = torus_spec(seed=3).hash()
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
            fh.truncate(entry.off + 50)
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results) - len(lost)
        assert reopened.get_result(torus_spec(seed=3)) is None
        for s in range(3):
            present = reopened.get_result(torus_spec(seed=s)) is not None
            assert present == (torus_spec(seed=s).hash() not in lost)
        assert reopened.corrupt_entries == 1

    def _rewrite_record(self, store, key, mutate):
        """Tamper with the single record for ``key`` in place (and drop the
        sidecar index so the shard rebuilds from the tampered segment)."""
        seg, _entry = store.engine.locate("results", key)
        record = json.loads(seg.read_text())
        mutate(record)
        seg.write_text(json.dumps(record) + "\n")
        (seg.parent / "index.log").unlink()

    def test_tampered_value_rejected_by_fingerprint(self, store):
        (result,) = self._fill(store, n=1)

        def tamper(record):
            record["result"]["n_surviving"] = 1  # silently wrong payload

        self._rewrite_record(store, result.spec.hash(), tamper)
        reopened = ResultStore(store.path)
        assert reopened.get_result(torus_spec(seed=0)) is None
        assert reopened.corrupt_entries == 1

    def test_wrong_key_rejected(self, store):
        (result,) = self._fill(store, n=1)

        def tamper(record):
            record["key"] = "0" * 16

        self._rewrite_record(store, result.spec.hash(), tamper)
        reopened = ResultStore(store.path)
        # Verification is lazy: the mis-keyed line occupies an index slot
        # until compaction's verify pass removes it, but it is never served.
        assert reopened.get_result(torus_spec(seed=0)) is None
        reopened.compact(force=True)
        assert len(reopened) == 0

    def test_corrupt_baseline_lines_skipped(self, store):
        shard = store.engine.shard_for("baselines", "x:node:14")
        seg = shard.path / "seg-000000.jsonl"
        seg.write_text(
            '{"key": "x:node:14", "estimate": {"bad": true}}\n' "garbage\n"
        )
        assert store.get_baseline(("x", "node", 14)) is None
        assert store.corrupt_entries == 2


class TestMaintenance:
    def test_stats(self, store):
        store.put_result(run(torus_spec()))
        stats = store.stats()
        assert stats.results == 1
        assert stats.baselines == 0
        assert stats.bytes > 0
        assert stats.to_dict()["path"] == str(store.path)

    def test_clear(self, store):
        store.put_result(run(torus_spec()))
        store.clear()
        assert len(store) == 0
        assert store.segment_files("results") == []

    def test_prune_compacts_corrupt_and_duplicates(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)  # superseded duplicate
        seg = store.engine.locate("results", result.spec.hash())[0]
        with open(seg, "a") as fh:
            fh.write("garbage\n")
        reopened = ResultStore(store.path)
        counts = reopened.prune()
        # one superseded duplicate + one corrupt line physically removed
        assert counts == {"kept": 1, "dropped": 2}
        lines = [
            line
            for f in reopened.segment_files("results")
            for line in f.read_text().strip().splitlines()
        ]
        assert len(lines) == 1  # one clean line survives compaction
        assert ResultStore(store.path).get_result(torus_spec()) == result

    def test_prune_preserves_baselines(self, store):
        from repro.api.engine import _baseline_task

        spec = torus_spec()
        store.put_baseline(baseline_key(spec), _baseline_task(spec))
        store.prune()
        assert store.get_baseline(baseline_key(spec)) is not None


class TestCrossProcessStability:
    def test_fingerprint_stable_across_processes(self, store):
        """A stored result's fingerprint equals a fresh computation's in a
        brand-new interpreter — the cache-key soundness contract."""
        spec = torus_spec(seed=11)
        result = run(spec)
        store.put_result(result)
        code = (
            "import sys\n"
            "from repro.api.engine import run\n"
            "from repro.api.specs import ScenarioSpec\n"
            "from repro.api.store import ResultStore\n"
            "spec = ScenarioSpec.from_json(sys.argv[1])\n"
            "store = ResultStore(sys.argv[2])\n"
            "print(store.get_result(spec).fingerprint())\n"
            "print(run(spec).fingerprint())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", code, spec.to_json(), str(store.path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        stored_fp, fresh_fp = proc.stdout.split()
        assert stored_fp == result.fingerprint()
        assert fresh_fp == result.fingerprint()


class TestWriteSafety:
    """Advisory locking, fsync and crash-tail recovery (the service's
    concurrent-store contract)."""

    def test_lock_file_created_and_optional(self, tmp_path):
        locked = ResultStore(tmp_path / "locked")
        locked.put_table("k", {"v": 1})
        assert locked.lock is not None
        # Appends lock per shard now: the written shard has a lock file.
        shard = locked.engine.shard_for("tables", "k")
        assert (shard.path / ".lock").exists()
        unlocked = ResultStore(tmp_path / "unlocked", lock=False)
        unlocked.put_table("k", {"v": 1})
        assert unlocked.lock is None
        assert not list(unlocked.path.rglob(".lock"))

    def test_lock_is_reentrant_through_prune(self, store):
        """prune() holds the lock while calling put_result (which locks
        again) — reentrancy means no self-deadlock."""
        store.put_result(run(torus_spec()))
        store.put_result(run(torus_spec()))
        assert store.prune() == {"kept": 1, "dropped": 1}
        assert not store.lock.held  # fully released afterwards

    def test_maintenance_blocks_until_writer_releases(self, store):
        """stats/prune/clear are safe while a writer holds the lock: the
        read-only stats tolerates the in-flight state, and prune/clear wait
        for the lock instead of racing the writer."""
        import threading

        store.put_table("warm", {"v": 1})
        other = ResultStore(store.path)
        release = threading.Event()
        entered = threading.Event()

        def hold():
            with other.lock:
                entered.set()
                release.wait(5.0)

        t = threading.Thread(target=hold)
        t.start()
        entered.wait(5.0)
        assert store.stats().tables == 1  # read path never blocks
        pruned = {}

        def prune():
            pruned["counts"] = store.prune()

        p = threading.Thread(target=prune)
        p.start()
        p.join(0.2)
        assert p.is_alive()  # prune is parked behind the writer's lock
        release.set()
        p.join(5.0)
        t.join(5.0)
        assert pruned["counts"]["kept"] == 0  # tables aren't results
        assert ResultStore(store.path).stats().tables == 1

    def test_fsync_append_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "durable", fsync=True)
        result = run(torus_spec())
        store.put_result(result)
        assert ResultStore(store.path).get_result(torus_spec()) == result

    def test_partial_tail_truncated_on_next_open(self, store):
        """A crash-truncated final line is tolerated on load and physically
        truncated, leaving the file all complete lines again."""
        results = [run(torus_spec(seed=s)) for s in range(3)]
        for r in results:
            store.put_result(r)
        seg = store.engine.locate("results", results[0].spec.hash())[0]
        raw = seg.read_text()
        with open(seg, "a") as fh:
            fh.write('{"key": "half-writ')  # no newline: simulated crash
        reopened = ResultStore(store.path)
        assert len(reopened) == 3
        assert reopened.corrupt_entries == 1
        healed = seg.read_text()
        assert healed == raw  # the fragment is physically gone
        assert healed.endswith("\n")

    def test_partial_tail_never_swallows_next_append(self, store):
        store.put_result(run(torus_spec(seed=0)))
        key0 = torus_spec(seed=0).hash()
        shard0 = store.engine.shard_for("results", key0)
        # A second spec landing in the *same* shard, so its append follows
        # the crash fragment.
        seed1 = next(
            s
            for s in range(1, 64)
            if store.engine.shard_for("results", torus_spec(seed=s).hash())
            is shard0
        )
        seg = store.engine.locate("results", key0)[0]
        with open(seg, "a") as fh:
            fh.write('{"key": "half-writ')  # no newline: simulated crash
        reopened = ResultStore(store.path)
        reopened.put_result(run(torus_spec(seed=seed1)))
        fresh = ResultStore(store.path)
        assert len(fresh) == 2
        assert fresh.stats().corrupt == 0  # fragment was truncated, not kept

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """N processes hammering one store produce only complete lines —
        the advisory-lock guarantee the service's worker pool relies on."""
        store_dir = tmp_path / "shared"
        ResultStore(store_dir)  # create the directory
        code = (
            "import sys\n"
            "from repro.api.store import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "who = sys.argv[2]\n"
            "pad = 'x' * 4096\n"
            "for i in range(40):\n"
            "    store.put_table(f'{who}:{i}', {'who': who, 'i': i, 'pad': pad})\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(store_dir), f"w{k}"],
                env=env,
            )
            for k in range(4)
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        store = ResultStore(store_dir)
        stats = store.stats()
        assert stats.tables == 4 * 40
        assert stats.corrupt == 0
        for k in range(4):
            for i in range(40):
                assert store.get_table(f"w{k}:{i}")["i"] == i
