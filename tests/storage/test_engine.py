"""Engine-level behaviour: one log per kind, policies, counters, layout,
append times, and the multi-process append race the log locks exist for."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.storage import StorageEngine
from repro.storage.engine import AUTO_COMPACT_MIN_LINES, KINDS


@pytest.fixture
def engine(tmp_path):
    return StorageEngine(tmp_path / "store")


class TestRouting:
    def test_round_trip_all_kinds(self, engine):
        for kind in ("results", "baselines", "tables"):
            engine.append(kind, "k", {"key": "k", "kind": kind})
            assert engine.get_record(kind, "k") == {"key": "k", "kind": kind}
        assert engine.count("results") == 1

    def test_contains_is_index_only(self, engine):
        engine.append("results", "k", {"key": "k"})
        reopened = StorageEngine(engine.path)
        assert reopened.contains("results", "k")
        assert not reopened.contains("results", "other")
        assert reopened.counters.get("records_decoded") == 0


class TestLayout:
    def test_fresh_store_is_one_log_per_kind(self, engine):
        for kind in KINDS:
            engine.append(kind, "k", {"key": "k"})
        assert sorted(p.name for p in engine.path.iterdir()) == sorted(KINDS)
        for kind in KINDS:
            names = {p.name for p in (engine.path / kind).iterdir()}
            assert names == {".lock", "seg-000000.jsonl"}
        assert not list(engine.path.rglob("engine.json"))
        assert not list(engine.path.rglob("index.log"))
        assert not list(engine.path.rglob("shard-*"))


class TestCounters:
    def test_index_hit_miss_decode(self, engine):
        engine.append("results", "k", {"key": "k"})
        assert engine.get_record("results", "nope") is None
        assert engine.counters.get("index_misses") == 1
        assert engine.get_record("results", "k") is not None
        assert engine.counters.get("index_hits") == 1
        assert engine.counters.get("records_decoded") == 1

    def test_append_counters(self, engine):
        engine.append("results", "k", {"key": "k"})
        engine.append("results", "k", {"key": "k", "v": 2})
        assert engine.counters.get("appends") == 2
        assert engine.counters.get("superseded") == 1


class TestEviction:
    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        engine = StorageEngine(tmp_path / "s")
        keys = [f"key-{i:03d}" for i in range(20)]
        for i, key in enumerate(keys):
            # Appends within one second share a time; the size plan only
            # needs *some* subset evicted to fit.
            engine.append("results", key, {"key": key, "pad": "x" * 100})
        log = engine.log("results")
        live = sum(log.entry(k).length for k in log.keys())
        budget = live // 2
        engine.compact(max_bytes=budget)
        remaining = sum(log.entry(k).length for k in log.keys())
        assert remaining <= budget
        assert 0 < engine.count("results") < 20
        assert engine.counters.get("evictions") > 0

    def test_max_age_evicts_old_entries(self, tmp_path):
        engine = StorageEngine(tmp_path / "s")
        engine.append("results", "old", {"key": "old"})
        # Every entry is younger than an hour: nothing is dropped.
        engine.compact(max_age_s=3600)
        assert engine.count("results") == 1
        # Every entry is older than "0 seconds ago": all dropped.
        engine.compact(max_age_s=-1)
        assert engine.count("results") == 0


class TestVerification:
    def test_compaction_drops_a_record_filed_under_another_key(self, engine):
        engine.verifier = lambda kind, key, record: True
        engine.append("results", "a", {"key": "a"})
        engine.append_raw("results", "b", StorageEngine.encode({"key": "c"}))
        assert engine.compact(force=True)["corrupt"] == 1
        assert engine.keys("results") == ["a"]


class TestAppendTime:
    """An entry's append time is stored in its line, so every reopen path
    keeps it and age eviction sees the true age."""

    DAY = 86400

    def _append_days_ago(self, engine, monkeypatch, days, key):
        then = time.time() - days * self.DAY
        with monkeypatch.context() as m:
            m.setattr(time, "time", lambda: then)
            engine.append("results", key, {"key": key})
        return int(then)

    def test_append_time_survives_every_reopen_path(self, tmp_path, monkeypatch):
        engine = StorageEngine(tmp_path / "s")
        ts = self._append_days_ago(engine, monkeypatch, 90, "old")
        engine.append("results", "new", {"key": "new"})
        assert engine.log("results").entry("old").ts == ts

        fresh = StorageEngine(tmp_path / "s")
        assert fresh.log("results").entry("old").ts == ts

        with open(fresh.segment_files("results")[-1], "ab") as fh:
            fh.write(b'"torn"\t1\t{"key"')  # a crashed writer's fragment
        healed = StorageEngine(tmp_path / "s")
        assert healed.log("results").corrupt_seen == 1
        assert healed.log("results").entry("old").ts == ts

        healed.append("results", "new", {"key": "new", "v": 2})
        healed.compact(force=True)
        compacted = StorageEngine(tmp_path / "s")
        assert compacted.log("results").entry("old").ts == ts

    def test_max_age_evicts_entry_appended_under_old_clock(
        self, tmp_path, monkeypatch
    ):
        engine = StorageEngine(tmp_path / "s")
        self._append_days_ago(engine, monkeypatch, 90, "old")
        engine.append("results", "new", {"key": "new"})
        reopened = StorageEngine(tmp_path / "s")
        totals = reopened.compact(max_age_s=30 * self.DAY)
        assert totals["evicted"] == 1
        assert reopened.keys("results") == ["new"]
        assert StorageEngine(tmp_path / "s").keys("results") == ["new"]

    def test_size_eviction_drops_the_oldest_append(self, tmp_path, monkeypatch):
        engine = StorageEngine(tmp_path / "s")
        engine.append("results", "new", {"key": "new"})
        self._append_days_ago(engine, monkeypatch, 90, "old")
        reopened = StorageEngine(tmp_path / "s")
        one = reopened.log("results").entry("new").length
        reopened.compact(max_bytes=one)
        assert reopened.keys("results") == ["new"]


class TestAutoCompaction:
    def test_high_garbage_shard_compacts_on_append(self, tmp_path):
        engine = StorageEngine(tmp_path / "s")
        log = engine.log("results")
        # Rewrite the same key until the log crosses both thresholds.
        for i in range(AUTO_COMPACT_MIN_LINES + 8):
            engine.append("results", "hot", {"key": "hot", "i": i})
        assert engine.counters.get("compactions") >= 1
        assert log.superseded_current < AUTO_COMPACT_MIN_LINES
        assert engine.get_record("results", "hot")["i"] == AUTO_COMPACT_MIN_LINES + 7


class TestMinGarbageThreshold:
    def test_clean_shards_skipped(self, engine):
        for i in range(10):
            engine.append("results", f"k{i}", {"key": f"k{i}"})
        totals = engine.compact(min_garbage=0.3)
        assert engine.counters.get("compactions") == 0
        assert totals["kept"] == 0  # nothing rewritten

    def test_dirty_shard_compacted(self, engine):
        engine.append("results", "k", {"key": "k"})
        engine.append("results", "k", {"key": "k", "v": 2})
        engine.compact(min_garbage=0.3)
        assert engine.counters.get("compactions") == 1
        assert engine.log("results").garbage_ratio == 0.0

    def test_cold_open_compact_sees_garbage(self, tmp_path):
        # The `cache compact` CLI opens the store and compacts immediately:
        # an unloaded log must report its real garbage ratio, not 0.0.
        warm = StorageEngine(tmp_path / "s")
        for i in range(10):
            warm.append("results", f"k{i}", {"key": f"k{i}"})
            warm.append("results", f"k{i}", {"key": f"k{i}", "v": 2})
        cold = StorageEngine(tmp_path / "s")
        totals = cold.compact(min_garbage=0.3)
        assert totals["kept"] == 10
        assert totals["superseded"] == 10
        assert cold.log("results").garbage_ratio == 0.0


class TestConcurrentAppendRace:
    def test_four_process_append_race_across_shards(self, tmp_path):
        """Four processes hammer the one results log concurrently; its
        lock must keep every line complete and every entry correct."""
        store_dir = tmp_path / "shared"
        StorageEngine(store_dir)  # create the layout
        code = (
            "import sys\n"
            "from repro.storage import StorageEngine\n"
            "engine = StorageEngine(sys.argv[1])\n"
            "who = sys.argv[2]\n"
            "pad = 'x' * 2048\n"
            "for i in range(50):\n"
            "    key = f'{who}:{i}'\n"
            "    engine.append('results', key,"
            " {'key': key, 'who': who, 'i': i, 'pad': pad})\n"
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
        engine = StorageEngine(store_dir)
        assert engine.count("results") == 4 * 50
        seen = 0
        for k in range(4):
            for i in range(50):
                record = engine.get_record("results", f"w{k}:{i}")
                assert record["i"] == i and record["who"] == f"w{k}"
                seen += 1
        assert seen == 200
        assert engine.log("results").corrupt_seen == 0
