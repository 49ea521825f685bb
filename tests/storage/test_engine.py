"""Engine-level behaviour: shard routing, policies, counters, layout, and
the multi-process append race the shard locks exist for."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage import StorageEngine
from repro.storage.engine import AUTO_COMPACT_MIN_LINES


@pytest.fixture
def engine(tmp_path):
    return StorageEngine(tmp_path / "store")


class TestRouting:
    def test_placement_is_stable(self, engine):
        for i in range(50):
            key = f"key-{i}"
            assert engine.shard_for("results", key) is engine.shard_for(
                "results", key
            )

    def test_keys_spread_across_shards(self, engine):
        hit = {
            id(engine.shard_for("results", f"key-{i}")) for i in range(200)
        }
        assert len(hit) == len(engine.shards("results"))

    def test_round_trip_all_kinds(self, engine):
        for kind in ("results", "baselines", "tables"):
            engine.append(kind, "k", {"key": "k", "kind": kind})
            assert engine.get_record(kind, "k") == {"key": "k", "kind": kind}
        assert engine.count("results") == 1

    def test_shard_counts_persisted(self, tmp_path):
        StorageEngine(tmp_path / "s", shards={"results": 3, "baselines": 2, "tables": 2})
        # Reopening with different defaults must respect the stored layout.
        reopened = StorageEngine(tmp_path / "s")
        assert len(reopened.shards("results")) == 3
        meta = json.loads((tmp_path / "s" / "engine.json").read_text())
        assert meta["shards"]["results"] == 3

    def test_contains_is_index_only(self, engine):
        engine.append("results", "k", {"key": "k"})
        reopened = StorageEngine(engine.path)
        assert reopened.contains("results", "k")
        assert not reopened.contains("results", "other")
        assert reopened.counters.get("records_decoded") == 0


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
        engine = StorageEngine(tmp_path / "s", auto_compact=False)
        keys = [f"key-{i:03d}" for i in range(20)]
        for i, key in enumerate(keys):
            # Strictly increasing timestamps via the shard index is not
            # controllable from here (wall clock), so rely on append order
            # within a shard plus distinct-second coarseness being rare;
            # the size plan only needs *some* subset evicted to fit.
            engine.append("results", key, {"key": key, "pad": "x" * 100})
        live = sum(
            e.length
            for shard in engine.shards("results")
            for e in [shard.entry(k) for k in shard.keys()]
        )
        budget = live // 2
        engine.compact(max_bytes=budget)
        remaining = sum(
            e.length
            for shard in engine.shards("results")
            for e in [shard.entry(k) for k in shard.keys()]
        )
        assert remaining <= budget
        assert 0 < engine.count("results") < 20
        assert engine.counters.get("evictions") > 0

    def test_max_age_evicts_old_entries(self, tmp_path):
        engine = StorageEngine(tmp_path / "s", auto_compact=False)
        engine.append("results", "old", {"key": "old"})
        # Every entry is younger than an hour: nothing is dropped.
        engine.compact(max_age_s=3600)
        assert engine.count("results") == 1
        # Every entry is older than "0 seconds ago": all dropped.
        engine.compact(max_age_s=-1)
        assert engine.count("results") == 0


class TestAutoCompaction:
    def test_high_garbage_shard_compacts_on_append(self, tmp_path):
        engine = StorageEngine(tmp_path / "s")
        shard = engine.shard_for("results", "hot")
        # Rewrite the same key until the shard crosses both thresholds.
        for i in range(AUTO_COMPACT_MIN_LINES + 8):
            engine.append("results", "hot", {"key": "hot", "i": i})
        assert engine.counters.get("compactions") >= 1
        assert shard.superseded_current < AUTO_COMPACT_MIN_LINES
        assert engine.get_record("results", "hot")["i"] == AUTO_COMPACT_MIN_LINES + 7

    def test_disabled_auto_compaction_accumulates(self, tmp_path):
        engine = StorageEngine(tmp_path / "s", auto_compact=False)
        for i in range(AUTO_COMPACT_MIN_LINES + 8):
            engine.append("results", "hot", {"key": "hot", "i": i})
        assert engine.counters.get("compactions") == 0


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
        assert engine.garbage_ratio("results") == 0.0

    def test_cold_open_compact_sees_garbage(self, tmp_path):
        # The `cache compact` CLI opens the store and compacts immediately:
        # unloaded shards must report their real garbage ratio, not 0.0.
        warm = StorageEngine(tmp_path / "s", auto_compact=False)
        for i in range(10):
            warm.append("results", f"k{i}", {"key": f"k{i}"})
            warm.append("results", f"k{i}", {"key": f"k{i}", "v": 2})
        cold = StorageEngine(tmp_path / "s", auto_compact=False)
        totals = cold.compact(min_garbage=0.3)
        assert totals["kept"] == 10
        assert totals["superseded"] == 10
        assert cold.garbage_ratio("results") == 0.0


class TestConcurrentAppendRace:
    def test_four_process_append_race_across_shards(self, tmp_path):
        """Four processes hammer every results shard concurrently; the
        per-shard locks must keep every line complete and every index
        entry correct."""
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
        assert sum(
            s.corrupt_seen for s in engine.shards("results")
        ) == 0
        # The race exercised more than one shard lock.
        touched = [s for s in engine.shards("results") if len(s)]
        assert len(touched) > 1
