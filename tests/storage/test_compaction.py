"""Compaction through the ResultStore facade and the ``cache`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.engine import run
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.store import ResultStore


def torus_spec(seed=3, p=0.1):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": p}),
        analysis=AnalysisSpec(),
        seed=seed,
    )


class TestFacadeCompaction:
    def test_compact_preserves_fingerprints_bit_for_bit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        results = [run(torus_spec(seed=s)) for s in range(4)]
        for r in results:
            store.put_result(r)
            store.put_result(r)  # garbage: one superseded line each
        raw_before = {
            key: store.engine.get_raw("results", key)
            for key in store.engine.keys("results")
        }
        counts = store.compact(force=True)
        assert counts["superseded"] == 4
        raw_after = {
            key: store.engine.get_raw("results", key)
            for key in store.engine.keys("results")
        }
        assert raw_after == raw_before  # identical bytes, new segments
        for r in results:
            assert store.get_result(r.spec).fingerprint() == r.fingerprint()

    def test_compact_verifies_and_drops_tampered_records(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        result = run(torus_spec())
        store.put_result(result)
        seg, entry = store.engine.locate("results", result.spec.hash())
        record = json.loads(seg.read_text())
        record["result"]["n_surviving"] = 1
        seg.write_text(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        (seg.parent / "index.log").unlink()
        reopened = ResultStore(tmp_path / "s")
        counts = reopened.compact(force=True)
        assert counts["corrupt"] == 1
        assert len(reopened) == 0

    def test_min_garbage_threshold_respected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result(run(torus_spec()))
        store.compact(min_garbage=0.5)  # clean store: nothing to do
        assert store.counters.get("compactions") == 0
        store.put_result(run(torus_spec()))  # now 50% garbage in one shard
        store.compact(min_garbage=0.5)
        assert store.counters.get("compactions") == 1


class TestCacheCompactCLI:
    def _cli(self, *argv, cwd):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_cache_compact_and_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)
        proc = self._cli(
            "cache", "compact", "--store", "s", "--force", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "dropped 1 superseded" in proc.stdout
        proc = self._cli("cache", "stats", "--store", "s", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "garbage_ratio  0.0" in proc.stdout
        assert "results/shard-" in proc.stdout  # per-shard detail rows
        assert ResultStore(tmp_path / "s").get_result(torus_spec()) == result

    def test_cache_compact_max_age_evicts(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result(run(torus_spec()))
        proc = self._cli(
            "cache",
            "compact",
            "--store",
            "s",
            "--max-age-days",
            "-1",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "1 evicted" in proc.stdout
        assert len(ResultStore(tmp_path / "s")) == 0
