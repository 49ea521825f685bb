"""Store-scale benchmark: warm open of a 50k-entry store vs linear scan.

Builds a store of ~50k synthetic results (one real scenario execution,
cloned across seeds — the spec hash and fingerprint stay self-consistent,
the physics is just repeated), then pins the acceptance bar of the PR-7
storage engine: opening the store warm and serving stats plus a lookup
must beat the legacy cold-open behaviour — parse every record, rebuild
every RunResult, verify every fingerprint — by >=10x.  The warm path reads
only the shard offset indexes; exactly one record is decoded (the lookup).
"""

import dataclasses
import time

from repro.api import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.engine import run
from repro.api.specs import RunResult
from repro.api.store import ResultStore

N_ENTRIES = 50_000


def _base_spec(seed=0):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.1}),
        analysis=AnalysisSpec(),
        seed=seed,
    )


def _synthetic_results(n):
    """n distinct-keyed results cloned from one real execution."""
    template = run(_base_spec())
    out = []
    for s in range(n):
        spec = dataclasses.replace(template.spec, seed=s)
        out.append(dataclasses.replace(template, spec=spec, seed=s))
    return out


def _linear_scan(store):
    """The legacy cold-open cost model: decode + key-check + fingerprint-
    verify every record (what ``ResultStore`` did before the engine)."""
    import json

    n = 0
    for segment in store.segment_files("results"):
        for raw in segment.read_bytes().splitlines():
            record = json.loads(raw)
            result = RunResult.from_dict(record["result"])
            assert record["key"] == result.spec.hash()
            assert record["fingerprint"] == result.fingerprint()
            n += 1
    return n


def test_bench_store_scale_warm_open(benchmark, tmp_path):
    path = tmp_path / "store"
    store = ResultStore(path)
    results = _synthetic_results(N_ENTRIES)
    store.put_results(results)
    probe = results[N_ENTRIES // 2]

    t0 = time.perf_counter()
    assert _linear_scan(store) == N_ENTRIES
    linear_s = time.perf_counter() - t0

    def warm_open():
        warm = ResultStore(path)
        stats = warm.stats()
        assert stats.results == N_ENTRIES
        assert stats.corrupt == 0
        cached = warm.get_result(probe.spec)
        assert cached.fingerprint() == probe.fingerprint()
        return warm

    t0 = time.perf_counter()
    warm = warm_open()
    warm_s = time.perf_counter() - t0

    # Stats came from the indexes: only the probe lookup decoded a record.
    assert warm.counters.get("records_decoded") == 1
    speedup = linear_s / warm_s
    assert speedup >= 10, (
        f"warm open too slow: linear scan {linear_s:.3f}s / warm {warm_s:.3f}s "
        f"= {speedup:.1f}x (acceptance floor: 10x)"
    )

    # Recorded number: the steady-state warm open (fresh instance each
    # round, so every iteration re-reads the sidecar indexes from disk).
    benchmark.pedantic(warm_open, rounds=3, iterations=1)
