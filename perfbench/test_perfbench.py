"""Tests of the benchmark's own code: ``python -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_layers  # noqa: E402
import run  # noqa: E402
from bench_trace import Patches, Recorder, Span, current, self_times, traced, union_length  # noqa: E402
from bench_workloads import Outcome, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(id, start, end, parent=None, name="x"):
    span = Span(id, name, "", start, parent, 0)
    span.end = end
    return span


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(1, 5), (2, 3)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        _span(0, 0, 10),
        _span(1, 1, 4, parent=0),  # overlaps span 2
        _span(2, 3, 6, parent=0),
        _span(3, 8, 12, parent=0),  # runs past its parent: clipped to 10
        _span(4, 2, 3, parent=1),  # nested one level deeper
    ]
    own = self_times(spans)
    assert own == {0: 10 - (5 + 2), 1: 3 - 1, 2: 3, 3: 4, 4: 1}


def test_generator_spans_cover_each_resumption_and_close_the_original():
    closed = []

    def numbers():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    rec = Recorder()
    wrapped = traced(numbers, rec, "gen")
    with rec.op(0):
        gen = wrapped()
        assert next(gen) == 1
        gen.close()
    assert closed == [True]
    names = [s.name for s in rec.spans]
    assert names.count("gen") == 2  # the call, then one resumption
    assert names[-1] == "op"


def test_wrappers_record_only_inside_an_operation():
    rec = Recorder()
    wrapped = traced(lambda x: x + 1, rec, "inc")
    assert wrapped(1) == 2
    assert rec.spans == []


def test_traced_run_restores_every_original():
    from repro.api import engine as api_engine
    from repro.api.registry import PRUNERS
    from repro.api.session import Session
    from repro.api.specs import RunResult
    from repro.api.sweeps import Axis, run_sweep
    from repro.batch import engine as batch_engine
    from repro.graphs import traversal

    from bench_workloads import prune_sweep, service_sweep

    prune_entry = PRUNERS.get("prune")
    from_dict = RunResult.__dict__["from_dict"]
    rec = Recorder()
    patches = Patches(rec)
    bench_layers.install(patches)
    wrapped = patches.originals()
    assert len(wrapped) > 30
    assert batch_engine.batched_connected_components is not traversal.batched_connected_components
    with rec.op(0):
        run_sweep(service_sweep(1, 0), Session())
    one_prune = dataclasses.replace(
        prune_sweep(1), trials=1, axes=(Axis("fault.params.p", (0.1,)),)
    )
    with rec.op(1):
        run_sweep(one_prune, Session())
    patches.restore()
    for owner, attr, original in wrapped:
        assert current(owner, attr) is original, (owner, attr)
    assert batch_engine.batched_connected_components is traversal.batched_connected_components
    assert RunResult.__dict__["from_dict"] is from_dict
    assert PRUNERS.get("prune") is prune_entry
    assert api_engine.baseline_expansion.__module__ == "repro.api.engine"
    names = {s.name for s in rec.spans} - {"op"}
    assert {"batch.kernel", "pruning.prune", "expansion.estimate", "engine.baseline"} <= names
    declared = {name for name, _, _ in bench_layers.PER_LAYER}
    assert {f"{name}_s" for name in names} <= declared
    metrics = bench_layers.aggregate(rec.spans, 2, {})
    assert metrics["batch.kernel_calls"] == 0.5
    assert 0 < metrics["trace.coverage_frac"] <= 1


def test_every_counter_feeds_a_declared_metric():
    declared = {name for name, _, _ in bench_layers.PER_LAYER}
    assert set(bench_layers.CALL_METRICS.values()) <= declared
    assert set(bench_layers.SPAN_COUNTERS.values()) <= declared
    assert {f"{name}_s" for name in bench_layers.CALL_METRICS} <= declared


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench_layers.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    assert {w["name"] for w in spec["workloads"]} == set(__import__("bench_workloads").WORKLOADS)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    assert run.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        run.percentile(range(39), 75)
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


class _Mismatch(Workload):
    """Every other operation returns a wrong fingerprint."""

    name = "mismatch"

    def setup(self):
        pass

    def sweep_for(self, i):
        return None

    def reference(self, sweep):
        return "expected"

    def op(self, i):
        return Outcome("wrong" if i % 2 else "expected", 4)

    def store_bytes_per_trial(self):
        return 1.0


def test_fingerprint_mismatch_counts_as_failed(tmp_path):
    args = SimpleNamespace(workload="mismatch", seed=1, seconds=0.05, trace=0)
    workload = _Mismatch(1, tmp_path, Recorder())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.measure(args, workload, workload.recorder, 0.0, tmp_path, probes=0)
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] // 2
    frac = next(line for line in lines if "failed_frac" in line).split()[1]
    assert float(frac) == pytest.approx(result["failed"] / result["attempted"], rel=1e-4)


def test_service_starts_on_reported_url_and_drains_cleanly(tmp_path):
    from bench_service import ServiceProcess, parse_prometheus
    from repro.service.client import ServiceClient

    service = ServiceProcess(HERE.parent / "src", tmp_path / "store")
    try:
        url = service.start()
        assert re.fullmatch(r"http://127\.0\.0\.1:\d+", url)
        assert ServiceClient(url).healthz()["status"] == "ok"
        scraped = parse_prometheus(ServiceClient(url).metrics())
        assert scraped["workers_crashed_total"] == 0
        assert service.peak_rss_mb() > 0
    finally:
        problems = service.stop()
    assert problems == []
