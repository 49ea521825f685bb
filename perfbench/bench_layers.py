"""Which program functions the traced run wraps, and the per-layer metrics.

:func:`install` puts a span wrapper on each function under the name its
caller looks it up by: a function imported into another module is wrapped
in that module (``repro.batch.engine.batched_connected_components``, not
only ``repro.graphs.traversal``), a method on the class that defines it,
and a registered pruner in its registry entry.  Each span is named after
its layer (``batch.kernel``); :func:`aggregate` turns the spans of the
traced operations into the :data:`PER_LAYER` metrics, all per operation.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.api import engine as api_engine
from repro.api import sweeps as api_sweeps
from repro.api.registry import FINDERS, PRUNERS
from repro.api.session import Session
from repro.api.specs import RunResult, ScenarioSpec
from repro.api.store import ResultStore
from repro.batch import engine as batch_engine
from repro.service.client import ServiceClient
from repro.storage.engine import StorageEngine

from bench_trace import Patches, Recorder, Span, self_times, traced, union_length

__all__ = ["PER_LAYER", "install", "aggregate"]

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: ``*_s`` metrics are self seconds per operation; counts are per
#: operation.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sweeps.expand_s", "s", "lower"),
    ("sweeps.allocate_s", "s", "lower"),
    ("sweeps.fold_s", "s", "lower"),
    ("sweeps.dispatch_s", "s", "lower"),
    ("sweeps.rounds", "count", "lower"),
    ("session.self_s", "s", "lower"),
    ("session.hits", "count", "higher"),
    ("session.misses", "count", "lower"),
    ("session.hit_ratio", "ratio", "higher"),
    ("engine.graph_s", "s", "lower"),
    ("engine.baseline_s", "s", "lower"),
    ("engine.baseline_calls", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("batch.mask_s", "s", "lower"),
    ("batch.kernel_s", "s", "lower"),
    ("batch.kernel_calls", "count", "lower"),
    ("batch.kernel_rows", "count", "lower"),
    ("batch.kernel_input_bytes", "B", "lower"),
    ("batch.reduce_s", "s", "lower"),
    ("batch.package_s", "s", "lower"),
    ("specs.fingerprint_s", "s", "lower"),
    ("specs.fingerprint_calls", "count", "lower"),
    ("specs.encode_s", "s", "lower"),
    ("specs.decode_s", "s", "lower"),
    ("specs.hash_s", "s", "lower"),
    ("specs.hash_calls", "count", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.put_calls", "count", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.append_s", "s", "lower"),
    ("storage.index_hits", "count", "higher"),
    ("storage.index_misses", "count", "lower"),
    ("pruning.prune_s", "s", "lower"),
    ("pruning.find_s", "s", "lower"),
    ("pruning.find_calls", "count", "lower"),
    ("pruning.culled_sets", "count", "lower"),
    ("expansion.estimate_s", "s", "lower"),
    ("expansion.estimate_calls", "count", "lower"),
    ("graphs.components_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.status_s", "s", "lower"),
    ("service.results_s", "s", "lower"),
    ("service.wait_s", "s", "lower"),
    ("service.polls_per_sweep", "count", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.jobs_dispatched", "count", "lower"),
    ("service.jobs_warm", "count", "higher"),
    ("service.store_misses", "count", "lower"),
    ("service.sweeps_deduped", "count", "higher"),
    ("service.workers_crashed", "count", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Spans whose outermost calls are counted, and the metric they feed.
CALL_METRICS: Dict[str, str] = {
    "engine.baseline": "engine.baseline_calls",
    "batch.kernel": "batch.kernel_calls",
    "specs.fingerprint": "specs.fingerprint_calls",
    "specs.hash": "specs.hash_calls",
    "store.get": "store.get_calls",
    "store.put": "store.put_calls",
    "pruning.find": "pruning.find_calls",
    "expansion.estimate": "expansion.estimate_calls",
    "service.status": "service.polls_per_sweep",
}

#: Counters attached to spans, summed into the named metric.
SPAN_COUNTERS: Dict[str, str] = {
    "rows": "batch.kernel_rows",
    "input_bytes": "batch.kernel_input_bytes",
    "culled_sets": "pruning.culled_sets",
}

_ANALYZE = f"{api_engine.__name__}.analyze_graph"


def _baseline_or_estimate(recorder: Recorder) -> str:
    # The engine computes the fault-free baseline and, inside
    # analyze_graph, the survivor's expansion estimate through the same
    # function; the open parent span tells them apart.
    return "expansion.estimate" if recorder.inside(_ANALYZE) else "engine.baseline"


def _kernel_counts(args: tuple, kwargs: dict, result) -> Dict[str, float]:
    """Rows and input bytes of one kernel call, computed from the mask
    matrices and the graph's CSR arrays (not measured traffic)."""
    graph = args[0]
    alive = args[1] if len(args) > 1 else kwargs.get("alive")
    edge_alive = kwargs.get("edge_alive")
    masks = [m for m in (alive, edge_alive) if m is not None]
    rows = masks[0].shape[0] if masks else 0
    nbytes = sum(m.nbytes for m in masks) + graph.indptr.nbytes + graph.indices.nbytes
    return {"rows": rows, "input_bytes": nbytes}


def _prune_counts(args: tuple, kwargs: dict, result) -> Dict[str, float]:
    return {"culled_sets": len(result.culled)}


def install(patches: Patches) -> None:
    """Wrap every layer entry point (undo with ``patches.restore()``)."""
    rec = patches.recorder
    wrap = patches.wrap
    wrap(api_sweeps.SweepSpec, "points", "sweeps.expand")
    wrap(api_sweeps.SweepSpec, "trial_spec", "sweeps.expand")
    wrap(api_sweeps.SweepDriver, "next_round", "sweeps.allocate")
    wrap(api_sweeps.SweepDriver, "fold", "sweeps.fold")
    wrap(api_sweeps, "execute_units", "sweeps.dispatch")
    for method in ("run", "run_iter", "run_trials_batched", "run_points_batched"):
        wrap(Session, method, "session.self")
    wrap(api_engine, "resolve_graph", "engine.graph")
    wrap(batch_engine, "resolve_graph", "engine.graph")
    wrap(api_engine, "baseline_expansion", _baseline_or_estimate)
    wrap(batch_engine, "baseline_expansion", "engine.baseline")
    wrap(api_engine, "run", "engine.run")
    wrap(api_engine, "analyze_graph", "engine.run")
    wrap(api_engine, "component_summary", "graphs.components")
    wrap(batch_engine, "batched_fault_masks", "batch.mask")
    wrap(batch_engine, "batched_connected_components", "batch.kernel", _kernel_counts)
    wrap(batch_engine, "batched_component_stats", "batch.reduce")
    wrap(batch_engine, "run_points", "batch.package")
    wrap(RunResult, "fingerprint", "specs.fingerprint")
    wrap(RunResult, "to_dict", "specs.encode")
    wrap(RunResult, "from_dict", "specs.decode")
    wrap(ScenarioSpec, "hash", "specs.hash")
    wrap(ResultStore, "__init__", "store.open")
    wrap(ResultStore, "get_result", "store.get")
    wrap(ResultStore, "put_result", "store.put")
    wrap(ResultStore, "put_results", "store.put")
    wrap(StorageEngine, "get_record", "storage.read")
    wrap(StorageEngine, "append", "storage.append")
    wrap(StorageEngine, "append_many", "storage.append")
    # analyze_graph calls the pruner through its registry entry, and the
    # entry is frozen: swap in a copy holding the wrapped function.
    for name in PRUNERS:
        entry = PRUNERS.get(name)
        fn = traced(
            entry.fn, rec, "pruning.prune",
            qualname=f"{PRUNERS.kind}:{name}", count=_prune_counts,
        )
        patches.replace_item(PRUNERS._entries, name, dataclasses.replace(entry, fn=fn))
    for name in FINDERS:
        cls = FINDERS.get(name).fn
        if isinstance(cls, type) and "find" in cls.__dict__:
            wrap(cls, "find", "pruning.find")
    wrap(ServiceClient, "submit", "service.submit")
    wrap(ServiceClient, "status", "service.status")
    wrap(ServiceClient, "results", "service.results")


def coverage(spans: Iterable[Span]) -> float:
    """Share of operation wall time covered by the operations' child spans."""
    spans = list(spans)
    roots = {s.id: s for s in spans if s.name == "op"}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent in roots:
            children[s.parent].append((s.start, s.end))
    total = sum(r.duration for r in roots.values())
    covered = sum(union_length(children[i]) for i in roots)
    return covered / total if total > 0 else 0.0


def aggregate(
    spans: Iterable[Span], n_ops: int, op_counts: Mapping[str, float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced operations' spans
    and their summed operation-level counters (``op_counts``).

    Metrics no span or counter fed read 0 (the layer did not run);
    ``service.overhead_s`` and ``trace.overhead_frac`` need untraced
    timings and are filled in by the caller.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals: Counter = Counter()
    for s in spans:
        if s.name == "op":
            continue
        totals[f"{s.name}_s"] += own[s.id]
        parent = by_id.get(s.parent)
        if s.name in CALL_METRICS and (parent is None or parent.name != s.name):
            totals[CALL_METRICS[s.name]] += 1
        for key, value in (s.counts or {}).items():
            totals[SPAN_COUNTERS[key]] += value
    totals.update(op_counts)
    n = max(n_ops, 1)
    out = {name: totals.get(name, 0) / n for name, _, _ in PER_LAYER}
    hits, misses = totals.get("session.hits", 0), totals.get("session.misses", 0)
    out["session.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.coverage_frac"] = coverage(spans)
    return out
