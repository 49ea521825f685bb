"""Service observability: thread-safe counters with a Prometheus text view.

One :class:`Counters` registry per service instance.  Monotonic counters
(``*_total``) and point-in-time gauges share a namespace; every metric is
declared up front with its type and help string so the ``GET /metrics``
exposition (`Prometheus text format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_) carries
``# HELP`` / ``# TYPE`` headers and scrapes cleanly.  The same snapshot
feeds the JSON ``GET /sweeps/{id}`` status payloads and the
``repro sweep status --server`` CLI.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Tuple

__all__ = ["Counters", "SERVICE_METRICS"]

#: ``name -> (type, help)`` — the full metric catalogue of the service.
SERVICE_METRICS: Dict[str, Tuple[str, str]] = {
    "sweeps_submitted_total": ("counter", "SweepSpecs accepted by POST /sweeps"),
    "sweeps_deduped_total": (
        "counter",
        "submissions answered by an existing identical sweep (shared computation)",
    ),
    "sweeps_completed_total": ("counter", "sweeps finished successfully"),
    "sweeps_failed_total": ("counter", "sweeps failed (execution error or requeue budget exhausted)"),
    "sweeps_cancelled_total": ("counter", "sweeps cancelled via DELETE /sweeps/{id}"),
    "jobs_dispatched_total": ("counter", "grid-point jobs handed to a worker"),
    "jobs_done_total": ("counter", "grid-point jobs completed by a worker"),
    "jobs_failed_total": ("counter", "grid-point jobs that raised in a worker"),
    "jobs_requeued_total": (
        "counter",
        "jobs requeued after a worker crash or per-job timeout",
    ),
    "jobs_warm_total": (
        "counter",
        "jobs served whole from the result store without dispatching",
    ),
    "store_hits_total": ("counter", "trials served from the result store"),
    "store_misses_total": ("counter", "trials actually executed (engine calls)"),
    "trials_total": ("counter", "trials folded into sweep aggregates"),
    "workers_spawned_total": ("counter", "worker processes started (incl. replacements)"),
    "workers_crashed_total": ("counter", "worker processes that died or were timed out"),
    # Storage-engine counters, synced from the result store's monotonic
    # StorageCounters before every exposition (see Service.sync_store_metrics).
    "store_compactions_total": ("counter", "result-store shard compactions"),
    "store_evictions_total": (
        "counter",
        "result-store entries evicted by size/age policy",
    ),
    "store_index_hits_total": (
        "counter",
        "result-store lookups answered by a shard offset index",
    ),
    "store_index_misses_total": (
        "counter",
        "result-store lookups whose key was absent from every index",
    ),
    "jobs_queued": ("gauge", "jobs currently waiting on the priority queue"),
    "jobs_running": ("gauge", "jobs currently executing on a worker"),
    "sweeps_active": ("gauge", "sweeps currently queued or running"),
    "workers_alive": ("gauge", "worker processes currently alive"),
    "store_segments": ("gauge", "segment files across the result store's shards"),
    "store_entries": ("gauge", "live entries in the result store (all kinds)"),
    "store_garbage_ratio": (
        "gauge",
        "superseded+corrupt fraction of the result store's resident lines",
    ),
    "uptime_seconds": ("gauge", "seconds since the service started"),
    "trials_per_second": ("gauge", "trials folded per second of uptime"),
}


class Counters:
    """A fixed catalogue of named counters/gauges behind one lock.

    >>> c = Counters()
    >>> c.inc("trials_total", 3)
    >>> c.get("trials_total")
    3
    >>> c.set_gauge("workers_alive", 2)
    >>> "repro_workers_alive 2" in c.to_prometheus()
    True
    """

    def __init__(self, *, prefix: str = "repro", clock=time.time) -> None:
        self.prefix = prefix
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {name: 0 for name in SERVICE_METRICS}

    def inc(self, name: str, n: float = 1) -> None:
        if name not in SERVICE_METRICS:
            raise KeyError(f"unknown metric {name!r}")
        with self._lock:
            self._values[name] += n

    def set_gauge(self, name: str, value: float) -> None:
        if SERVICE_METRICS[name][0] != "gauge":
            raise KeyError(f"{name!r} is not a gauge")
        with self._lock:
            self._values[name] = value

    def set_value(self, name: str, value: float) -> None:
        """Overwrite a metric with an absolute value (counter or gauge).

        Used to mirror externally-maintained monotonic counters — the
        storage engine keeps its own :class:`~repro.storage.counters.
        StorageCounters`; the service copies them in before each
        exposition rather than double-counting increments.
        """
        if name not in SERVICE_METRICS:
            raise KeyError(f"unknown metric {name!r}")
        with self._lock:
            self._values[name] = value

    def get(self, name: str) -> float:
        with self._lock:
            value = self._values[name]
        return int(value) if float(value).is_integer() else value

    def _derived(self) -> None:
        """Refresh the gauges computed from other metrics (caller locks)."""
        uptime = max(self._clock() - self._started, 1e-9)
        self._values["uptime_seconds"] = uptime
        self._values["trials_per_second"] = self._values["trials_total"] / uptime

    def snapshot(self) -> Dict[str, float]:
        """All metrics as plain numbers (the JSON status payload)."""
        with self._lock:
            self._derived()
            return {
                k: (int(v) if float(v).is_integer() else v)
                for k, v in self._values.items()
            }

    def to_prometheus(self, names: Iterable[str] = ()) -> str:
        """The exposition body for ``GET /metrics``."""
        wanted = tuple(names) or tuple(SERVICE_METRICS)
        snap = self.snapshot()
        lines = []
        for name in wanted:
            kind, doc = SERVICE_METRICS[name]
            full = f"{self.prefix}_{name}"
            value = snap[name]
            rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines += [
                f"# HELP {full} {doc}",
                f"# TYPE {full} {kind}",
                f"{full} {rendered}",
            ]
        return "\n".join(lines) + "\n"
