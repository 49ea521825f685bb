"""Monotonic operational counters for the storage engine.

One :class:`StorageCounters` instance is shared by every log of a
:class:`~repro.storage.engine.StorageEngine`.  All fields are cumulative
since the engine was opened (they never decrease, unlike the *current*
garbage accounting kept per log), which is what makes them safe to
export as Prometheus counters through :mod:`repro.service.metrics`.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["StorageCounters"]

#: Every counter the engine maintains, with its meaning.  The service
#: metrics catalogue mirrors the operationally interesting subset.
COUNTER_FIELDS: Dict[str, str] = {
    "appends": "records appended (any kind)",
    "superseded": "appends that replaced an existing key",
    "corrupt": "corrupt records seen (scan, heal, or lazy verification)",
    "index_hits": "lookups answered by the in-memory offset map",
    "index_misses": "lookups whose key was absent from the map",
    "records_decoded": "records actually read and JSON-decoded",
    "segments_created": "segment files created (first append or compaction)",
    "segments_deleted": "segment files removed by compaction or clear",
    "compactions": "log compactions performed",
    "evictions": "entries evicted by size/age policy",
}


class StorageCounters:
    """Thread-safe monotonic counters (one lock, plain integer fields).

    >>> c = StorageCounters()
    >>> c.inc("appends", 3)
    >>> c.snapshot()["appends"]
    3
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {name: 0 for name in COUNTER_FIELDS}

    def inc(self, name: str, n: int = 1) -> None:
        if name not in self._values:
            raise KeyError(f"unknown storage counter {name!r}")
        if n:
            with self._lock:
                self._values[name] += n

    def get(self, name: str) -> int:
        with self._lock:
            return self._values[name]

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)
