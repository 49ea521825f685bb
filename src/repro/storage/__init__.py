"""Append-only, compacting storage engine for the result store.

This package is the persistence machinery below
:class:`repro.api.store.ResultStore`.  The facade keeps the public API
(content-addressed keys, corrupt-line tolerance, last-entry-wins); this
layer owns the on-disk layout:

* :class:`~repro.storage.log.RecordLog` — one record kind's append-only
  log: framed segment files scanned at open, an epoch file and an
  advisory lock.
* :class:`~repro.storage.engine.StorageEngine` — one log per kind, lazy
  per-lookup decode, and compaction/eviction policies.
* :class:`~repro.storage.counters.StorageCounters` — monotonic operational
  counters (segments, compactions, evictions, index hits/misses) exported
  through the service's ``/metrics``.

See ``docs/storage.md`` and DESIGN.md §10 for the invariants.
"""

from .counters import StorageCounters
from .engine import StorageEngine
from .log import IndexEntry, RecordLog

__all__ = ["IndexEntry", "RecordLog", "StorageCounters", "StorageEngine"]
