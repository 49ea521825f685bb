"""Sharded, indexed, compacting storage engine for the result store.

This package is the persistence machinery below
:class:`repro.api.store.ResultStore`.  The facade keeps the public API
(content-addressed keys, corrupt-line tolerance, last-entry-wins); this
layer owns the on-disk layout and its scaling properties:

* :class:`~repro.storage.shard.Shard` — one hash shard: rotated append-only
  segment files, a persistent sidecar offset index, and a per-shard
  advisory lock so writers of different keys never contend.
* :class:`~repro.storage.engine.StorageEngine` — the shard router: key →
  shard placement, lazy per-lookup decode, and compaction/eviction
  policies.
* :class:`~repro.storage.counters.StorageCounters` — monotonic operational
  counters (segments, compactions, evictions, index hits/misses) exported
  through the service's ``/metrics``.

See ``docs/storage.md`` and DESIGN.md §10 for the invariants.
"""

from .counters import StorageCounters
from .engine import DEFAULT_SEGMENT_BYTES, DEFAULT_SHARDS, StorageEngine
from .shard import IndexEntry, Shard

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_SHARDS",
    "IndexEntry",
    "Shard",
    "StorageCounters",
    "StorageEngine",
]
