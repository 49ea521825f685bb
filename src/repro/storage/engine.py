"""The storage engine: one record log per kind, compaction and eviction.

A :class:`StorageEngine` owns one store directory and keeps each record
*kind* (``results``, ``baselines``, ``tables``) in one
:class:`~repro.storage.log.RecordLog`::

    <store>/
      .lock                    # store-wide lock (whole-store maintenance)
      results/                 # seg-*.jsonl + epoch + .lock
      baselines/
      tables/

Records are stored as **raw encoded bytes** and handed back undecoded
(:meth:`get_raw`); the engine decodes JSON only inside :meth:`get_record`
(and counts it), which is what keeps warm opens and membership checks
free of per-record work.  The results store reads its records raw and
checks and decodes them itself (:mod:`repro.api.store`).
:meth:`append_many` writes a batch to its kind's log under one lock, one
epoch read and one file open, encoding each record only when its turn
comes.

The store is a cache, not data of record: files of any other layout in
the store directory (the single-file ``results.jsonl`` of early stores,
or the ``engine.json`` and ``shard-*`` directories of the hash-sharded
layout) are neither read nor removed, so such a directory opens cold.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..util.locking import FileLock
from .counters import StorageCounters
from .log import IndexEntry, RecordLog

__all__ = ["KINDS", "StorageEngine"]

#: The record kinds, one log each.
KINDS = ("results", "baselines", "tables")

#: Auto-compaction fires on append once a log is at least this fraction
#: garbage *and* has enough lines for the rewrite to be worth a lock hold.
AUTO_COMPACT_GARBAGE = 0.6
AUTO_COMPACT_MIN_LINES = 512


class StorageEngine:
    """One append-only log per record kind (see module docstring)."""

    def __init__(self, path: Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.counters = StorageCounters()
        #: Optional ``verify(kind, key, record bytes) -> bool`` hook applied
        #: during compaction (the integrity sweep) to each record that
        #: :meth:`decode` accepts — set by the ResultStore facade.
        self.verifier: Optional[Callable[[str, str, bytes], bool]] = None
        self._global_lock = FileLock(self.path / ".lock")
        self._logs: Dict[str, RecordLog] = {
            kind: RecordLog(self.path / kind, fsync=fsync, counters=self.counters)
            for kind in KINDS
        }

    def kinds(self) -> List[str]:
        return list(self._logs)

    def log(self, kind: str) -> RecordLog:
        return self._logs[kind]

    # -- record I/O --------------------------------------------------------- #

    @staticmethod
    def encode(record: dict) -> bytes:
        """The canonical record encoding: sorted keys, no whitespace."""
        return (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    def append(self, kind: str, key: str, record: dict) -> bool:
        """Append one record; returns True if ``key`` was superseded."""
        return self.append_raw(kind, key, self.encode(record))

    def append_new(self, kind: str, key: str, record: dict) -> bool:
        """Append one record unless ``key`` is on disk already, other
        processes' appends included; True if it was appended."""
        return self._logs[kind].append_new(key, self.encode(record))

    def append_raw(self, kind: str, key: str, record: bytes) -> bool:
        superseded = self._logs[kind].append(key, record)
        self._compact_if_garbage(kind)
        return superseded

    def append_many(
        self,
        kind: str,
        records: Iterable[Tuple[str, Any]],
        encode: Callable[[Any], bytes],
    ) -> int:
        """Append ``(key, record)`` pairs in order; returns the superseded
        count.

        The batch costs one lock, one epoch read and one file open.
        ``encode`` turns each record into its bytes as the log writes it,
        so the encoded batch is never held whole.
        """
        encoded = ((key, encode(record)) for key, record in records)
        superseded = sum(self._logs[kind].append_many(encoded))
        self._compact_if_garbage(kind)
        return superseded

    def _compact_if_garbage(self, kind: str) -> None:
        log = self._logs[kind]
        if (
            log.garbage_lines + len(log) >= AUTO_COMPACT_MIN_LINES
            and log.garbage_ratio >= AUTO_COMPACT_GARBAGE
        ):
            log.compact(verify=self._verify_fn(kind))

    def get_raw(self, kind: str, key: str) -> Optional[bytes]:
        log = self._logs[kind]
        if not log.contains(key):
            self.counters.inc("index_misses")
            return None
        self.counters.inc("index_hits")
        return log.get(key)

    def get_record(self, kind: str, key: str) -> Optional[dict]:
        """Decode the record for ``key`` — the only eager-decode read path.

        A record that no longer parses, is not a dict, or carries a
        different ``key`` field is discarded from the map (counted corrupt)
        and the lookup answers None.
        """
        raw = self.get_raw(kind, key)
        if raw is None:
            return None
        self.counters.inc("records_decoded")
        record = self.decode(key, raw)
        if record is None:
            self._logs[kind].discard(key)
        return record

    @staticmethod
    def decode(key: str, raw: bytes) -> Optional[dict]:
        """The record in ``raw`` if it parses to a dict whose ``key`` field
        is ``key``, else None."""
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError):
            return None
        return record if isinstance(record, dict) and record.get("key") == key else None

    def discard(self, kind: str, key: str) -> None:
        self._logs[kind].discard(key)

    def contains(self, kind: str, key: str) -> bool:
        """O(1) membership from the in-memory map — no file read, no counters."""
        return self._logs[kind].contains(key)

    def keys(self, kind: str) -> List[str]:
        return self._logs[kind].keys()

    def count(self, kind: str) -> int:
        return len(self._logs[kind])

    def loads(self, kind: str) -> int:
        """Scans of ``kind``'s log so far (grows on every reload)."""
        return self._logs[kind].loads

    def locate(self, kind: str, key: str) -> Optional[Tuple[Path, IndexEntry]]:
        """(segment path, entry) of a live key's framed line — test/debug helper."""
        log = self._logs[kind]
        entry = log.entry(key)
        if entry is None:
            return None
        return log._seg_path(entry.seg), entry

    def segment_files(self, kind: str) -> List[Path]:
        return self._logs[kind].segment_files()

    # -- maintenance --------------------------------------------------------- #

    def _verify_fn(self, kind: str) -> Optional[Callable[[str, bytes], bool]]:
        verifier = self.verifier
        if verifier is None:
            return None

        def verify(key: str, raw: bytes) -> bool:
            return self.decode(key, raw) is not None and verifier(kind, key, raw)

        return verify

    def compact(
        self,
        *,
        kinds: Optional[List[str]] = None,
        force: bool = False,
        min_garbage: float = 0.0,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, int]:
        """Compact logs; apply eviction policies; return total drop counts.

        ``min_garbage`` skips logs below that garbage ratio unless
        ``force`` (or an eviction policy makes the rewrite mandatory).
        ``max_bytes`` is a **global live-bytes budget across all kinds**:
        oldest entries (by append time) are evicted until the projected
        live size fits.  ``max_age_s`` drops entries appended more than
        that many seconds ago.
        """
        kinds = kinds if kinds is not None else self.kinds()
        drop_keys: Dict[str, set] = {}
        if max_bytes is not None:
            drop_keys = self._size_eviction_plan(kinds, max_bytes)
        totals = {"kept": 0, "superseded": 0, "corrupt": 0, "evicted": 0}
        for kind in kinds:
            log = self._logs[kind]
            must = force or max_age_s is not None or kind in drop_keys
            if not must and log.garbage_ratio < max(min_garbage, 1e-9):
                continue
            result = log.compact(
                drop_keys=drop_keys.get(kind),
                max_age_s=max_age_s,
                verify=self._verify_fn(kind),
            )
            for field in totals:
                totals[field] += result[field]
        return totals

    def _size_eviction_plan(
        self, kinds: List[str], max_bytes: int
    ) -> Dict[str, set]:
        """Oldest-first eviction set bringing projected live bytes under
        budget.  Uses entry lengths — no record is read."""
        ranked: List[Tuple[int, int, str, str]] = []  # (ts, length, kind, key)
        live_bytes = 0
        for kind in kinds:
            log = self._logs[kind]
            for key in log.keys():
                entry = log.entry(key)
                if entry is None:
                    continue
                ranked.append((entry.ts, entry.length, kind, key))
                live_bytes += entry.length
        if live_bytes <= max_bytes:
            return {}
        ranked.sort()
        drops: Dict[str, set] = {}
        for ts, length, kind, key in ranked:
            if live_bytes <= max_bytes:
                break
            drops.setdefault(kind, set()).add(key)
            live_bytes -= length
        return drops

    def clear(self, kinds: Optional[List[str]] = None) -> None:
        for kind in kinds if kinds is not None else self.kinds():
            self._logs[kind].clear()

    def reload(self) -> None:
        for log in self._logs.values():
            log.reload()

    # -- introspection -------------------------------------------------------- #

    def counts(self, kind: str) -> Dict[str, int]:
        """Map-served aggregates for one kind — nothing is decoded."""
        return self._logs[kind].stats()
