"""The shard router: key placement, compaction and eviction policies.

A :class:`StorageEngine` owns one store directory and splits each record
*kind* (``results``, ``baselines``, ``tables``) across a fixed number of
:class:`~repro.storage.shard.Shard` directories::

    <store>/
      engine.json              # layout metadata (shard counts, version)
      results/shard-00/…       # seg-*.jsonl + index.log + epoch + .lock
      results/shard-01/…
      baselines/shard-00/…
      tables/shard-00/…

Placement is ``sha256(key)`` reduced modulo the shard count — stable
across opens because the counts are persisted in ``engine.json`` the first
time the store is created.  Records are stored as **raw encoded lines**
and handed back undecoded; the engine decodes JSON only inside
:meth:`get_record` (and counts it), which is what keeps warm opens and
membership checks free of per-record work.  :meth:`append_many` writes a
batch grouped by shard — one lock, one epoch read and one pair of file
opens per shard it touches — and encodes each shard's lines only when
that shard's turn comes.

The store is a cache, not data of record: files of any other layout in
the store directory (such as the single-file ``results.jsonl`` of early
stores) are neither read nor removed, so such a directory opens cold.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..util.locking import FileLock
from .counters import StorageCounters
from .shard import IndexEntry, Shard

__all__ = ["DEFAULT_SEGMENT_BYTES", "DEFAULT_SHARDS", "StorageEngine"]

#: Shards per record kind.  Results dominate (one record per trial) and
#: get the most write parallelism; baselines and tables are tiny.
DEFAULT_SHARDS: Dict[str, int] = {"results": 16, "baselines": 4, "tables": 4}
DEFAULT_SEGMENT_BYTES = 32 << 20

_META_FILE = "engine.json"

#: Auto-compaction fires on append once a shard is at least this fraction
#: garbage *and* has enough lines for the rewrite to be worth a lock hold.
AUTO_COMPACT_GARBAGE = 0.6
AUTO_COMPACT_MIN_LINES = 512


def _placement(key: str, n_shards: int) -> int:
    """The shard index of ``key``: ``sha256(key)`` modulo the shard count."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_shards


class StorageEngine:
    """Sharded, indexed, compacting record store (see module docstring)."""

    def __init__(
        self,
        path: Path,
        *,
        fsync: bool = False,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        shards: Optional[Dict[str, int]] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.counters = StorageCounters()
        #: Optional ``verify(kind, key, record) -> bool`` hook applied during
        #: compaction (the integrity sweep) — set by the ResultStore facade.
        self.verifier: Optional[Callable[[str, str, dict], bool]] = None
        self._global_lock = FileLock(self.path / ".lock")
        self._shard_counts = self._load_or_init_meta(
            shards if shards is not None else dict(DEFAULT_SHARDS)
        )
        self._shards: Dict[str, List[Shard]] = {}
        for kind, n in self._shard_counts.items():
            self._shards[kind] = [
                Shard(
                    self.path / kind / f"shard-{i:02d}",
                    fsync=fsync,
                    segment_bytes=segment_bytes,
                    counters=self.counters,
                )
                for i in range(n)
            ]

    # -- layout ----------------------------------------------------------- #

    def _load_or_init_meta(self, wanted: Dict[str, int]) -> Dict[str, int]:
        meta_path = self.path / _META_FILE
        try:
            meta = json.loads(meta_path.read_text())
            counts = meta["shards"]
            if isinstance(counts, dict) and all(
                isinstance(v, int) and v > 0 for v in counts.values()
            ):
                return {str(k): int(v) for k, v in counts.items()}
        except (OSError, ValueError, KeyError, TypeError):
            pass
        try:
            tmp = self.path / f".{_META_FILE}.tmp"
            tmp.write_text(
                json.dumps({"version": 1, "shards": wanted}, sort_keys=True)
            )
            os.replace(tmp, meta_path)
        except OSError:
            pass  # read-only store: defaults apply in memory
        return wanted

    def kinds(self) -> List[str]:
        return list(self._shards)

    def shard_for(self, kind: str, key: str) -> Shard:
        shards = self._shards[kind]
        return shards[_placement(key, len(shards))]

    def shards(self, kind: str) -> List[Shard]:
        return self._shards[kind]

    # -- record I/O --------------------------------------------------------- #

    @staticmethod
    def encode(record: dict) -> bytes:
        """The canonical line encoding: sorted keys, no whitespace."""
        return (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    def append(self, kind: str, key: str, record: dict) -> bool:
        """Append one record; returns True if ``key`` was superseded."""
        return self.append_raw(kind, key, self.encode(record))

    def append_raw(self, kind: str, key: str, line: bytes) -> bool:
        shard = self.shard_for(kind, key)
        superseded = shard.append(key, line)
        self._compact_if_garbage(kind, shard)
        return superseded

    def append_many(
        self,
        kind: str,
        records: Iterable[Tuple[str, Any]],
        encode: Callable[[Any], bytes],
    ) -> int:
        """Append ``(key, record)`` pairs grouped by shard, in input order
        within each shard; returns the superseded count.

        Each shard costs one lock, one epoch read and one pair of file
        opens however many records land in it.  ``encode`` turns a record
        into its line inside the per-shard loop, so only one shard's lines
        are ever held at once.
        """
        shards = self._shards[kind]
        batches: Dict[int, List[Tuple[str, Any]]] = {}
        for key, record in records:
            batches.setdefault(_placement(key, len(shards)), []).append((key, record))
        superseded = 0
        for idx, items in batches.items():
            lines = ((key, encode(record)) for key, record in items)
            superseded += sum(shards[idx].append_many(lines))
            self._compact_if_garbage(kind, shards[idx])
        return superseded

    def _compact_if_garbage(self, kind: str, shard: Shard) -> None:
        if (
            shard.garbage_lines + len(shard) >= AUTO_COMPACT_MIN_LINES
            and shard.garbage_ratio >= AUTO_COMPACT_GARBAGE
        ):
            shard.compact(verify=self._verify_fn(kind))

    def get_raw(self, kind: str, key: str) -> Optional[bytes]:
        shard = self.shard_for(kind, key)
        if not shard.contains(key):
            self.counters.inc("index_misses")
            return None
        self.counters.inc("index_hits")
        return shard.get(key)

    def get_record(self, kind: str, key: str) -> Optional[dict]:
        """Decode the record for ``key`` — the only eager-decode read path.

        A line that no longer parses, is not a dict, or carries a different
        ``key`` field is discarded from the index (counted corrupt) and the
        lookup answers None.
        """
        raw = self.get_raw(kind, key)
        if raw is None:
            return None
        self.counters.inc("records_decoded")
        try:
            record = json.loads(raw)
            if not isinstance(record, dict) or record.get("key") != key:
                raise ValueError
        except (ValueError, TypeError):
            self.shard_for(kind, key).discard(key)
            return None
        return record

    def discard(self, kind: str, key: str) -> None:
        self.shard_for(kind, key).discard(key)

    def contains(self, kind: str, key: str) -> bool:
        """O(1) membership from the index — no file read, no counters."""
        return self.shard_for(kind, key).contains(key)

    def keys(self, kind: str) -> List[str]:
        out: List[str] = []
        for shard in self._shards[kind]:
            out.extend(shard.keys())
        return out

    def count(self, kind: str) -> int:
        return sum(len(s) for s in self._shards[kind])

    def loads(self, kind: str) -> int:
        """Index (re)loads of ``kind``'s shards so far (grows on every reload)."""
        return sum(s.loads for s in self._shards[kind])

    def locate(self, kind: str, key: str) -> Optional[Tuple[Path, IndexEntry]]:
        """(segment path, index entry) for a live key — test/debug helper."""
        shard = self.shard_for(kind, key)
        entry = shard.entry(key)
        if entry is None:
            return None
        return shard._seg_path(entry.seg), entry

    def segment_files(self, kind: str) -> List[Path]:
        out: List[Path] = []
        for shard in self._shards[kind]:
            out.extend(shard.segment_files())
        return out

    # -- maintenance --------------------------------------------------------- #

    def _verify_fn(self, kind: str) -> Optional[Callable[[bytes], bool]]:
        verifier = self.verifier
        if verifier is None:
            return None

        def verify(raw: bytes) -> bool:
            try:
                record = json.loads(raw)
                key = record["key"]
                if not isinstance(record, dict) or not isinstance(key, str):
                    return False
            except (ValueError, KeyError, TypeError):
                return False
            return verifier(kind, key, record)

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
        """Compact shards; apply eviction policies; return total drop counts.

        ``min_garbage`` skips shards below that garbage ratio unless
        ``force`` (or an eviction policy makes the rewrite mandatory).
        ``max_bytes`` is a **global live-bytes budget across all kinds**:
        oldest entries (by index timestamp) are evicted until the projected
        live size fits.  ``max_age_s`` drops entries older than that many
        seconds.
        """
        kinds = kinds if kinds is not None else self.kinds()
        drop_keys: Dict[str, set] = {}
        if max_bytes is not None:
            drop_keys = self._size_eviction_plan(kinds, max_bytes)
        totals = {
            "kept": 0,
            "superseded": 0,
            "corrupt": 0,
            "evicted": 0,
        }
        for kind in kinds:
            kind_drops = drop_keys.get(kind)
            for shard in self._shards[kind]:
                must = (
                    force
                    or max_age_s is not None
                    or bool(
                        kind_drops
                        and any(shard.contains(k) for k in kind_drops)
                    )
                )
                if not must and shard.garbage_ratio < max(min_garbage, 1e-9):
                    continue
                result = shard.compact(
                    drop_keys=kind_drops,
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
        budget.  Uses index entry lengths — no record is read."""
        ranked: List[Tuple[int, int, str, str]] = []  # (ts, length, kind, key)
        live_bytes = 0
        for kind in kinds:
            for shard in self._shards[kind]:
                shard.ensure_loaded()
                for key in shard.keys():
                    entry = shard.entry(key)
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
            for shard in self._shards[kind]:
                shard.clear()

    def reload(self) -> None:
        for shards in self._shards.values():
            for shard in shards:
                shard.reload()

    def load_all(self) -> None:
        for shards in self._shards.values():
            for shard in shards:
                shard.ensure_loaded()

    # -- introspection -------------------------------------------------------- #

    def counts(self, kind: str) -> Dict[str, int]:
        """Index-served aggregates for one kind — nothing is decoded."""
        entries = superseded = corrupt = garbage = segments = size = 0
        for shard in self._shards[kind]:
            st = shard.stats()
            entries += st["entries"]
            superseded += st["superseded"]
            corrupt += st["corrupt"]
            garbage += st["garbage"]
            segments += st["segments"]
            size += st["bytes"]
        return {
            "entries": entries,
            "superseded": superseded,
            "corrupt": corrupt,
            "garbage": garbage,
            "segments": segments,
            "bytes": size,
        }

    def garbage_ratio(self, kind: str = "results") -> float:
        c = self.counts(kind)
        total = c["entries"] + c["garbage"]
        return (c["garbage"] / total) if total else 0.0

    def shard_rows(self, kind: str) -> List[Dict[str, float]]:
        """Per-shard stats rows for ``cache stats`` output."""
        rows = []
        for i, shard in enumerate(self._shards[kind]):
            st = shard.stats()
            st["shard"] = i
            rows.append(st)
        return rows
