"""Content-addressed store for scenario results and baselines.

:class:`ResultStore` is the persistence layer behind
:class:`repro.api.session.Session`.  Since PR 7 it is a thin facade over
the sharded storage engine in :mod:`repro.storage`: records live in
hash-sharded, size-rotated segment files with a persistent sidecar offset
index per shard, so opening a warm store costs O(index) — keys and
offsets, **no record decoding** — and each lookup decodes exactly one
record.  Three record kinds are stored:

* ``results`` — one :class:`~repro.api.specs.RunResult` per record, keyed
  by the scenario's content hash (:meth:`ScenarioSpec.hash`, which covers
  graph + fault + analysis + seed).  The determinism contract — identical
  ``(spec, seed)`` ⇒ identical result — is what makes the key sound: a hit
  can be substituted for execution byte-for-byte.
* ``baselines`` — fault-free :class:`ExpansionEstimate`s keyed by
  ``(GraphSpec.key(), mode, exact_threshold)``, so a warm store skips even
  the baseline phase of a batch.
* ``tables`` — arbitrary JSON payloads keyed by an opaque string, used by
  the paper-report pipeline (:mod:`repro.report.paper`) to cache whole
  rendered experiment tables: a warm paper rerun then re-renders with
  *zero* recomputation.  A cached table presumes the library code below
  the keyed layer is unchanged — recompute with ``refresh`` after such
  changes.

Robustness properties (unchanged from the single-file store):

* **Append-only writes.**  A crash mid-write can only truncate the final
  line of one shard's active segment; every earlier entry stays intact,
  which is what makes interrupted sweeps resumable.  Truncated tails are
  healed on the next open.
* **Multi-process write safety.**  Every append runs under an advisory
  :class:`~repro.util.locking.FileLock` — now one lock *per shard*, so
  service workers appending different keys no longer contend.
  ``fsync=True`` forces each append to disk before returning.
* **Corrupt-entry tolerance.**  Unparseable lines are counted and skipped,
  never fatal.  Result entries additionally store the
  :meth:`RunResult.fingerprint`; verification is *lazy* — an entry whose
  key or recomputed fingerprint disagrees is rejected at lookup time (and
  physically dropped by the next compaction, which re-verifies every
  surviving record).
* **Last-entry-wins.**  Re-running a scenario appends a fresh entry;
  superseded and corrupt lines accumulate as garbage until
  :meth:`compact` / :meth:`prune` rewrites the affected shards (automatic
  once a shard's garbage ratio is high enough).

The store is a cache, not data of record: a directory holding files of
an older layout (single ``results.jsonl``/``baselines.jsonl``/
``tables.jsonl`` files at the store root) opens as an empty store and
those files are left untouched.

Maintenance operations: :meth:`stats` (index-served, O(shards)),
:meth:`compact`, :meth:`prune`, :meth:`clear`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..expansion.estimate import ExpansionEstimate
from ..storage import StorageEngine
from ..util.locking import FileLock
from .specs import RunResult, ScenarioSpec

__all__ = ["BaselineKey", "ResultStore", "StoreStats", "baseline_key"]

#: ``(graph content hash, expansion mode, exact threshold)`` — the identity
#: of one fault-free baseline estimate.
BaselineKey = Tuple[str, str, int]


def baseline_key(spec: ScenarioSpec) -> BaselineKey:
    """The baseline-cache key of a scenario (graph identity × measurement)."""
    return (spec.graph.key(), spec.analysis.mode, spec.analysis.exact_threshold)


def _baseline_key_str(key: BaselineKey) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def _estimate_to_dict(estimate: ExpansionEstimate) -> Dict[str, Any]:
    return {
        "kind": estimate.kind,
        "lower": float(estimate.lower),
        "upper": float(estimate.upper),
        "witness": [int(i) for i in np.asarray(estimate.witness).tolist()],
        "exact": bool(estimate.exact),
        "method": str(estimate.method),
    }


def _estimate_from_dict(d: Dict[str, Any]) -> ExpansionEstimate:
    return ExpansionEstimate(
        kind=d["kind"],
        lower=float(d["lower"]),
        upper=float(d["upper"]),
        witness=np.asarray(d["witness"], dtype=np.int64),
        exact=bool(d["exact"]),
        method=str(d["method"]),
    )


@dataclass(frozen=True)
class StoreStats:
    """Aggregate state of a store (the ``repro cache stats`` payload).

    Served entirely from the shard offset indexes — computing these
    decodes no records and verifies no fingerprints (corruption hiding
    behind a parseable line surfaces at lookup or compaction instead).
    """

    path: str
    results: int
    baselines: int
    corrupt: int
    superseded: int
    bytes: int
    tables: int = 0
    segments: int = 0
    garbage_ratio: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "results": self.results,
            "baselines": self.baselines,
            "tables": self.tables,
            "corrupt": self.corrupt,
            "superseded": self.superseded,
            "bytes": self.bytes,
            "segments": self.segments,
            "garbage_ratio": round(self.garbage_ratio, 4),
        }


class ResultStore:
    """Persistent scenario-result + baseline cache rooted at a directory.

    Membership (``spec in store``, :meth:`__len__`, :meth:`stats`) is
    answered from the shard indexes in O(1)/O(shards); record bytes are
    read and decoded only by an actual lookup.  Entries appended by
    *other* processes after a shard's index is loaded are picked up by
    :meth:`reload` (the service instead feeds results back through
    :meth:`remember`).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.engine = StorageEngine(self.path, fsync=fsync)
        self.engine.verifier = self._verify_record
        #: Store-wide advisory lock — held by whole-store maintenance
        #: (:meth:`prune`, :meth:`clear`) so two processes never rewrite
        #: the layout concurrently.  Appends take only their shard's lock.
        self.lock: FileLock = self.engine._global_lock
        #: Results shipped in via :meth:`remember` (already persisted by
        #: another process) — overlay consulted before the shard indexes.
        self._remembered: Dict[str, RunResult] = {}

    # -- engine plumbing -------------------------------------------------- #

    @property
    def counters(self):
        """The engine's monotonic operational counters (for metrics)."""
        return self.engine.counters

    @property
    def corrupt_entries(self) -> int:
        """Corrupt lines observed since open (heals, scans, lazy rejects)."""
        self.engine.load_all()
        total = 0
        for kind in self.engine.kinds():
            total += sum(s.corrupt_seen for s in self.engine.shards(kind))
        return total

    @property
    def superseded_entries(self) -> int:
        """Resident lines whose key was re-appended later (any kind)."""
        self.engine.load_all()
        total = 0
        for kind in self.engine.kinds():
            total += sum(
                s.superseded_current for s in self.engine.shards(kind)
            )
        return total

    def segment_files(self, kind: str = "results") -> List[Path]:
        """Every live segment file of ``kind`` (test/debug helper)."""
        return self.engine.segment_files(kind)

    def _verify_record(self, kind: str, key: str, record: dict) -> bool:
        """Compaction's integrity check — the one *eager* verification
        pass, run only while a shard is being rewritten anyway."""
        if kind == "results":
            return self._decode_result(record) is not None
        if kind == "baselines":
            try:
                _estimate_from_dict(record["estimate"])
            except Exception:
                return False
            return True
        if kind == "tables":
            return isinstance(record.get("payload"), dict)
        return True

    # -- load / reload -------------------------------------------------- #

    def reload(self) -> None:
        """Drop the in-memory indexes (picks up other processes' appends)."""
        self.engine.reload()
        self._remembered = {}

    # -- results -------------------------------------------------------- #

    def get_result(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The stored result of ``spec``, or ``None`` on a cache miss.

        Decodes (and key/fingerprint-verifies) exactly one record; a
        verification failure rejects the entry and marks it corrupt so
        the next compaction drops it physically.
        """
        key = spec.hash()
        hit = self._remembered.get(key)
        if hit is not None:
            return hit
        record = self.engine.get_record("results", key)
        if record is None:
            return None
        entry = self._decode_result(record)
        if entry is None:
            self.engine.discard("results", key)
            return None
        return entry[1]

    def put_result(self, result: RunResult) -> None:
        """Append ``result``; it becomes the entry served for its spec."""
        self.engine.append("results", result.spec.hash(), self._result_record(result))

    def put_results(self, results: Iterable[RunResult]) -> int:
        """Bulk append under one lock acquisition per shard; returns the
        number of records written."""
        records = [
            (result.spec.hash(), self._result_record(result))
            for result in results
        ]
        self.engine.append_many("results", records)
        return len(records)

    @staticmethod
    def _result_record(result: RunResult) -> Dict[str, Any]:
        return {
            "key": result.spec.hash(),
            "seed": result.seed,
            "label": result.label,
            "fingerprint": result.fingerprint(),
            "result": result.to_dict(),
        }

    def _decode_result(self, record: Dict[str, Any]) -> Optional[Tuple[str, RunResult]]:
        try:
            key = record["key"]
            result = RunResult.from_dict(record["result"])
        except Exception:
            return None
        # Reject silently-corrupted values: the key must match the spec the
        # entry claims to answer for, and the stored fingerprint must match
        # the record content.
        if key != result.spec.hash():
            return None
        if record.get("fingerprint") != result.fingerprint():
            return None
        return key, result

    def remember(self, result: RunResult) -> None:
        """Insert an *already persisted* result into the in-memory overlay.

        The service's workers append to the same store from other
        processes and ship each result back over the event queue; the
        server indexes them through this method instead of re-reading any
        files, so its warm-point checks stay current with zero disk
        traffic.
        """
        self._remembered[result.spec.hash()] = result

    def contains_key(self, key: str) -> bool:
        """O(1) index membership for a raw result key — no file read."""
        return key in self._remembered or self.engine.contains("results", key)

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self.contains_key(spec.hash())

    def __len__(self) -> int:
        n = self.engine.count("results")
        for key in self._remembered:
            if not self.engine.contains("results", key):
                n += 1
        return n

    # -- baselines ------------------------------------------------------ #

    def get_baseline(self, key: BaselineKey) -> Optional[ExpansionEstimate]:
        """The stored fault-free estimate for a baseline key, if any."""
        key_str = _baseline_key_str(key)
        record = self.engine.get_record("baselines", key_str)
        if record is None:
            return None
        try:
            return _estimate_from_dict(record["estimate"])
        except Exception:
            self.engine.discard("baselines", key_str)
            return None

    def put_baseline(self, key: BaselineKey, estimate: ExpansionEstimate) -> None:
        key_str = _baseline_key_str(key)
        self.engine.append(
            "baselines",
            key_str,
            {"key": key_str, "estimate": _estimate_to_dict(estimate)},
        )

    # -- generic table payloads ----------------------------------------- #

    def get_table(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached JSON payload stored under ``key`` (None on a miss)."""
        record = self.engine.get_record("tables", str(key))
        if record is None:
            return None
        payload = record.get("payload")
        if not isinstance(payload, dict):
            self.engine.discard("tables", str(key))
            return None
        return payload

    def put_table(self, key: str, payload: Dict[str, Any]) -> None:
        """Append a JSON payload under an opaque key (last entry wins)."""
        self.engine.append(
            "tables", str(key), {"key": str(key), "payload": payload}
        )

    # -- maintenance ---------------------------------------------------- #

    def stats(self) -> StoreStats:
        """Entry counts, anomaly counts and on-disk size — index-served.

        This decodes no records: counts come straight from the shard
        offset indexes, so ``cache stats`` on a million-entry store is
        instant.
        """
        totals = {
            kind: self.engine.counts(kind) for kind in self.engine.kinds()
        }
        live = sum(c["entries"] for c in totals.values())
        garbage = sum(c["garbage"] for c in totals.values())
        return StoreStats(
            path=str(self.path),
            results=totals.get("results", {}).get("entries", 0),
            baselines=totals.get("baselines", {}).get("entries", 0),
            tables=totals.get("tables", {}).get("entries", 0),
            corrupt=self.corrupt_entries,
            superseded=self.superseded_entries,
            bytes=sum(c["bytes"] for c in totals.values()),
            segments=sum(c["segments"] for c in totals.values()),
            garbage_ratio=(garbage / (live + garbage)) if (live + garbage) else 0.0,
        )

    def shard_rows(self, kind: str = "results") -> List[Dict[str, float]]:
        """Per-shard stats rows (the ``cache stats`` detail listing)."""
        return self.engine.shard_rows(kind)

    def compact(
        self,
        *,
        force: bool = False,
        min_garbage: float = 0.0,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, int]:
        """Rewrite shards, dropping superseded/corrupt lines and applying
        eviction policies (see :meth:`StorageEngine.compact`).  Survivor
        lines are copied byte-for-byte, so fingerprints are untouched;
        every survivor is re-verified on the way through."""
        return self.engine.compact(
            force=force,
            min_garbage=min_garbage,
            max_bytes=max_bytes,
            max_age_s=max_age_s,
        )

    def prune(self) -> Dict[str, int]:
        """Compact every shard: drop corrupt and superseded lines.

        Returns ``{"kept": ..., "dropped": ...}`` where ``dropped`` counts
        every line physically removed: corrupt lines and superseded
        duplicates, across results, baselines and tables.
        """
        with self.lock:
            totals = self.engine.compact(force=True)
        self._remembered = {}
        return {
            "kept": self.engine.count("results"),
            "dropped": totals["superseded"]
            + totals["corrupt"]
            + totals["evicted"],
        }

    def clear(self) -> None:
        """Delete every stored entry (segments and indexes are removed)."""
        with self.lock:
            self.engine.clear()
        self._remembered = {}
