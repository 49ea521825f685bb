"""Content-addressed store for scenario results and baselines.

:class:`ResultStore` is the persistence layer behind
:class:`repro.api.session.Session`.  It is a thin facade over the storage
engine in :mod:`repro.storage`: each record kind lives in one append-only
log whose lines are framed with their key and append time, so opening a
warm store scans those frames — keys and offsets, **no record decoding**
— and each lookup decodes exactly one record.  Three record kinds are
stored:

* ``results`` — one :class:`~repro.api.specs.RunResult` per record, keyed
  by the scenario's content hash (:meth:`ScenarioSpec.hash`, which covers
  graph + fault + analysis + seed).  The determinism contract — identical
  ``(spec, seed)`` ⇒ identical result — is what makes the key sound: a hit
  can be substituted for execution byte-for-byte.  A line is
  ``{"fingerprint":...,"key":...,"result":<text>}`` where the text is the
  canonical JSON of :meth:`RunResult.record`: the scalar fields, the spec
  hash and the surviving set as a base64 packed bitmap, and no spec.  The
  reader holds the spec it looks up, so the hash in the text, checked
  against the key, is all that ties the record to its spec.  The text is
  the one the fingerprint hashes, so a result is serialised once on the
  way in (:func:`_result_line`).
* ``baselines`` — fault-free :class:`ExpansionEstimate`s keyed by
  ``(GraphSpec.key(), mode, exact_threshold)``, so a warm store skips even
  the baseline phase of a batch.
* ``tables`` — arbitrary JSON payloads keyed by an opaque string, used by
  the paper-report pipeline (:mod:`repro.report.paper`) to cache whole
  rendered experiment tables: a warm paper rerun then re-renders with
  *zero* recomputation.  A cached table presumes the library code below
  the keyed layer is unchanged — recompute with ``refresh`` after such
  changes.

Robustness properties:

* **Append-only writes.**  A crash mid-write can only truncate the final
  line of a log's newest segment; every earlier entry stays intact,
  which is what makes interrupted sweeps resumable.  Truncated tails are
  healed on the next open.
* **Multi-process write safety.**  Every append runs under the advisory
  :class:`~repro.util.locking.FileLock` of its kind's log.
  :meth:`ResultStore.put_results` takes that lock once per call however
  many records it writes; ``fsync=True`` syncs the batch to disk before
  the call returns.
* **Corrupt-entry tolerance.**  Unparseable lines are counted and skipped,
  never fatal.  Result entries additionally store the
  :meth:`RunResult.fingerprint`; verification is *lazy* and works on the
  bytes read (:func:`_read_result_line`) — an entry is rejected at lookup
  time unless its frame is the writer's for the lookup key and the hash
  of its ``result`` text, the text is the canonical JSON of a record with
  exactly the record's fields, its ``spec_hash`` is the key, and its
  bitmap text is canonical.  So a line re-encoded with other whitespace
  is rejected too, though it decodes to a valid result, and so is every
  line of an earlier record layout.  A rejected entry is physically
  dropped by the next compaction, which runs the same check on every
  surviving record.
* **Last-entry-wins.**  Re-running a scenario appends a fresh entry;
  superseded and corrupt lines accumulate as garbage until
  :meth:`compact` / :meth:`prune` rewrites the affected logs (automatic
  once a log's garbage ratio is high enough).

The store is a cache, not data of record: a directory holding files of
an older layout (single ``results.jsonl``/``baselines.jsonl``/
``tables.jsonl`` files at the store root, or the ``engine.json`` and
``shard-*`` directories of the hash-sharded layout) opens as an empty
store and those files are left untouched.  Results lines of the earlier
record layout (a nested spec and a node-id list in every line) fail the
line check: each is a miss, counted corrupt, and dropped by the next
compaction, so such a store goes cold and refills as sweeps run.

Maintenance operations: :meth:`stats` (map-served), :meth:`compact`,
:meth:`prune`, :meth:`clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..expansion.estimate import ExpansionEstimate
from ..storage import StorageEngine
from ..util.locking import FileLock
from .specs import RECORD_FIELDS, RunResult, ScenarioSpec, bitmap_bytes, canonical_json

__all__ = ["BaselineKey", "ResultStore", "StoreStats", "baseline_key"]

#: ``(graph content hash, expansion mode, exact threshold)`` — the identity
#: of one fault-free baseline estimate.
BaselineKey = Tuple[str, str, int]


def baseline_key(spec: ScenarioSpec) -> BaselineKey:
    """The baseline-cache key of a scenario (graph identity × measurement)."""
    return (spec.graph.key(), spec.analysis.mode, spec.analysis.exact_threshold)


def _baseline_key_str(key: BaselineKey) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def _result_head(fingerprint: str, key: str) -> bytes:
    """The bytes of a results line before its ``result`` text."""
    return f'{{"fingerprint":"{fingerprint}","key":{canonical_json(key)},"result":'.encode()


def _result_line(result: RunResult) -> bytes:
    """The results line of ``result``, spliced from its canonical text.

    Byte-identical to ``StorageEngine.encode`` of the record dict
    ``{"fingerprint", "key": spec hash, "result": result.record()}``: the
    keys are written in sorted order, and the ``result`` value is the
    text the fingerprint hashes.  So the record is encoded once, not once
    for the fingerprint and again for the store.
    """
    fingerprint, text = result.fingerprint_and_text()
    return _result_head(fingerprint, result.spec.hash()) + text.encode() + b"}\n"


def _read_result_line(key: str, raw: bytes) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(fingerprint, record)`` of a valid results line filed under
    ``key``, or None.  Lookups serve a line, and compaction keeps it,
    exactly when this accepts it.

    Valid means: the line is byte for byte what :func:`_result_line`
    writes for the record it holds, and that record is filed under its
    own spec hash.  So the bytes before the text are the writer's frame
    for ``key`` and the sha256 of the text; the text parses to a dict with
    exactly the :data:`~repro.api.specs.RECORD_FIELDS` and is that dict's
    canonical JSON; its ``spec_hash`` is ``key``; and its bitmap text is
    canonical (:func:`~repro.api.specs.bitmap_bytes`).  A line of any
    earlier record layout fails the check, so an old store goes cold.
    """
    if not raw.endswith(b"}\n"):
        return None
    start = len(_result_head("", key)) + 16  # the fingerprint's 16 hex digits
    text = raw[start:-2]
    fingerprint = hashlib.sha256(text).hexdigest()[:16]
    if raw[:start] != _result_head(fingerprint, key):
        return None
    try:
        record = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if (
        not isinstance(record, dict)
        or record.keys() != RECORD_FIELDS
        or record["spec_hash"] != key
        or canonical_json(record).encode() != text
        or bitmap_bytes(record["surviving"]) is None
    ):
        return None
    return fingerprint, record


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

    Served entirely from the logs' in-memory offset maps — computing these
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
    answered from the logs' in-memory maps in O(1); record bytes are
    read and decoded only by an actual lookup.  Entries appended by
    *other* processes after a log was scanned are picked up by
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
        #: the layout concurrently.  Appends take only their log's lock.
        self.lock: FileLock = self.engine._global_lock
        #: Results shipped in via :meth:`remember` (already persisted by
        #: another process) — overlay consulted before the logs' maps.
        self._remembered: Dict[str, RunResult] = {}
        #: How many of those keys the results map did not hold, as of
        #: ``_overlay_loads`` scans of the results log.
        self._remembered_unindexed = 0
        self._overlay_loads = 0

    # -- engine plumbing -------------------------------------------------- #

    @property
    def counters(self):
        """The engine's monotonic operational counters (for metrics)."""
        return self.engine.counters

    @property
    def corrupt_entries(self) -> int:
        """Corrupt lines observed since open (heals, scans, lazy rejects)."""
        return sum(self.engine.log(kind).corrupt_seen for kind in self.engine.kinds())

    def segment_files(self, kind: str = "results") -> List[Path]:
        """Every live segment file of ``kind`` (test/debug helper)."""
        return self.engine.segment_files(kind)

    def _verify_record(self, kind: str, key: str, raw: bytes) -> bool:
        """Compaction's integrity check — the one *eager* verification
        pass, run only while a log is being rewritten anyway.  A results
        record passes exactly when a lookup would serve it."""
        if kind == "results":
            return _read_result_line(key, raw) is not None
        record = StorageEngine.decode(key, raw)
        if record is None:
            return False
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
        """Drop the in-memory maps (picks up other processes' appends)."""
        self.engine.reload()
        self._forget()

    def _forget(self) -> None:
        self._remembered = {}
        self._remembered_unindexed = 0

    # -- results -------------------------------------------------------- #

    def get_result(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The stored result of ``spec``, or ``None`` on a cache miss.

        Reads and checks exactly one line (:func:`_read_result_line`).
        The hit holds ``spec`` itself, the fields of the record, and the
        node tuple decoded from its bitmap; its fingerprint is the hash of
        the bytes read.  No spec is rebuilt or re-hashed and no node list
        is parsed.  A line failing the check is rejected and marked
        corrupt, so the next compaction drops it physically.
        """
        key = spec.hash()
        hit = self._remembered.get(key)
        if hit is not None:
            return hit
        raw = self.engine.get_raw("results", key)
        if raw is None:
            return None
        self.counters.inc("records_decoded")
        entry = _read_result_line(key, raw)
        if entry is None:
            self.engine.discard("results", key)
            return None
        fingerprint, record = entry
        return RunResult.from_record(spec, record).memoise(fingerprint=fingerprint)

    def put_result(self, result: RunResult) -> None:
        """Append ``result``; it becomes the entry served for its spec."""
        self.put_results([result])

    def put_results(self, results: Iterable[RunResult]) -> int:
        """Append ``results`` in one engine call — one lock, one epoch
        read and one file open — each becoming the entry served for its
        spec; returns the number of records written."""
        records = [(result.spec.hash(), result) for result in results]
        self.engine.append_many("results", records, _result_line)
        return len(records)

    def remember(self, result: RunResult) -> None:
        """Insert an *already persisted* result into the in-memory overlay.

        The service's workers append to the same store from other
        processes and ship each result back over their event pipes; the
        server indexes them through this method instead of re-reading any
        files, so its warm-point checks stay current with zero disk
        traffic.
        """
        key = result.spec.hash()
        if key not in self._remembered and not self.engine.contains("results", key):
            self._remembered_unindexed += 1
        self._remembered[key] = result

    def contains_key(self, key: str) -> bool:
        """O(1) map membership for a raw result key — no file read."""
        return key in self._remembered or self.engine.contains("results", key)

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self.contains_key(spec.hash())

    def __len__(self) -> int:
        """Live results: the results map plus what :meth:`remember`
        added beyond it — O(1) until the log is scanned again."""
        n = self.engine.count("results")
        loads = self.engine.loads("results")
        if loads != self._overlay_loads:
            # a rescanned log may now hold keys the overlay counted
            self._remembered_unindexed = sum(
                not self.engine.contains("results", key) for key in self._remembered
            )
            self._overlay_loads = loads
        return n + self._remembered_unindexed

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

    def put_baseline(
        self, key: BaselineKey, estimate: ExpansionEstimate, *, replace: bool = False
    ) -> None:
        """Store a fault-free estimate unless one is on disk for ``key``,
        also when another process wrote it since this store was opened:
        two service workers may compute the same baseline at once, and the
        estimate is a pure function of the key, so the first line stands.
        ``replace=True`` appends in any case (a refresh rebuild)."""
        key_str = _baseline_key_str(key)
        record = {"key": key_str, "estimate": _estimate_to_dict(estimate)}
        if replace:
            self.engine.append("baselines", key_str, record)
        else:
            self.engine.append_new("baselines", key_str, record)

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
        """Entry counts, anomaly counts and on-disk size — map-served.

        This decodes no records: counts come straight from the logs'
        in-memory offset maps.
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
            corrupt=sum(c["corrupt"] for c in totals.values()),
            superseded=sum(c["superseded"] for c in totals.values()),
            bytes=sum(c["bytes"] for c in totals.values()),
            segments=sum(c["segments"] for c in totals.values()),
            garbage_ratio=(garbage / (live + garbage)) if (live + garbage) else 0.0,
        )

    def compact(
        self,
        *,
        force: bool = False,
        min_garbage: float = 0.0,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, int]:
        """Rewrite logs, dropping superseded/corrupt lines and applying
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
        """Compact every log: drop corrupt and superseded lines.

        Returns ``{"kept": ..., "dropped": ...}`` where ``dropped`` counts
        every line physically removed: corrupt lines and superseded
        duplicates, across results, baselines and tables.
        """
        with self.lock:
            totals = self.engine.compact(force=True)
        self._forget()
        return {
            "kept": self.engine.count("results"),
            "dropped": totals["superseded"]
            + totals["corrupt"]
            + totals["evicted"],
        }

    def clear(self) -> None:
        """Delete every stored entry (the segments are removed)."""
        with self.lock:
            self.engine.clear()
        self._forget()
