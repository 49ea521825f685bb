"""One hash shard: segment files, a sidecar offset index, a private lock.

A shard owns a directory with three kinds of files:

* ``seg-NNNNNN.jsonl`` — append-only record segments.  One JSON record per
  line; the highest-numbered segment is *active* and receives appends until
  it crosses the rotation threshold, at which point a new segment is
  started.  Segment numbers are **never reused** — compaction writes
  survivors into fresh numbers and deletes the old files, so a stale index
  held by another process can only ever point at a *deleted* file (a
  detectable failure), never silently at the wrong record.
* ``index.log`` — the persistent sidecar offset index: one tab-separated
  line per appended record (``json-escaped key, segment, offset, length,
  timestamp``), plus ``#cov`` coverage lines recording how many bytes of
  each segment have been accounted for.  Warm open parses this file
  instead of the segments, so it is O(index entries) with **no record
  decoding** — keys and offsets only.  The index is advisory: any byte
  range of a segment not covered by the index is re-scanned on open (crash
  between record- and index-append), a segment that shrank below its
  covered size triggers a full rebuild (tampering/truncation), and a
  missing or unparseable ``index.log`` is rebuilt from the segments.
  Losing the index never loses data.  Coverage lines exist because
  coverage derived from record entries alone understates what has been
  scanned: a rebuilt index holds only *live* entries, so a superseded
  record at a segment's tail would sit beyond entry-derived coverage and
  be re-scanned (and must then lose to the newer entry, never resurrect —
  the scan only replaces an entry at an earlier ``(segment, offset)``).
* ``epoch`` — a monotonically increasing integer, bumped by compaction and
  ``clear``.  Writers re-read it (under the shard lock) before each append
  and reload their in-memory state when it moved, so a process that cached
  the shard layout before another process compacted it can never append to
  a dead segment.

Every mutation runs under an advisory :class:`~repro.util.locking.FileLock`
private to the shard (``<shard>/.lock``), which is the point of sharding:
service workers appending results with different key prefixes lock
*different* files and proceed in parallel.  Reads take no file lock at all
— an entry is located in the in-memory index and fetched with ``os.pread``;
if compaction raced us the segment file is gone (or short), we reload once
and retry, and record-level key/fingerprint verification above this layer
rejects any stale bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..util.locking import FileLock
from .counters import StorageCounters

__all__ = ["IndexEntry", "Shard", "INDEX_FILE", "EPOCH_FILE"]

SEG_PREFIX = "seg-"
SEG_SUFFIX = ".jsonl"
INDEX_FILE = "index.log"
EPOCH_FILE = "epoch"
#: First line of every index.log — identifies the format so a corrupted or
#: foreign file is rebuilt rather than trusted.
INDEX_MAGIC = "#repro-index v1"
#: Marker for coverage lines (``#cov\t<segment>\t<bytes>``): bytes of a
#: segment already scanned/accounted for, beyond what the record entries
#: themselves imply.  Keys are JSON strings, so the marker cannot collide.
COV_MARK = "#cov"


class IndexEntry(NamedTuple):
    """Location of one record: which segment, where, how long, when."""

    seg: int
    off: int
    length: int
    ts: int


class Shard:
    """One shard directory (see module docstring for the file layout)."""

    def __init__(
        self,
        path: Path,
        *,
        fsync: bool = False,
        segment_bytes: int = 32 << 20,
        counters: Optional[StorageCounters] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.counters = counters if counters is not None else StorageCounters()
        #: Serialises this process's threads; the FileLock serialises
        #: processes.  Reentrant so compaction may call back into appends.
        self._mutex = threading.RLock()
        self._flock = FileLock(self.path / ".lock")
        self._entries: Dict[str, IndexEntry] = {}
        self._covered: Dict[int, int] = {}  # segment -> bytes accounted for
        self._total_lines = 0  # parseable record lines currently on disk
        self._resident_corrupt = 0  # unparseable/bad lines currently on disk
        self._corrupt_seen = 0  # corrupt observed since open (incl. healed)
        self._epoch = 0
        self._loaded = False
        self._active = 0
        self._active_size = 0
        self._read_fds: Dict[int, int] = {}

    # -- derived state ---------------------------------------------------- #

    def __len__(self) -> int:
        self.ensure_loaded()
        return len(self._entries)

    @property
    def superseded_current(self) -> int:
        """Parseable lines on disk whose key was re-appended later."""
        return self._total_lines - len(self._entries)

    @property
    def corrupt_seen(self) -> int:
        return self._corrupt_seen

    @property
    def garbage_lines(self) -> int:
        """Physical lines compaction would drop (superseded + corrupt)."""
        self.ensure_loaded()
        return self.superseded_current + self._resident_corrupt

    @property
    def garbage_ratio(self) -> float:
        self.ensure_loaded()
        total = len(self._entries) + self.garbage_lines
        return (self.garbage_lines / total) if total else 0.0

    def keys(self) -> List[str]:
        self.ensure_loaded()
        with self._mutex:
            return list(self._entries)

    def contains(self, key: str) -> bool:
        self.ensure_loaded()
        with self._mutex:
            return key in self._entries

    def entry(self, key: str) -> Optional[IndexEntry]:
        self.ensure_loaded()
        with self._mutex:
            return self._entries.get(key)

    # -- paths and small file helpers ------------------------------------- #

    def _seg_path(self, n: int) -> Path:
        return self.path / f"{SEG_PREFIX}{n:06d}{SEG_SUFFIX}"

    def segment_numbers(self) -> List[int]:
        out = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        for name in names:
            if name.startswith(SEG_PREFIX) and name.endswith(SEG_SUFFIX):
                try:
                    out.append(int(name[len(SEG_PREFIX) : -len(SEG_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(out)

    def segment_files(self) -> List[Path]:
        return [self._seg_path(n) for n in self.segment_numbers()]

    def bytes(self) -> int:
        total = 0
        for f in self.segment_files():
            try:
                total += f.stat().st_size
            except OSError:
                pass
        return total

    def _read_epoch(self) -> int:
        try:
            return int((self.path / EPOCH_FILE).read_text())
        except (OSError, ValueError):
            return 0

    def _write_epoch(self, value: int) -> None:
        tmp = self.path / f".{EPOCH_FILE}.tmp"
        try:
            tmp.write_text(str(value))
            os.replace(tmp, self.path / EPOCH_FILE)
        except OSError:  # read-only store: epoch stays advisory
            pass

    @contextlib.contextmanager
    def _guard(self):
        """Mutate-side critical section: thread mutex + (best-effort) flock.

        The flock acquire is allowed to fail (read-only filesystems) — the
        shard then degrades to process-local safety, matching the legacy
        store's behaviour.
        """
        with self._mutex:
            acquired = False
            try:
                self._flock.acquire()
                acquired = True
            except OSError:
                pass
            try:
                yield
            finally:
                if acquired:
                    self._flock.release()

    # -- load / reload ----------------------------------------------------- #

    def ensure_loaded(self) -> None:
        if self._loaded:
            return
        with self._guard():
            if not self._loaded:
                self._load_locked()

    def reload(self) -> None:
        """Drop in-memory state; the next touch re-reads the sidecar index."""
        with self._mutex:
            self._close_fds()
            self._entries = {}
            self._covered = {}
            self._total_lines = 0
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._loaded = False

    def _reload_locked(self) -> None:
        self._close_fds()
        self._entries = {}
        self._covered = {}
        self._total_lines = 0
        self._resident_corrupt = 0
        self._loaded = False
        self._load_locked()

    def _close_fds(self) -> None:
        for fd in self._read_fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._read_fds = {}

    def _load_locked(self) -> None:
        """Warm open: parse ``index.log``, reconcile against the segments.

        Fast path (clean shutdown, or appends only): the index covers every
        segment byte and nothing is decoded.  Tail path: segments grew past
        their covered size — scan only the new bytes.  Rebuild path: the
        index is missing/invalid, references deleted segments, or a segment
        shrank — rescan everything and rewrite the sidecar.
        """
        entries: Dict[str, IndexEntry] = {}
        covered: Dict[int, int] = {}
        total = 0
        index_ok = False
        index_path = self.path / INDEX_FILE
        if index_path.exists():
            try:
                with io.open(index_path, "r", encoding="utf-8") as fh:
                    if fh.readline().rstrip("\n") == INDEX_MAGIC:
                        index_ok = True
                        for line in fh:
                            parts = line.rstrip("\n").split("\t")
                            if parts[0] == COV_MARK:
                                if len(parts) == 3:
                                    try:
                                        cseg, cend = int(parts[1]), int(parts[2])
                                    except ValueError:
                                        continue
                                    if cend > covered.get(cseg, 0):
                                        covered[cseg] = cend
                                continue
                            if len(parts) != 5:
                                continue  # torn tail line of the index itself
                            try:
                                key = json.loads(parts[0])
                                entry = IndexEntry(
                                    int(parts[1]), int(parts[2]),
                                    int(parts[3]), int(parts[4]),
                                )
                            except (ValueError, json.JSONDecodeError):
                                continue
                            if not isinstance(key, str):
                                continue
                            prev = entries.get(key)
                            if prev is None or (entry.seg, entry.off) > (
                                prev.seg,
                                prev.off,
                            ):
                                entries[key] = entry
                            total += 1
                            end = entry.off + entry.length
                            if end > covered.get(entry.seg, 0):
                                covered[entry.seg] = end
            except OSError:
                index_ok = False

        segs = self.segment_numbers()
        if segs:
            self._heal_tail(self._seg_path(segs[-1]))
        sizes: Dict[int, int] = {}
        for n in segs:
            try:
                sizes[n] = self._seg_path(n).stat().st_size
            except OSError:
                sizes[n] = 0

        rebuild = not index_ok
        if index_ok:
            for seg, cov in covered.items():
                if seg not in sizes or sizes[seg] < cov:
                    # Covered bytes vanished: mid-compaction crash or
                    # external truncation.  The segments are the truth.
                    rebuild = True
                    break
        if rebuild:
            entries, covered, total = {}, {}, 0
            if index_ok or index_path.exists() or segs:
                self.counters.inc("rebuilds")

        new_lines: List[bytes] = []
        scanned = False
        for n in segs:
            start = covered.get(n, 0)
            if sizes[n] > start:
                scanned = True
                for key, entry, raw_ok in self._scan_segment(n, start):
                    if raw_ok:
                        total += 1
                        # A scanned line supersedes an indexed entry only
                        # when it is *newer* — at a later (segment, offset).
                        # A rebuilt index drops superseded tail lines from
                        # coverage; re-scanning one must not resurrect it
                        # over the live entry in a later segment.
                        prev = entries.get(key)
                        if prev is None or (entry.seg, entry.off) > (
                            prev.seg,
                            prev.off,
                        ):
                            entries[key] = entry
                            new_lines.append(self._index_line(key, entry))
                    else:
                        self._resident_corrupt += 1
                        self._corrupt_seen += 1
                        self.counters.inc("corrupt")
                covered[n] = sizes[n]
                new_lines.append(self._cov_line(n, sizes[n]))
        if scanned and not rebuild:
            self.counters.inc("tail_scans")

        self._entries = entries
        self._covered = covered
        self._total_lines = total
        self._active = segs[-1] if segs else 0
        self._active_size = sizes.get(self._active, 0)
        self._epoch = self._read_epoch()
        self._loaded = True

        try:
            if rebuild:
                self._rewrite_index_locked()
            elif new_lines:
                with io.open(index_path, "ab") as fh:
                    if fh.tell() == 0:
                        fh.write((INDEX_MAGIC + "\n").encode())
                    fh.write(b"".join(new_lines))
        except OSError:  # read-only store: in-memory index only
            pass

    def _scan_segment(
        self, seg: int, start: int
    ) -> Iterator[Tuple[str, IndexEntry, bool]]:
        """Yield ``(key, entry, ok)`` for every line from ``start`` on.

        ``ok`` is False for unparseable lines (reported with a dummy key so
        the caller can count them); records are parsed only far enough to
        extract their key — values stay undecoded until a lookup asks.
        """
        ts = int(time.time())
        path = self._seg_path(seg)
        try:
            fh = io.open(path, "rb")
        except OSError:
            return
        with fh:
            fh.seek(start)
            off = start
            for line in fh:
                length = len(line)
                record_ok = False
                key = ""
                if line.endswith(b"\n") and line.strip():
                    try:
                        record = json.loads(line)
                        key = record["key"]
                        record_ok = isinstance(record, dict) and isinstance(
                            key, str
                        )
                    except (ValueError, KeyError, TypeError):
                        record_ok = False
                elif not line.strip():
                    off += length
                    continue
                yield key, IndexEntry(seg, off, length, ts), record_ok
                off += length

    def _heal_tail(self, file: Path) -> None:
        """Truncate a half-written final line left by a crash (counted as
        one corrupt entry, exactly like the legacy single-file store)."""
        try:
            with io.open(file, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) == b"\n":
                    return
                keep = 0
                pos = size
                block = 4096
                while pos > 0:
                    step = min(block, pos)
                    pos -= step
                    fh.seek(pos)
                    chunk = fh.read(step)
                    idx = chunk.rfind(b"\n")
                    if idx != -1:
                        keep = pos + idx + 1
                        break
                fh.truncate(keep)
                self._corrupt_seen += 1
                self.counters.inc("corrupt")
        except OSError:
            # Read-only store: the fragment stays; the scan path counts it.
            pass

    def _index_line(self, key: str, entry: IndexEntry) -> bytes:
        return (
            f"{json.dumps(key)}\t{entry.seg}\t{entry.off}"
            f"\t{entry.length}\t{entry.ts}\n"
        ).encode()

    def _cov_line(self, seg: int, end: int) -> bytes:
        return f"{COV_MARK}\t{seg}\t{end}\n".encode()

    def _rewrite_index_locked(self) -> None:
        tmp = self.path / f".{INDEX_FILE}.tmp"
        with io.open(tmp, "wb") as fh:
            fh.write((INDEX_MAGIC + "\n").encode())
            # Record full scanned coverage, not just what the live entries
            # imply: superseded/corrupt lines past the last live entry of a
            # segment are already accounted for and must not be re-scanned.
            for seg, end in sorted(self._covered.items()):
                fh.write(self._cov_line(seg, end))
            for key, entry in sorted(
                self._entries.items(), key=lambda kv: (kv[1].seg, kv[1].off)
            ):
                fh.write(self._index_line(key, entry))
        os.replace(tmp, self.path / INDEX_FILE)

    # -- appends ------------------------------------------------------------ #

    def append(self, key: str, line: bytes) -> bool:
        """Append one encoded record line; True if ``key`` was superseded."""
        return self.append_many([(key, line)])[0]

    def append_many(self, items: Iterable[Tuple[str, bytes]]) -> List[bool]:
        """Append a batch under one lock acquisition (one shard, in order).

        Each record line is written to the active segment first and its
        index line second: a crash between the two leaves an indexless
        record the next open's tail-scan recovers.  The epoch file is
        checked once per batch so a compaction by another process forces a
        reload instead of an append to a deleted segment.
        """
        items = list(items)
        if not items:
            return []
        out: List[bool] = []
        with self._guard():
            self.ensure_loaded()
            if self._read_epoch() != self._epoch:
                self._reload_locked()
            seg_fh = idx_fh = None
            try:
                for key, line in items:
                    if not line.endswith(b"\n"):
                        line += b"\n"
                    if (
                        self._active_size > 0
                        and self._active_size + len(line) > self.segment_bytes
                    ):
                        if seg_fh is not None:
                            self._finish_write(seg_fh)
                            seg_fh = None
                        self._active += 1
                        self._active_size = 0
                        # segments_created is counted when the file is
                        # opened below (the rotated-to path never exists).
                    if seg_fh is None:
                        path = self._seg_path(self._active)
                        existed = path.exists()
                        seg_fh = io.open(path, "ab")
                        if not existed:
                            self.counters.inc("segments_created")
                    off = seg_fh.tell()
                    seg_fh.write(line)
                    entry = IndexEntry(
                        self._active, off, len(line), int(time.time())
                    )
                    self._active_size = off + len(line)
                    self._covered[self._active] = self._active_size
                    superseded = key in self._entries
                    self._entries[key] = entry
                    self._total_lines += 1
                    out.append(superseded)
                    self.counters.inc("appends")
                    if superseded:
                        self.counters.inc("superseded")
                    try:
                        if idx_fh is None:
                            idx_fh = io.open(self.path / INDEX_FILE, "ab")
                            if idx_fh.tell() == 0:
                                idx_fh.write((INDEX_MAGIC + "\n").encode())
                        idx_fh.write(self._index_line(key, entry))
                    except OSError:
                        idx_fh = None  # keep appending records regardless
            finally:
                if seg_fh is not None:
                    self._finish_write(seg_fh)
                if idx_fh is not None:
                    with contextlib.suppress(OSError):
                        idx_fh.close()
        return out

    def _finish_write(self, fh) -> None:
        if self.fsync:
            fh.flush()
            os.fsync(fh.fileno())
        fh.close()

    # -- reads --------------------------------------------------------------- #

    def get(self, key: str) -> Optional[bytes]:
        """The raw record line for ``key`` (no decoding), or None.

        Lock-free: a compaction racing us deletes segment files.  Cached
        read fds would happily keep serving the unlinked inode, so the
        epoch file (bumped by every compaction) is checked first and the
        index reloaded when it moved; a short/failed read afterwards (the
        unlocked window between the epoch read and the pread) reloads once
        more, and a second failure discards the entry as corrupt.
        """
        self.ensure_loaded()
        with self._mutex:
            if self._read_epoch() != self._epoch:
                with self._guard():
                    self._reload_locked()
        for attempt in range(2):
            with self._mutex:
                entry = self._entries.get(key)
            if entry is None:
                return None
            data = self._pread(entry)
            if data is not None and len(data) == entry.length:
                return data
            if attempt == 0:
                with self._guard():
                    self._reload_locked()
        self.discard(key)
        return None

    def _pread(self, entry: IndexEntry) -> Optional[bytes]:
        with self._mutex:
            fd = self._read_fds.get(entry.seg)
            if fd is None:
                try:
                    fd = os.open(self._seg_path(entry.seg), os.O_RDONLY)
                except OSError:
                    return None
                self._read_fds[entry.seg] = fd
        try:
            return os.pread(fd, entry.length, entry.off)
        except OSError:
            with self._mutex:
                if self._read_fds.get(entry.seg) == fd:
                    del self._read_fds[entry.seg]
                    with contextlib.suppress(OSError):
                        os.close(fd)
            return None

    def discard(self, key: str) -> None:
        """Drop ``key`` from the index (a lazily detected corrupt record).

        The line stays on disk as garbage until the next compaction; it is
        counted as corrupt, not superseded.
        """
        with self._mutex:
            if key in self._entries:
                del self._entries[key]
                self._total_lines -= 1
                self._resident_corrupt += 1
                self._corrupt_seen += 1
                self.counters.inc("corrupt")

    # -- compaction / clearing ---------------------------------------------- #

    def compact(
        self,
        *,
        drop_keys: Optional[set] = None,
        max_age_s: Optional[float] = None,
        verify: Optional[Callable[[bytes], bool]] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Rewrite the shard with only surviving records.

        Survivors keep their **raw line bytes** — compaction never
        re-serialises a record, so fingerprints are preserved bit for bit.
        Old segments are deleted and survivors land in fresh, higher
        segment numbers (see module docstring for why numbers never come
        back).  Returns drop counts by reason.
        """
        now = time.time() if now is None else now
        with self._guard():
            if self._loaded:
                self._reload_locked()  # pick up other processes' appends
            else:
                self._load_locked()
            before_entries = len(self._entries)
            superseded = self.superseded_current
            corrupt = self._resident_corrupt
            evicted = 0
            survivors: List[Tuple[str, bytes, int]] = []
            ordered = sorted(
                self._entries.items(), key=lambda kv: (kv[1].seg, kv[1].off)
            )
            for key, entry in ordered:
                if drop_keys is not None and key in drop_keys:
                    evicted += 1
                    continue
                if max_age_s is not None and entry.ts < now - max_age_s:
                    evicted += 1
                    continue
                raw = self._pread(entry)
                if raw is None or len(raw) != entry.length:
                    corrupt += 1
                    continue
                if verify is not None and not verify(raw):
                    corrupt += 1
                    continue
                survivors.append((key, raw, entry.ts))

            old_segs = self.segment_numbers()
            first_new = (old_segs[-1] + 1) if old_segs else self._active + 1
            self._close_fds()
            entries: Dict[str, IndexEntry] = {}
            seg = first_new
            size = 0
            fh = None
            try:
                for key, raw, ts in survivors:
                    if fh is not None and size > 0 and size + len(raw) > self.segment_bytes:
                        self._finish_write(fh)
                        fh = None
                        seg += 1
                        size = 0
                    if fh is None:
                        fh = io.open(self._seg_path(seg), "ab")
                        self.counters.inc("segments_created")
                    entries[key] = IndexEntry(seg, size, len(raw), ts)
                    fh.write(raw)
                    size += len(raw)
            finally:
                if fh is not None:
                    self._finish_write(fh)
            for n in old_segs:
                with contextlib.suppress(OSError):
                    os.unlink(self._seg_path(n))
                    self.counters.inc("segments_deleted")
            self._entries = entries
            self._covered = {
                e.seg: max(self._covered.get(e.seg, 0), e.off + e.length)
                for e in entries.values()
            } if entries else {}
            self._total_lines = len(entries)
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._active = seg if survivors else first_new
            self._active_size = size if survivors else 0
            with contextlib.suppress(OSError):
                self._rewrite_index_locked()
            self._epoch += 1
            self._write_epoch(self._epoch)
            self.counters.inc("compactions")
            self.counters.inc("evictions", evicted)
            return {
                "kept": len(entries),
                "superseded": superseded,
                "corrupt": corrupt,
                "evicted": evicted,
                "entries_before": before_entries,
            }

    def clear(self) -> None:
        """Delete every segment and the sidecar index (numbers stay burnt)."""
        with self._guard():
            segs = self.segment_numbers()
            next_active = (segs[-1] + 1) if segs else self._active + 1
            self._close_fds()
            for n in segs:
                with contextlib.suppress(OSError):
                    os.unlink(self._seg_path(n))
                    self.counters.inc("segments_deleted")
            with contextlib.suppress(OSError):
                os.unlink(self.path / INDEX_FILE)
            self._entries = {}
            self._covered = {}
            self._total_lines = 0
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._active = next_active
            self._active_size = 0
            self._loaded = True
            self._epoch += 1
            self._write_epoch(self._epoch)

    def stats(self) -> Dict[str, float]:
        self.ensure_loaded()
        with self._mutex:
            return {
                "entries": len(self._entries),
                "segments": len(self.segment_numbers()),
                "superseded": self.superseded_current,
                "corrupt": self._corrupt_seen,
                "garbage": self.garbage_lines,
                "garbage_ratio": self.garbage_ratio,
                "bytes": self.bytes(),
            }
