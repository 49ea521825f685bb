"""One record kind's append-only log: framed segment files, a lock, an epoch.

A log owns a directory with three kinds of files:

* ``seg-NNNNNN.jsonl`` — append-only record segments.  Each line is framed
  as ``<JSON-encoded key> TAB <append time, integer seconds> TAB <record
  bytes>``.  Appends always go to the highest-numbered segment.  Segment
  numbers are **never reused** — compaction writes survivors into the next
  number and deletes the old files, so a stale map held by another process
  can only ever point at a *deleted* file (a detectable failure), never
  silently at the wrong record.
* ``epoch`` — a monotonically increasing integer: compaction and ``clear``
  set it to the number of the segment they make the append target, which
  is above every number used before.  Writers re-read it (under the log's
  lock) before each append and reload their in-memory state when it
  moved, so a process that cached the layout before another process
  compacted it can never append to a dead segment.  And a fresh open
  appends to segment ``max(highest existing, epoch)``, so numbers stay
  unused even after a compaction that kept nothing, or a ``clear``, left
  no segment file behind.
* ``.lock`` — the log's advisory :class:`~repro.util.locking.FileLock`.

Opening a log scans every segment, reading only each line's frame: the
in-memory map from key to ``(segment, offset, length, time)`` is built
without decoding a single record.  Later lines win (segments in number
order, lines in file order), so a superseded copy never shadows a newer
one however the scan meets them, and the append time travels with the
line through every reopen, tail heal and compaction.

Every mutation runs under the lock.  Reads take no file lock at all — an
entry is located in the in-memory map and fetched with ``os.pread``; if
compaction raced us the segment file is gone (or short), we reload once
and retry, and the record-level check above this layer (for results: the
key, the record's spec hash and the fingerprint of the bytes read)
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
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..util.locking import FileLock
from .counters import StorageCounters

__all__ = ["IndexEntry", "RecordLog", "EPOCH_FILE"]

SEG_PREFIX = "seg-"
SEG_SUFFIX = ".jsonl"
EPOCH_FILE = "epoch"


class IndexEntry(NamedTuple):
    """Location of one framed line: which segment, where, how long, when."""

    seg: int
    off: int
    length: int
    ts: int


def _parse_frame(line: bytes) -> Optional[Tuple[str, int]]:
    """``(key, append time)`` from a complete line's frame, or None."""
    first = line.find(b"\t")
    second = line.find(b"\t", first + 1)
    if first < 2 or second < 0 or not line.endswith(b"\n"):
        return None
    raw = line[:first]
    try:
        if raw[0] == raw[-1] == 0x22 and b"\\" not in raw:
            key = raw[1:-1].decode()  # a plain string: no JSON escapes
        else:
            key = json.loads(raw)
        ts = int(line[first + 1 : second])
    except ValueError:
        return None
    return (key, ts) if isinstance(key, str) else None


def _record_bytes(line: bytes) -> Optional[bytes]:
    """The record bytes after a line's frame (None if it has no frame)."""
    first = line.find(b"\t")
    second = line.find(b"\t", first + 1)
    return line[second + 1 :] if first > 0 and second > 0 else None


class RecordLog:
    """One record kind's log directory (see module docstring for the layout)."""

    def __init__(
        self,
        path: Path,
        *,
        fsync: bool = False,
        counters: Optional[StorageCounters] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.counters = counters if counters is not None else StorageCounters()
        #: Serialises this process's threads; the FileLock serialises
        #: processes.  Reentrant so compaction may call back into appends.
        self._mutex = threading.RLock()
        self._flock = FileLock(self.path / ".lock")
        self._entries: Dict[str, IndexEntry] = {}
        self._total_lines = 0  # framed lines currently on disk
        self._resident_corrupt = 0  # unframed lines currently on disk
        self._corrupt_seen = 0  # corrupt observed since open (incl. healed)
        self._epoch = 0
        self._loaded = False
        #: How many times the map was (re)built from disk.
        self.loads = 0
        self._active = 0
        self._read_fds: Dict[int, int] = {}
        self._epoch_path = os.fspath(self.path / EPOCH_FILE)

    # -- derived state ---------------------------------------------------- #

    def __len__(self) -> int:
        self.ensure_loaded()
        return len(self._entries)

    @property
    def superseded_current(self) -> int:
        """Framed lines on disk whose key was re-appended later."""
        self.ensure_loaded()
        return self._total_lines - len(self._entries)

    @property
    def corrupt_seen(self) -> int:
        self.ensure_loaded()
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
        """The epoch file's value; 0 if it is missing or unparsable.  Every
        :meth:`get` reads it, so this is an open, a read and a close on a
        path built once."""
        try:
            fd = os.open(self._epoch_path, os.O_RDONLY)
        except OSError:
            return 0
        try:
            return int(os.read(fd, 64))
        except (OSError, ValueError):
            return 0
        finally:
            os.close(fd)

    def _write_epoch(self, value: int) -> None:
        tmp = self.path / f".{EPOCH_FILE}.tmp"
        try:
            tmp.write_text(str(value))
            os.replace(tmp, self._epoch_path)
        except OSError:  # read-only store: epoch stays advisory
            pass

    def _next_segment(self, segs: List[int]) -> int:
        """A never-used segment number: above every existing segment, the
        append target and the epoch on disk (see the module docstring)."""
        return max([*segs, self._active, self._read_epoch()]) + 1

    @contextlib.contextmanager
    def _guard(self):
        """Mutate-side critical section: thread mutex + (best-effort) flock.

        The flock acquire is allowed to fail (read-only filesystems) — the
        log then degrades to process-local safety.
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
        """Drop in-memory state; the next touch re-scans the segments."""
        with self._mutex:
            self._close_fds()
            self._entries = {}
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._loaded = False

    def _close_fds(self) -> None:
        for fd in self._read_fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._read_fds = {}

    def _load_locked(self) -> None:
        """Open: heal a torn final line, then scan every segment's frames."""
        self._close_fds()
        segs = self.segment_numbers()
        if segs:
            self._heal_tail(self._seg_path(segs[-1]))
        entries: Dict[str, IndexEntry] = {}
        total = corrupt = 0
        for n in segs:
            try:
                fh = io.open(self._seg_path(n), "rb")
            except OSError:
                continue
            with fh:
                off = 0
                for line in fh:  # only the frame is parsed, never the record
                    frame = _parse_frame(line)
                    if frame is not None:
                        entries[frame[0]] = IndexEntry(n, off, len(line), frame[1])
                        total += 1
                    elif line.strip():
                        corrupt += 1
                    off += len(line)
        self._entries = entries
        self._total_lines = total
        # the previous scan's unframed lines were already seen
        self._corrupt_seen += corrupt - self._resident_corrupt
        self._resident_corrupt = corrupt
        self.counters.inc("corrupt", corrupt)
        self._epoch = self._read_epoch()
        self._active = max(segs[-1] if segs else 0, self._epoch)
        self._loaded = True
        self.loads += 1

    def _heal_tail(self, file: Path) -> None:
        """Truncate a half-written final line left by a crash (counted as
        one corrupt entry)."""
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
            # Read-only store: the fragment stays; the scan counts it.
            pass

    # -- appends ------------------------------------------------------------ #

    def append(self, key: str, record: bytes) -> bool:
        """Append one encoded record; True if ``key`` was superseded."""
        return self.append_many([(key, record)])[0]

    def append_new(self, key: str, record: bytes) -> bool:
        """Append one encoded record unless ``key`` is already on disk;
        True if it was appended.

        The log is rescanned under its lock first, so a line another
        process appended since this log was scanned counts: two processes
        that both missed ``key`` write it once.  Meant for small logs
        (baselines: one line per graph), since each call scans them.
        """
        with self._guard():
            self._load_locked()
            if key in self._entries:
                return False
            self.append(key, record)
            return True

    def append_many(self, items: Iterable[Tuple[str, bytes]]) -> List[bool]:
        """Append ``(key, record bytes)`` pairs in order under one lock
        acquisition, one epoch read and one file open.

        Each record is framed with its key and the append time and written
        to the newest segment, after healing a torn tail that a writer
        killed since this log was scanned may have left there (so the
        first line is never glued to the fragment).  ``items`` is consumed
        inside the lock, one line at a time, so a lazily encoded batch is
        never held whole.
        """
        out: List[bool] = []
        with self._guard():
            self.ensure_loaded()
            if self._read_epoch() != self._epoch:
                self._load_locked()
            ts = int(time.time())
            stamp = f"\t{ts}\t".encode()
            fh = None
            try:
                for key, record in items:
                    if fh is None:
                        path = self._seg_path(self._active)
                        if path.exists():
                            self._heal_tail(path)
                        else:
                            self.counters.inc("segments_created")
                        fh = io.open(path, "ab")
                        off = fh.tell()
                    if not record.endswith(b"\n"):
                        record += b"\n"
                    line = json.dumps(key).encode() + stamp + record
                    fh.write(line)
                    superseded = key in self._entries
                    self._entries[key] = IndexEntry(self._active, off, len(line), ts)
                    off += len(line)
                    self._total_lines += 1
                    out.append(superseded)
                    self.counters.inc("appends")
                    if superseded:
                        self.counters.inc("superseded")
            finally:
                if fh is not None:
                    self._finish_write(fh)
        return out

    def _finish_write(self, fh) -> None:
        if self.fsync:
            fh.flush()
            os.fsync(fh.fileno())
        fh.close()

    # -- reads --------------------------------------------------------------- #

    def get(self, key: str) -> Optional[bytes]:
        """The record bytes for ``key`` (frame stripped, not decoded), or None.

        Lock-free: a compaction racing us deletes segment files.  Cached
        read fds would happily keep serving the unlinked inode, so the
        epoch file (bumped by every compaction) is checked first and the
        map reloaded when it moved; a short/failed read afterwards (the
        unlocked window between the epoch read and the pread) reloads once
        more, and a second failure discards the entry as corrupt.
        """
        self.ensure_loaded()
        with self._mutex:
            if self._read_epoch() != self._epoch:
                with self._guard():
                    self._load_locked()
        for attempt in range(2):
            with self._mutex:
                entry = self._entries.get(key)
            if entry is None:
                return None
            line = self._pread(entry)
            if line is not None and len(line) == entry.length:
                record = _record_bytes(line)
                if record is not None:
                    return record
            if attempt == 0:
                with self._guard():
                    self._load_locked()
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
        """Drop ``key`` from the map (a lazily detected corrupt record).

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
        verify: Optional[Callable[[str, bytes], bool]] = None,
    ) -> Dict[str, int]:
        """Rewrite the log with only surviving records.

        Survivors keep their **framed line bytes**, append time included —
        compaction never re-serialises a record, so fingerprints are
        preserved bit for bit.  They are written, in log order, to a
        never-used segment number; then the old segments are deleted and
        the epoch set to that number.  A crash at any step leaves either
        the old segments, or old and new together (whose later copies win
        the scan), or the new segment alone.  Returns drop counts by
        reason.
        """
        now = time.time()
        with self._guard():
            self._load_locked()  # pick up other processes' appends
            superseded = self.superseded_current
            corrupt = self._resident_corrupt
            evicted = 0
            old_segs = self.segment_numbers()
            seg = self._next_segment(old_segs)
            entries: Dict[str, IndexEntry] = {}
            off = 0
            fh = None
            try:
                for key, entry in sorted(
                    self._entries.items(), key=lambda kv: (kv[1].seg, kv[1].off)
                ):
                    if (drop_keys is not None and key in drop_keys) or (
                        max_age_s is not None and entry.ts < now - max_age_s
                    ):
                        evicted += 1
                        continue
                    line = self._pread(entry)
                    record = (
                        _record_bytes(line)
                        if line is not None and len(line) == entry.length
                        else None
                    )
                    if record is None or (verify is not None and not verify(key, record)):
                        corrupt += 1
                        continue
                    if fh is None:
                        fh = io.open(self._seg_path(seg), "wb")
                        self.counters.inc("segments_created")
                    fh.write(line)
                    entries[key] = entry._replace(seg=seg, off=off)
                    off += len(line)
            finally:
                if fh is not None:
                    self._finish_write(fh)
            self._close_fds()
            for n in old_segs:
                with contextlib.suppress(OSError):
                    os.unlink(self._seg_path(n))
                    self.counters.inc("segments_deleted")
            self._entries = entries
            self._total_lines = len(entries)
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._active = self._epoch = seg
            self._write_epoch(seg)
            self.counters.inc("compactions")
            self.counters.inc("evictions", evicted)
            return {
                "kept": len(entries),
                "superseded": superseded,
                "corrupt": corrupt,
                "evicted": evicted,
            }

    def clear(self) -> None:
        """Delete every segment (their numbers stay burnt)."""
        with self._guard():
            segs = self.segment_numbers()
            next_active = self._next_segment(segs)
            self._close_fds()
            for n in segs:
                with contextlib.suppress(OSError):
                    os.unlink(self._seg_path(n))
                    self.counters.inc("segments_deleted")
            self._entries = {}
            self._total_lines = 0
            self._resident_corrupt = 0
            self._corrupt_seen = 0
            self._active = self._epoch = next_active
            self._loaded = True
            self._write_epoch(next_active)

    def stats(self) -> Dict[str, int]:
        self.ensure_loaded()
        with self._mutex:
            return {
                "entries": len(self._entries),
                "segments": len(self.segment_numbers()),
                "superseded": self.superseded_current,
                "corrupt": self._corrupt_seen,
                "garbage": self.garbage_lines,
                "bytes": self.bytes(),
            }
