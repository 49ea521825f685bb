"""The sweep scheduler: dedup, priority queue, rounds, crash requeue.

The scheduler is pure bookkeeping — no threads, no sockets, no processes.
The service's loop thread and HTTP handler threads call into it under its
internal lock; workers never see it.  That separation is what makes it unit
testable: drive ``submit → next_job → job_done`` by hand and the resulting
:class:`~repro.api.sweeps.SweepResult` must be *bit-identical* to a local
:func:`~repro.api.sweeps.run_sweep` of the same spec, because both sides
run the same :class:`~repro.api.sweeps.SweepDriver` state machine.

Responsibilities:

* **Dedup by content hash.**  ``submit`` keys live sweeps by
  :meth:`SweepSpec.hash`; a second identical submission — concurrent or
  later — maps to the same entry (one computation, every client polls the
  same id).  Failed/cancelled sweeps are evicted from the dedup table so a
  resubmission retries fresh.
* **Stacked jobs on a priority queue.**  Each allocation round of a
  sweep (one :meth:`SweepDriver.next_round`) becomes jobs of
  ``(point index, first trial, n trials)`` segments: requests whose grid
  points share a stack key are packed into one job, ``job_chunk`` bounding
  the trials per job.  The heap orders by (client priority, submission
  order, creation order), so earlier and more urgent sweeps drain first
  while rounds stay FIFO within a sweep.
* **Warm points served from the store.**  A job whose every trial is
  already in the result store is folded straight from the index — counted
  as ``jobs_warm_total`` — and never dispatched; a fully warm sweep
  completes synchronously inside ``submit``.
* **Deterministic folding.**  Worker payloads are buffered per round and
  folded in request order only once the round is complete, which is exactly
  the order :func:`run_sweep` folds in — adaptive policies therefore make
  identical allocation decisions locally and distributed, and the sweep
  fingerprint cannot observe worker count, completion order, crashes or
  requeues.
* **Bounded requeue.**  A job whose worker crashed or timed out is requeued
  with the same identity and a bumped generation (stale completions are
  dropped by generation mismatch) at most ``max_attempts - 1`` times; after
  that the sweep fails rather than looping forever.  A job that *raises*
  in a worker fails its sweep immediately — scenario execution is
  deterministic, so retrying an execution error would fail identically.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.specs import RunResult
from ..api.store import ResultStore
from ..api.sweeps import SweepDriver, SweepSpec
from ..errors import ReproError
from .metrics import Counters

__all__ = ["Job", "Scheduler", "SchedulerError", "SweepEntry"]


class SchedulerError(ReproError):
    """Invalid scheduler request (unknown sweep, draining, bad payload)."""


@dataclass
class Job:
    """One schedulable slice of a sweep round.

    ``segments`` is an ordered list of ``(point index, first trial,
    n trials)`` ranges — several when compatible grid points are stacked
    into one dispatch (see :meth:`Scheduler._job_segments`).  Workers
    execute the segments in order and return one flat result list.
    """

    id: str
    sweep_id: str
    segments: List[Tuple[int, int, int]]
    priority: Tuple[int, int, int]
    state: str = "queued"  # queued | dispatched | done | stale
    attempts: int = 0
    generation: int = 0
    worker: Optional[str] = None

    @property
    def key(self) -> str:
        """The dispatch token a worker echoes back; the generation suffix
        lets the scheduler drop completions of superseded attempts."""
        return f"{self.id}:{self.generation}"

    @property
    def n_trials(self) -> int:
        """Total trials across every segment."""
        return sum(seg[2] for seg in self.segments)


@dataclass
class SweepEntry:
    """Server-side state of one submitted sweep."""

    id: str
    spec: SweepSpec
    hash: str
    seq: int
    priority: int
    driver: SweepDriver
    state: str = "queued"  # queued | running | done | failed | cancelled
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[str] = None
    dedup_count: int = 0
    store_hits: int = 0
    store_misses: int = 0
    round_jobs: List[str] = field(default_factory=list)
    payloads: Dict[str, List[RunResult]] = field(default_factory=dict)
    result: Optional[Any] = None  # SweepResult once done
    fingerprint: Optional[str] = None


class Scheduler:
    """Thread-safe sweep/job state machine (see module docstring).

    Parameters
    ----------
    store:
        The server-side view of the shared result store, used to serve warm
        points without dispatching.  ``None`` disables warm serving.
    counters:
        The service :class:`~repro.service.metrics.Counters`; the scheduler
        advances sweep/job/store metrics as state changes.
    max_attempts:
        Total tries a job gets before its sweep fails (first run + requeues).
    job_chunk:
        Upper bound on trials per job; ``None`` leaves jobs unbounded.  A
        round's requests for grid points sharing a
        :func:`repro.batch.engine.stack_key` (same graph + analysis) are
        merged into multi-segment jobs, so one worker evaluates all their
        trials as stacked mask tensors
        (:func:`~repro.api.sweeps.execute_units` →
        :meth:`Session.run_points_batched`).  Splitting and merging only
        change scheduling granularity — fold order, and therefore results
        and fingerprints, are unaffected.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        counters: Optional[Counters] = None,
        *,
        max_attempts: int = 3,
        job_chunk: Optional[int] = None,
        clock=time.time,
    ) -> None:
        if max_attempts < 1:
            raise SchedulerError(f"max_attempts must be >= 1, got {max_attempts}")
        if job_chunk is not None and job_chunk < 1:
            raise SchedulerError(f"job_chunk must be >= 1, got {job_chunk}")
        self.store = store
        self.counters = counters if counters is not None else Counters()
        self.max_attempts = max_attempts
        self.job_chunk = job_chunk
        self.draining = False
        self._clock = clock
        self._lock = threading.RLock()
        self._sweeps: Dict[str, SweepEntry] = {}
        self._by_hash: Dict[str, str] = {}
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[Tuple[int, int, int], str]] = []
        self._sweep_seq = itertools.count()
        self._job_seq = itertools.count()

    # -- submission ------------------------------------------------------ #

    def submit(self, spec: SweepSpec, *, priority: int = 0) -> Tuple[SweepEntry, bool]:
        """Register a sweep (or join the identical one already live).

        Returns ``(entry, deduped)``.  Dedup is by content hash across every
        entry that has not failed or been cancelled — including completed
        ones, whose results are served straight back.
        """
        with self._lock:
            if self.draining:
                raise SchedulerError("service is draining; not accepting sweeps")
            key = spec.hash()
            existing_id = self._by_hash.get(key)
            if existing_id is not None:
                entry = self._sweeps[existing_id]
                entry.dedup_count += 1
                self.counters.inc("sweeps_deduped_total")
                return entry, True
            seq = next(self._sweep_seq)
            entry = SweepEntry(
                id=f"sw{seq}-{key[:8]}",
                spec=spec,
                hash=key,
                seq=seq,
                priority=priority,
                driver=SweepDriver(spec),
                submitted_at=self._clock(),
            )
            self._sweeps[entry.id] = entry
            self._by_hash[key] = entry.id
            self.counters.inc("sweeps_submitted_total")
            entry.state = "running"
            self._advance(entry)
            self._refresh_gauges()
            return entry, False

    def cancel(self, sweep_id: str) -> SweepEntry:
        """Cancel a sweep: queued jobs are dropped, in-flight results of it
        are ignored on arrival.  Cancelling a finished sweep is a no-op."""
        with self._lock:
            entry = self._entry(sweep_id)
            if entry.state in ("done", "failed", "cancelled"):
                return entry
            self._retire(entry, "cancelled", error="cancelled by client")
            self.counters.inc("sweeps_cancelled_total")
            self._refresh_gauges()
            return entry

    # -- the dispatch side (called by the service loop) ------------------ #

    def next_job(self) -> Optional[Tuple[Job, Dict[str, Any]]]:
        """Pop the highest-priority runnable job, marking it dispatched.

        Returns ``(job, sweep spec dict)`` — the dict is what crosses the
        process boundary to the worker — or ``None`` when the queue is
        empty.  Jobs of cancelled/failed sweeps are skipped lazily.
        """
        with self._lock:
            while self._heap:
                _, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state != "queued":
                    continue
                entry = self._sweeps[job.sweep_id]
                if entry.state != "running":
                    job.state = "stale"
                    continue
                job.state = "dispatched"
                self.counters.inc("jobs_dispatched_total")
                self._refresh_gauges()
                spec_dict = entry.spec.to_dict()
                # Ship the content hash alongside so workers can key their
                # expanded-grid cache without re-hashing the spec.
                spec_dict["__hash__"] = entry.hash
                return job, spec_dict
            return None

    def job_done(
        self,
        job_key: str,
        results: List[RunResult],
        *,
        hits: int = 0,
        misses: int = 0,
    ) -> None:
        """Record a worker's completed job (identified by its dispatch key).

        Stale completions — superseded generations, cancelled sweeps,
        unknown jobs — are dropped silently: the store already holds their
        results, so nothing is lost.
        """
        with self._lock:
            job = self._live_job(job_key)
            if job is None:
                return
            entry = self._sweeps[job.sweep_id]
            if len(results) != job.n_trials:
                self._fail(
                    entry,
                    f"job {job.id} returned {len(results)} results for "
                    f"{job.n_trials} trials",
                )
                return
            job.state = "done"
            self.counters.inc("jobs_done_total")
            self.counters.inc("store_hits_total", hits)
            self.counters.inc("store_misses_total", misses)
            entry.store_hits += hits
            entry.store_misses += misses
            entry.payloads[job.id] = results
            if self.store is not None:
                for result in results:
                    self.store.remember(result)
            self._maybe_finish_round(entry)
            self._refresh_gauges()

    def job_failed(self, job_key: str, error: str) -> None:
        """A job *raised* in a worker: fail the sweep (execution is
        deterministic — a retry would raise identically)."""
        with self._lock:
            job = self._live_job(job_key)
            if job is None:
                return
            self.counters.inc("jobs_failed_total")
            self._fail(self._sweeps[job.sweep_id], f"job {job.id}: {error}")
            self._refresh_gauges()

    def requeue(self, job_key: str, reason: str) -> bool:
        """A worker crashed or timed out holding this job: put it back on
        the queue (new generation) unless its attempt budget is exhausted,
        in which case the sweep fails.  Returns True when requeued."""
        with self._lock:
            job = self._live_job(job_key)
            if job is None:
                return False
            entry = self._sweeps[job.sweep_id]
            job.attempts += 1
            job.generation += 1
            job.worker = None
            if job.attempts >= self.max_attempts:
                self.counters.inc("jobs_failed_total")
                self._fail(
                    entry,
                    f"job {job.id} exceeded {self.max_attempts} attempts "
                    f"(last: {reason})",
                )
                self._refresh_gauges()
                return False
            job.state = "queued"
            heapq.heappush(self._heap, (job.priority, job.id))
            self.counters.inc("jobs_requeued_total")
            self._refresh_gauges()
            return True

    def fail_all(self, error: str) -> None:
        """Fail every live sweep with ``error`` (the service can no longer
        run any job)."""
        with self._lock:
            for entry in self._sweeps.values():
                if entry.state in ("queued", "running"):
                    self._fail(entry, error)
            self._refresh_gauges()

    # -- status / results ------------------------------------------------ #

    def entries(self) -> List[SweepEntry]:
        with self._lock:
            return list(self._sweeps.values())

    def status(self, sweep_id: str) -> Dict[str, Any]:
        """The ``GET /sweeps/{id}`` payload: state, progress, live stats."""
        with self._lock:
            entry = self._entry(sweep_id)
            driver = entry.driver
            payload = {
                "id": entry.id,
                "hash": entry.hash,
                "label": entry.spec.label,
                "state": entry.state,
                "priority": entry.priority,
                "submitted_at": entry.submitted_at,
                "finished_at": entry.finished_at,
                "error": entry.error,
                "dedup_count": entry.dedup_count,
                "points": len(driver.points),
                "rounds": driver.rounds,
                "trials_allocated": sum(driver.allocated),
                "trials_done": driver.total,
                "store": {"hits": entry.store_hits, "misses": entry.store_misses},
                "allocator": driver.allocator_state(),
                "point_stats": driver.point_snapshots(),
            }
            if entry.fingerprint is not None:
                payload["fingerprint"] = entry.fingerprint
            return payload

    def results(self, sweep_id: str) -> Dict[str, Any]:
        """The ``GET /sweeps/{id}/results`` payload (partial until done)."""
        with self._lock:
            entry = self._entry(sweep_id)
            complete = entry.state == "done"
            payload: Dict[str, Any] = {
                "id": entry.id,
                "hash": entry.hash,
                "state": entry.state,
                "complete": complete,
                "error": entry.error,
            }
            if complete:
                assert entry.result is not None
                payload["fingerprint"] = entry.fingerprint
                payload["rows"] = entry.result.rows()
                payload["points"] = [p.to_dict() for p in entry.result.points]
                payload["total_trials"] = entry.result.total_trials
                payload["rounds"] = entry.result.rounds
            return payload

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == "queued")

    def inflight(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == "dispatched")

    def idle(self) -> bool:
        """No queued or in-flight work (the drain condition)."""
        with self._lock:
            return all(
                j.state not in ("queued", "dispatched") for j in self._jobs.values()
            )

    # -- internals (caller holds the lock) ------------------------------- #

    def _entry(self, sweep_id: str) -> SweepEntry:
        entry = self._sweeps.get(sweep_id)
        if entry is None:
            raise SchedulerError(f"unknown sweep {sweep_id!r}")
        return entry

    def _live_job(self, job_key: str) -> Optional[Job]:
        """Resolve a dispatch key to its job iff it is the live generation
        of a dispatched job belonging to a running sweep."""
        job_id, _, gen = job_key.rpartition(":")
        job = self._jobs.get(job_id)
        if job is None or str(job.generation) != gen:
            return None
        if job.state != "dispatched":
            return None
        if self._sweeps[job.sweep_id].state != "running":
            return None
        return job

    def _advance(self, entry: SweepEntry) -> None:
        """Issue allocation rounds until one needs a worker (or the sweep
        completes) — fully-warm rounds fold inline from the store."""
        while True:
            requests = entry.driver.next_round()
            if not requests:
                self._complete(entry)
                return
            entry.round_jobs = []
            entry.payloads = {}
            enqueued = False
            for segments in self._job_segments(entry, requests):
                job = Job(
                    id=f"j{next(self._job_seq)}",
                    sweep_id=entry.id,
                    segments=segments,
                    priority=(entry.priority, entry.seq, next(self._job_seq)),
                )
                self._jobs[job.id] = job
                entry.round_jobs.append(job.id)
                warm = self._warm_results(entry, job)
                if warm is not None:
                    job.state = "done"
                    entry.payloads[job.id] = warm
                    entry.store_hits += job.n_trials
                    self.counters.inc("jobs_warm_total")
                    self.counters.inc("store_hits_total", job.n_trials)
                else:
                    heapq.heappush(self._heap, (job.priority, job.id))
                    enqueued = True
            if enqueued:
                return
            self._fold_round(entry)  # fully warm: fold and loop to next round

    def _chunks(self, start: int, n: int):
        step = self.job_chunk or n
        for s in range(start, start + n, step):
            yield s, min(step, start + n - s)

    def _job_segments(
        self, entry: SweepEntry, requests: List[Tuple[int, int, int]]
    ) -> List[List[Tuple[int, int, int]]]:
        """Turn one round's requests into per-job segment lists.

        Each request is cut into ``job_chunk`` slices; slices whose grid
        points share a stack key are packed together, ``job_chunk``
        bounding the *total* trials per merged job, and an unbatchable
        slice is a job of its own.  Request order is preserved within each
        merged job and across jobs, and :meth:`_fold_round` folds per
        segment, so results are unchanged.
        """
        from ..batch import engine as _batch_engine

        chunked: List[Tuple[Optional[str], List[Tuple[int, int, int]]]] = []
        keys: Dict[int, Optional[str]] = {}
        for point_index, start, n in requests:
            if point_index not in keys:
                keys[point_index] = _batch_engine.stack_key(
                    entry.driver.points[point_index].spec
                )
            key = keys[point_index]
            for chunk in self._chunks(start, n):
                chunked.append((key, [(point_index, *chunk)]))
        # greedy pack: consecutive same-key slices merge while the total
        # stays under job_chunk (unbounded when job_chunk is None)
        packed: List[List[Tuple[int, int, int]]] = []
        open_jobs: Dict[str, int] = {}  # stack key -> index into packed
        for key, segments in chunked:
            if key is None:
                packed.append(segments)
                continue
            at = open_jobs.get(key)
            if at is not None:
                total = sum(s[2] for s in packed[at]) + segments[0][2]
                if self.job_chunk is None or total <= self.job_chunk:
                    packed[at].extend(segments)
                    continue
            open_jobs[key] = len(packed)
            packed.append(segments)
        return packed

    def _warm_results(self, entry: SweepEntry, job: Job) -> Optional[List[RunResult]]:
        if self.store is None:
            return None
        specs = []
        for point_index, trial_start, n in job.segments:
            point = entry.driver.points[point_index]
            specs.extend(
                entry.spec.trial_spec(point, t)
                for t in range(trial_start, trial_start + n)
            )
        # Two phases: membership first — an O(1) index probe per trial, no
        # record decoded — so a cold job is rejected without touching any
        # segment file; only a fully-present job pays the decode cost.
        if any(spec not in self.store for spec in specs):
            return None
        out: List[RunResult] = []
        for spec in specs:
            cached = self.store.get_result(spec)
            if cached is None:  # lazy verification rejected the entry
                return None
            out.append(cached)
        return out

    def _maybe_finish_round(self, entry: SweepEntry) -> None:
        if all(jid in entry.payloads for jid in entry.round_jobs):
            self._fold_round(entry)
            self._advance(entry)

    def _fold_round(self, entry: SweepEntry) -> None:
        """Fold the buffered round in request order (the determinism rule)."""
        for jid in entry.round_jobs:
            job = self._jobs.pop(jid)
            payload = entry.payloads[jid]
            pos = 0
            for point_index, trial_start, n in job.segments:
                for offset in range(n):
                    entry.driver.fold(point_index, trial_start + offset, payload[pos])
                    pos += 1
                    self.counters.inc("trials_total")
        entry.round_jobs = []
        entry.payloads = {}

    def _complete(self, entry: SweepEntry) -> None:
        entry.result = entry.driver.result()
        entry.fingerprint = entry.result.fingerprint()
        entry.state = "done"
        entry.finished_at = self._clock()
        self.counters.inc("sweeps_completed_total")

    def _fail(self, entry: SweepEntry, error: str) -> None:
        self._retire(entry, "failed", error=error)
        self.counters.inc("sweeps_failed_total")

    def _retire(self, entry: SweepEntry, state: str, *, error: str) -> None:
        entry.state = state
        entry.error = error
        entry.finished_at = self._clock()
        for jid in entry.round_jobs:
            job = self._jobs.get(jid)
            if job is not None and job.state in ("queued", "dispatched"):
                job.state = "stale"
        entry.round_jobs = []
        entry.payloads = {}
        # Failed/cancelled sweeps leave the dedup table so a resubmission
        # starts a fresh computation instead of joining a dead one.
        if self._by_hash.get(entry.hash) == entry.id:
            del self._by_hash[entry.hash]

    def _refresh_gauges(self) -> None:
        self.counters.set_gauge(
            "jobs_queued",
            sum(1 for j in self._jobs.values() if j.state == "queued"),
        )
        self.counters.set_gauge(
            "jobs_running",
            sum(1 for j in self._jobs.values() if j.state == "dispatched"),
        )
        self.counters.set_gauge(
            "sweeps_active",
            sum(
                1
                for e in self._sweeps.values()
                if e.state in ("queued", "running")
            ),
        )
