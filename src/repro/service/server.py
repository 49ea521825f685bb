"""The long-running sweep service: HTTP front end + worker-pool back end.

:class:`SweepService` wires four pieces together (started with
``python -m repro serve`` or embedded in-process, e.g. by the tests):

* a :class:`~repro.service.scheduler.Scheduler` holding all sweep/job
  state behind its own lock;
* a pool of **spawned** worker processes, each with a private job queue
  (exact crash attribution) and a shared event queue back to the server;
* a single **service loop thread** that pumps worker events, dispatches
  queued jobs to idle workers, detects dead workers and per-job timeouts
  (requeue with bounded attempts, then fail), and respawns replacements;
* a :class:`ThreadingHTTPServer` exposing the REST surface::

      POST   /sweeps             submit a SweepSpec (dedup by content hash)
      GET    /sweeps             list sweeps
      GET    /sweeps/{id}        status + live streaming stats
      GET    /sweeps/{id}/results  aggregated rows + fingerprint
      DELETE /sweeps/{id}        cancel
      GET    /healthz            liveness (workers, queue depth, drain state)
      GET    /metrics            Prometheus text format

All stdlib: ``http.server``, ``multiprocessing``, ``threading``.  Graceful
drain (SIGTERM path): stop accepting submissions, let outstanding jobs
finish (bounded by ``drain_timeout``), send each worker its sentinel, join,
then stop the HTTP server — no orphan processes.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..api.specs import RunResult
from ..api.store import ResultStore
from ..api.sweeps import SweepSpec
from ..errors import ReproError, SpecError
from .metrics import Counters
from .scheduler import Scheduler, SchedulerError

__all__ = ["ServiceConfig", "SweepService"]

#: Largest ``POST /sweeps`` body the server reads; a larger declared
#: ``Content-Length`` is refused with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    store: str
    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is SweepService.port)
    job_timeout: float = 300.0
    max_attempts: int = 3
    heartbeat_interval: float = 1.0
    job_chunk: Optional[int] = None
    fsync: bool = False
    drain_timeout: float = 30.0
    #: Service-loop tick (event pump timeout); tests shrink it.
    tick: float = 0.05


@dataclass
class _WorkerHandle:
    id: str
    process: Any
    queue: Any
    job_key: Optional[str] = None
    job_id: Optional[str] = None
    dispatched_at: Optional[float] = None
    last_heartbeat: float = field(default_factory=time.time)
    ready: bool = False

    @property
    def idle(self) -> bool:
        return self.ready and self.job_key is None


class SweepService:
    """The running service (see module docstring).  Context-manageable:

    ``with SweepService(config) as svc:`` starts workers, the loop thread
    and the HTTP listener, and drains everything on exit.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.counters = Counters()
        self.store = ResultStore(config.store, fsync=config.fsync)
        self.scheduler = Scheduler(
            self.store,
            self.counters,
            max_attempts=config.max_attempts,
            job_chunk=config.job_chunk,
        )
        self.started_at: Optional[float] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._events = self._ctx.Queue()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._worker_seq = itertools.count()
        self._loop_thread: Optional[threading.Thread] = None
        self._http_thread: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._stop_loop = threading.Event()
        self._preready_deaths = 0
        self.draining = False

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> "SweepService":
        if self.started_at is not None:
            raise RuntimeError("service already started")
        # Bind before spawning: a port conflict must not leave worker
        # processes behind.
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _make_handler(self)
        )
        self._httpd.daemon_threads = True
        self.started_at = time.time()
        for _ in range(max(1, self.config.workers)):
            self._spawn_worker()
        self._loop_thread = threading.Thread(
            target=self._loop, name="service-loop", daemon=True
        )
        self._loop_thread.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def begin_drain(self) -> None:
        """Stop accepting submissions; outstanding work keeps running."""
        self.draining = True
        self.scheduler.draining = True

    def stop(self, *, drain: bool = True) -> bool:
        """Shut down: optionally drain outstanding jobs, then stop workers,
        the loop and the HTTP listener.  Returns True on a clean drain
        (False when ``drain_timeout`` forced worker termination)."""
        self.begin_drain()
        clean = True
        if drain:
            deadline = time.time() + self.config.drain_timeout
            while time.time() < deadline:
                if self.scheduler.idle():
                    break
                time.sleep(self.config.tick)
            else:
                clean = False
        # Stop the loop before touching the pool: it mutates _workers on
        # crash detection, and nothing needs event pumping past this point.
        self._stop_loop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
        handles = list(self._workers.values())
        for handle in handles:
            try:
                handle.queue.put(None)
            except Exception:
                pass
        deadline = time.time() + max(self.config.drain_timeout, 5.0)
        for handle in handles:
            handle.process.join(timeout=max(deadline - time.time(), 0.1))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
                clean = False
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        self.counters.set_gauge("workers_alive", 0)
        return clean

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- worker pool ----------------------------------------------------- #

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = f"w{next(self._worker_seq)}"
        queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_entry,
            args=(
                worker_id,
                queue,
                self._events,
                {
                    "store": str(self.config.store),
                    "fsync": self.config.fsync,
                    "heartbeat_interval": self.config.heartbeat_interval,
                },
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(id=worker_id, process=process, queue=queue)
        self._workers[worker_id] = handle
        self.counters.inc("workers_spawned_total")
        self._refresh_worker_gauge()
        return handle

    def _refresh_worker_gauge(self) -> None:
        self.counters.set_gauge("workers_alive", self.workers_alive())

    def workers_alive(self) -> int:
        # list() first: HTTP threads call this while the loop thread
        # replaces crashed workers.
        return sum(
            1 for h in list(self._workers.values()) if h.process.is_alive()
        )

    # -- the service loop ------------------------------------------------ #

    def _loop(self) -> None:
        while not self._stop_loop.is_set():
            drained_something = self._pump_events()
            self._check_liveness()
            self._dispatch()
            if not drained_something:
                self._stop_loop.wait(self.config.tick)

    def _pump_events(self) -> bool:
        import queue as _queue

        got = False
        while True:
            try:
                event = self._events.get_nowait()
            except (_queue.Empty, OSError):
                return got
            got = True
            self._handle_event(event)

    def _handle_event(self, event: Tuple) -> None:
        kind, worker_id = event[0], event[1]
        handle = self._workers.get(worker_id)
        if kind == "ready" and handle is not None:
            handle.ready = True
            handle.last_heartbeat = time.time()
            self._preready_deaths = 0
        elif kind == "hb" and handle is not None:
            handle.last_heartbeat = event[2]
        elif kind == "done":
            _, _, job_key, result_dicts, hits, misses = event
            results = [RunResult.from_dict(d) for d in result_dicts]
            self.scheduler.job_done(job_key, results, hits=hits, misses=misses)
            self._release(handle, job_key)
        elif kind == "error":
            _, _, job_key, trace = event
            self.scheduler.job_failed(job_key, trace)
            self._release(handle, job_key)
        elif kind == "bye" and handle is not None:
            handle.ready = False

    def _release(self, handle: Optional[_WorkerHandle], job_key: str) -> None:
        if handle is not None and handle.job_key == job_key:
            handle.job_key = None
            handle.job_id = None
            handle.dispatched_at = None

    def _check_liveness(self) -> None:
        now = time.time()
        for worker_id in list(self._workers):
            handle = self._workers[worker_id]
            alive = handle.process.is_alive()
            timed_out = (
                alive
                and handle.job_key is not None
                and handle.dispatched_at is not None
                and now - handle.dispatched_at > self.config.job_timeout
            )
            if alive and not timed_out:
                continue
            if timed_out:
                handle.process.terminate()
                handle.process.join(timeout=5.0)
                reason = f"job timeout after {self.config.job_timeout:g}s"
            else:
                reason = f"worker {worker_id} died (exitcode {handle.process.exitcode})"
            self.counters.inc("workers_crashed_total")
            if handle.job_key is not None:
                self.scheduler.requeue(handle.job_key, reason)
            elif not handle.ready:
                # Died before its "ready" event: likely an environment
                # problem every replacement would share — bound the storm.
                self._preready_deaths += 1
            del self._workers[worker_id]
            handle.queue.close()
            if not self.draining and self._preready_deaths < 5:
                self._spawn_worker()
            self._refresh_worker_gauge()

    def _dispatch(self) -> None:
        for handle in self._workers.values():
            if not handle.idle:
                continue
            popped = self.scheduler.next_job()
            if popped is None:
                return
            job, spec_dict = popped
            job.worker = handle.id
            handle.job_key = job.key
            handle.job_id = job.id
            handle.dispatched_at = time.time()
            handle.queue.put((job.key, spec_dict, list(job.segments)))

    # -- HTTP payload helpers -------------------------------------------- #

    def sync_store_metrics(self) -> None:
        """Mirror the storage engine's counters into the service registry.

        The engine keeps its own monotonic :class:`StorageCounters`; the
        service copies the operationally interesting subset (plus three
        index-served gauges) right before each exposition, so ``/metrics``
        and ``sweep status`` always show the storage engine's current view
        without the engine knowing about the service.
        """
        sc = self.store.counters
        c = self.counters
        c.set_value("store_compactions_total", sc.get("compactions"))
        c.set_value("store_evictions_total", sc.get("evictions"))
        c.set_value("store_index_hits_total", sc.get("index_hits"))
        c.set_value("store_index_misses_total", sc.get("index_misses"))
        stats = self.store.stats()
        c.set_gauge("store_segments", stats.segments)
        c.set_gauge(
            "store_entries", stats.results + stats.baselines + stats.tables
        )
        c.set_gauge("store_garbage_ratio", round(stats.garbage_ratio, 6))

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        """``GET /sweeps/{id}``: the scheduler's view plus the service-level
        counters (so ``sweep status`` can show scheduler/worker health)."""
        payload = self.scheduler.status(sweep_id)
        self.sync_store_metrics()
        payload["service"] = self.counters.snapshot()
        return payload

    def healthz(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "draining": self.draining,
            "workers": {
                "alive": self.workers_alive(),
                "configured": self.config.workers,
            },
            "queue_depth": self.scheduler.queue_depth(),
            "inflight": self.scheduler.inflight(),
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
        }

    def sweep_index(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": e.id,
                "hash": e.hash,
                "label": e.spec.label,
                "state": e.state,
                "trials_done": e.driver.total,
                "dedup_count": e.dedup_count,
            }
            for e in self.scheduler.entries()
        ]

    def submit(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Parse a ``POST /sweeps`` body (a bare SweepSpec dict, or
        ``{"sweep": {...}, "priority": N}``) and register it."""
        if not isinstance(payload, dict):
            raise SpecError("sweep submission must be a JSON object")
        priority = 0
        if "sweep" in payload:
            priority = payload.get("priority", 0)
            if isinstance(priority, bool) or not isinstance(priority, int):
                raise SpecError(f"priority must be an int, got {priority!r}")
            spec_dict = payload["sweep"]
        else:
            spec_dict = payload
        spec = SweepSpec.from_dict(spec_dict)
        entry, deduped = self.scheduler.submit(spec, priority=priority)
        return (
            {
                "id": entry.id,
                "hash": entry.hash,
                "state": entry.state,
                "deduped": deduped,
            },
            deduped,
        )


def _worker_entry(worker_id, job_queue, event_queue, config) -> None:
    """Spawn target (module-level so the spawn pickler can import it)."""
    from .worker import worker_main

    worker_main(worker_id, job_queue, event_queue, config)


# --------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------- #


def _make_handler(service: SweepService):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-sweep-service/1.0"
        protocol_version = "HTTP/1.1"

        # Quiet by default: the CLI prints its own lifecycle lines.
        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass

        # -- plumbing ------------------------------------------------- #

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _sweep_id(self, suffix: str = "") -> Optional[str]:
            path = self.path.split("?", 1)[0].rstrip("/")
            prefix = "/sweeps/"
            if not path.startswith(prefix):
                return None
            rest = path[len(prefix):]
            if suffix:
                if not rest.endswith("/" + suffix):
                    return None
                rest = rest[: -len(suffix) - 1]
            return rest if rest and "/" not in rest else None

        # -- routes ---------------------------------------------------- #

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/healthz":
                    self._send_json(200, service.healthz())
                elif path == "/metrics":
                    service.sync_store_metrics()
                    self._send_text(
                        200,
                        service.counters.to_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                elif path == "/sweeps":
                    self._send_json(200, {"sweeps": service.sweep_index()})
                elif (sweep_id := self._sweep_id("results")) is not None:
                    self._send_json(200, service.scheduler.results(sweep_id))
                elif (sweep_id := self._sweep_id()) is not None:
                    self._send_json(200, service.sweep_status(sweep_id))
                else:
                    self._error(404, f"no route for GET {path}")
            except SchedulerError as exc:
                self._error(404, str(exc))
            except Exception as exc:  # never kill the handler thread
                self._error(500, f"{type(exc).__name__}: {exc}")

        def do_POST(self) -> None:  # noqa: N802
            path = self.path.split("?", 1)[0].rstrip("/")
            if path != "/sweeps":
                self._error(404, f"no route for POST {path}")
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # The body stays unread, so this connection cannot carry
                # another request.
                self.close_connection = True
                if length < 0:
                    self._error(400, "Content-Length must be a non-negative integer")
                else:
                    self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
                return
            try:
                raw = self.rfile.read(length) if length else b""
                payload = json.loads(raw.decode("utf-8") or "{}")
                response, deduped = service.submit(payload)
                self._send_json(200 if deduped else 201, response)
            except SchedulerError as exc:
                self._error(503, str(exc))
            except (ReproError, ValueError) as exc:
                self._error(400, str(exc))
            except Exception as exc:
                self._error(500, f"{type(exc).__name__}: {exc}")

        def do_DELETE(self) -> None:  # noqa: N802
            sweep_id = self._sweep_id()
            if sweep_id is None:
                self._error(404, f"no route for DELETE {self.path}")
                return
            try:
                entry = service.scheduler.cancel(sweep_id)
                self._send_json(200, {"id": entry.id, "state": entry.state})
            except SchedulerError as exc:
                self._error(404, str(exc))
            except Exception as exc:
                self._error(500, f"{type(exc).__name__}: {exc}")

    return Handler
