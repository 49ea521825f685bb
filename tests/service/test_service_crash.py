"""Worker-crash recovery: kill a busy worker, the sweep still finishes
with a fingerprint bit-identical to a local run.

The killed worker's job is requeued (new generation), a replacement
process is spawned, and because trial seeds derive from the spec — never
from worker identity or attempt count — the recovered sweep cannot be
told apart from an undisturbed one.
"""

import itertools
import multiprocessing
import os
import struct
import threading
import time

import pytest

from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import run_sweep
from repro.service import ServiceClient, ServiceConfig, SweepService
from repro.service import server
from repro.service.scheduler import SchedulerError
from repro.service.server import _WorkerHandle


@pytest.fixture
def slow_sweep(make_sweep):
    # ~0.5s of work per job: a wide-open window to kill a busy worker
    return make_sweep(sides=32, values=(0.05, 0.1, 0.2), trials=6,
                      label="crash-e2e")


def _kill_one_busy_worker(service, deadline_s=30.0):
    """Spin until some worker holds a dispatched job, then SIGKILL it."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for handle in list(service._workers.values()):
            if handle.job_key is not None and handle.process.is_alive():
                handle.process.kill()
                return handle.id
        time.sleep(0.001)
    raise AssertionError("no worker ever became busy")


class TestCrashRecovery:
    def test_killed_worker_job_is_requeued_and_sweep_completes(
        self, slow_sweep, tmp_path
    ):
        reference = run_sweep(
            slow_sweep,
            Session(store=ResultStore(tmp_path / "reference"), workers=1),
        )
        config = ServiceConfig(
            store=str(tmp_path / "svc"), workers=2,
        )
        with SweepService(config) as service:
            client = ServiceClient(service.url)
            sweep_id = client.submit(slow_sweep)["id"]
            killed = _kill_one_busy_worker(service)
            results = client.watch(sweep_id, interval=0.05, timeout=300)

            assert results["complete"]
            assert results["fingerprint"] == reference.fingerprint()
            assert results["rows"] == reference.rows()
            assert service.counters.get("workers_crashed_total") >= 1
            # a replacement was spawned beyond the initial pool
            assert service.counters.get("workers_spawned_total") >= 3
            assert service.workers_alive() == 2
            assert killed not in service._workers


class _StubProcess:
    """A worker process that stays alive until terminated."""

    def __init__(self):
        self.terminated = False
        self.exitcode = None

    def is_alive(self):
        return not self.terminated

    def terminate(self):
        self.terminated = True
        self.exitcode = -15

    def join(self, timeout=None):
        pass


class _StubQueue:
    def __init__(self):
        self.messages = []

    def put(self, message):
        self.messages.append(message)

    def close(self):
        pass


class TestJobTimeoutClock:
    """Regression: job timeouts compared ``time.time()`` with the dispatch
    time, so a wall-clock step (an NTP correction, a VM resume) larger
    than ``job_timeout`` terminated every busy worker as timed out."""

    @pytest.fixture
    def busy(self, sweep, tmp_path, monkeypatch):
        """A service, never started, whose one stub worker holds a job
        handed out by the real dispatch path."""
        service = SweepService(
            ServiceConfig(store=str(tmp_path / "svc"), job_timeout=10.0)
        )
        monkeypatch.setattr(service, "_spawn_worker", lambda: None)
        process = _StubProcess()
        handle = _WorkerHandle(
            id="w0", process=process, queue=_StubQueue(), ready=True
        )
        service._workers[handle.id] = handle
        service.scheduler.submit(sweep)
        service._dispatch()
        assert handle.job_key is not None and handle.queue.messages
        return service, process

    def test_wall_clock_step_does_not_time_out_a_job(self, busy, monkeypatch):
        service, process = busy
        wall = time.time()
        monkeypatch.setattr(time, "time", lambda: wall + 3600)
        service._check_liveness()
        assert not process.terminated
        assert service.counters.get("workers_crashed_total") == 0

    def test_monotonic_deadline_times_out_a_job(self, busy, monkeypatch):
        service, process = busy
        now = time.monotonic()
        monkeypatch.setattr(time, "monotonic", lambda: now + 11.0)
        service._check_liveness()
        assert process.terminated
        assert service.counters.get("workers_crashed_total") == 1
        assert service.counters.get("jobs_requeued_total") == 1


class TestCrashStorm:
    """Regression: after five workers died before ``ready`` the service
    stopped respawning, yet with no worker left the queued jobs never
    dispatched, the sweep stayed ``running`` and ``/healthz`` said ok."""

    def test_no_worker_left_fails_running_sweeps_and_drains(
        self, sweep, make_sweep, tmp_path, monkeypatch
    ):
        service = SweepService(ServiceConfig(store=str(tmp_path / "svc")))
        seq = itertools.count()

        def spawn_dead_worker():
            handle = _WorkerHandle(
                id=f"w{next(seq)}", process=_StubProcess(), queue=_StubQueue()
            )
            handle.process.terminate()  # dies before its ready event
            service._workers[handle.id] = handle
            return handle

        monkeypatch.setattr(service, "_spawn_worker", spawn_dead_worker)
        for _ in range(service.config.workers):
            service._spawn_worker()
        entry, _ = service.scheduler.submit(sweep)
        assert entry.state == "running"
        for _ in range(5):
            service._check_liveness()

        assert service.counters.get("workers_crashed_total") == 6
        assert not service._workers
        assert entry.state == "failed"
        assert "no workers left" in entry.error
        assert service.healthz()["status"] == "no-workers"
        assert service.draining
        with pytest.raises(SchedulerError):
            service.submit(make_sweep(label="after-storm").to_dict())


class TestEventPipes:
    """Regression: every worker wrote to one shared event queue.  A worker
    SIGKILLed while it held that queue's write lock (its ``ready`` event
    just sent, the lock not yet released) never released it, so every
    other worker blocked on its next event and the sweep stayed
    ``running``.  Each worker now has its own event pipe."""

    @pytest.fixture
    def looping(self, tmp_path, monkeypatch):
        """A never-started service whose two stub workers talk over real
        event pipes, with its loop running in a thread and liveness
        checks a minute apart: only pipe traffic can make it dispatch."""
        monkeypatch.setattr(server, "LIVENESS_PERIOD", 60.0)
        service = SweepService(ServiceConfig(store=str(tmp_path / "svc")))
        writers = {}
        for worker_id in ("w0", "w1"):
            reader, writer = multiprocessing.Pipe(duplex=False)
            service._workers[worker_id] = _WorkerHandle(
                id=worker_id,
                process=_StubProcess(),
                queue=_StubQueue(),
                events=reader,
            )
            writers[worker_id] = writer
        loop = threading.Thread(target=service._loop, daemon=True)
        loop.start()
        yield service, writers
        service._stop_loop.set()
        service._wake()
        loop.join(timeout=5.0)
        assert not loop.is_alive()

    @staticmethod
    def _until(condition, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not condition():
            assert time.monotonic() < deadline, "the service loop never acted"
            time.sleep(0.005)

    def test_event_on_a_worker_pipe_wakes_the_loop(self, looping, sweep):
        service, writers = looping
        service.scheduler.submit(sweep)
        writers["w0"].send(("ready", "w0"))
        w0 = service._workers["w0"]
        self._until(lambda: w0.job_key is not None)
        assert w0.ready and w0.queue.messages

    def test_submit_wakes_the_loop(self, looping, sweep):
        service, writers = looping
        writers["w0"].send(("ready", "w0"))
        w0 = service._workers["w0"]
        self._until(lambda: w0.ready)
        service.submit(sweep.to_dict())
        self._until(lambda: w0.job_key is not None)

    def test_worker_killed_mid_message_does_not_silence_the_others(
        self, looping, sweep
    ):
        service, writers = looping
        service.scheduler.submit(sweep)
        # w0 dies part-way through a message: the length header promises
        # more bytes than ever arrive
        os.write(writers["w0"].fileno(), struct.pack("!i", 1024) + b"partial")
        writers["w0"].close()
        writers["w1"].send(("ready", "w1"))
        w0, w1 = service._workers["w0"], service._workers["w1"]
        self._until(lambda: w1.job_key is not None)
        self._until(lambda: w0.events is None)
        assert not w0.ready and w0.job_key is None

    def test_liveness_check_closes_a_dead_workers_pipe(
        self, tmp_path, monkeypatch
    ):
        service = SweepService(ServiceConfig(store=str(tmp_path / "svc")))
        monkeypatch.setattr(service, "_spawn_worker", lambda: None)
        reader, writer = multiprocessing.Pipe(duplex=False)
        handle = _WorkerHandle(
            id="w0", process=_StubProcess(), queue=_StubQueue(), events=reader
        )
        service._workers[handle.id] = handle
        handle.process.terminate()
        service._check_liveness()
        assert "w0" not in service._workers
        assert reader.closed
        writer.close()
