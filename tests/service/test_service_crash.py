"""Worker-crash recovery: kill a busy worker, the sweep still finishes
with a fingerprint bit-identical to a local run.

The killed worker's job is requeued (new generation), a replacement
process is spawned, and because trial seeds derive from the spec — never
from worker identity or attempt count — the recovered sweep cannot be
told apart from an undisturbed one.
"""

import time

import pytest

from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import run_sweep
from repro.service import ServiceClient, ServiceConfig, SweepService
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

    def is_alive(self):
        return not self.terminated

    def terminate(self):
        self.terminated = True

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
