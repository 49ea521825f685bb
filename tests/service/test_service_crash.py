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
            store=str(tmp_path / "svc"), workers=2, tick=0.02,
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
