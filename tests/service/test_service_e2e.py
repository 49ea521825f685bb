"""End-to-end service tests over real HTTP on an ephemeral port.

Each service here runs in-process (``port=0``) with genuine spawned
worker processes, a real ``ThreadingHTTPServer`` and the stdlib client —
the same stack ``python -m repro serve`` runs.  The contract under test:
sweeps executed through the service are bit-identical to local
:func:`run_sweep`, concurrent identical submissions share one
computation, and a warm store is served without engine calls.
"""

import socket
import threading
import time

import pytest

from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import run_sweep
from repro.service import ServiceClient, ServiceConfig, ServiceError, SweepService
from repro.service import server
from repro.service.server import MAX_BODY_BYTES, MAX_SWEEP_TRIALS


def _config(store, **overrides):
    defaults = dict(
        store=str(store), workers=2
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def reference(sweep, tmp_path):
    """The local single-process ground truth for the shared test sweep."""
    return run_sweep(
        sweep, Session(store=ResultStore(tmp_path / "reference"), workers=1)
    )


class TestFingerprintIdentity:
    def test_http_multiworker_sweep_matches_local(
        self, sweep, reference, tmp_path
    ):
        with SweepService(_config(tmp_path / "svc")) as service:
            client = ServiceClient(service.url)
            submitted = client.submit(sweep)
            assert not submitted["deduped"]
            results = client.watch(submitted["id"], interval=0.05)
            assert results["complete"]
            assert results["fingerprint"] == reference.fingerprint()
            assert results["rows"] == reference.rows()
            assert results["total_trials"] == reference.total_trials

    def test_warm_restart_serves_from_store(self, sweep, reference, tmp_path):
        store = tmp_path / "svc"
        with SweepService(_config(store)) as service:
            client = ServiceClient(service.url)
            first = client.watch(client.submit(sweep)["id"], interval=0.05)
            assert first["fingerprint"] == reference.fingerprint()
        # a fresh service over the same store: zero engine calls
        with SweepService(_config(store, workers=1)) as service:
            client = ServiceClient(service.url)
            warm = client.watch(client.submit(sweep)["id"], interval=0.05)
            assert warm["fingerprint"] == reference.fingerprint()
            assert service.counters.get("store_misses_total") == 0
            assert service.counters.get("jobs_warm_total") > 0


class TestSharedComputation:
    def test_concurrent_identical_submissions_run_once(
        self, make_sweep, tmp_path
    ):
        # big enough that the duplicates land while the first is running
        spec = make_sweep(sides=16, trials=4, label="dedup-e2e")
        with SweepService(_config(tmp_path / "svc")) as service:
            outcomes = []

            def _submit_and_watch():
                client = ServiceClient(service.url)
                sweep_id = client.submit(spec)["id"]
                outcomes.append(
                    (sweep_id, client.watch(sweep_id, interval=0.05))
                )

            threads = [
                threading.Thread(target=_submit_and_watch) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            ids = {sweep_id for sweep_id, _ in outcomes}
            assert len(ids) == 1  # one computation, three clients
            fingerprints = {r["fingerprint"] for _, r in outcomes}
            assert len(fingerprints) == 1
            assert all(r["complete"] for _, r in outcomes)
            # no duplicate engine work: exactly one trial-set was computed
            total = spec.trials * len(spec.points())
            assert service.counters.get("store_misses_total") == total
            assert service.counters.get("sweeps_submitted_total") == 1
            assert service.counters.get("sweeps_deduped_total") == 2


class TestEndpoints:
    def test_healthz_and_metrics(self, sweep, tmp_path):
        with SweepService(_config(tmp_path / "svc")) as service:
            client = ServiceClient(service.url)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["workers"]["alive"] == 2
            assert not health["draining"]

            client.watch(client.submit(sweep)["id"], interval=0.05)
            body = client.metrics()
            assert "# TYPE repro_sweeps_submitted_total counter" in body
            assert "repro_sweeps_submitted_total 1" in body
            assert "# TYPE repro_workers_alive gauge" in body
            assert "repro_jobs_done_total" in body

    def test_status_includes_service_counters(self, sweep, tmp_path):
        with SweepService(_config(tmp_path / "svc")) as service:
            client = ServiceClient(service.url)
            sweep_id = client.submit(sweep)["id"]
            client.watch(sweep_id, interval=0.05)
            status = client.status(sweep_id)
            assert status["state"] == "done"
            assert status["service"]["workers_alive"] == 2
            assert status["service"]["trials_total"] == 6
            assert status["point_stats"][0]["completed"] == 3

    def test_store_entries_count_worker_appends(self, sweep, tmp_path):
        """Regression: the gauge read only the server's shard indexes,
        which never see what the workers append, so it stayed 0."""
        with SweepService(_config(tmp_path / "svc")) as service:
            client = ServiceClient(service.url)
            sweep_id = client.submit(sweep)["id"]
            client.watch(sweep_id, interval=0.05)
            trials = sweep.trials * len(sweep.points())
            service.sync_store_metrics()
            assert service.counters.get("store_entries") >= trials
            status = client.status(sweep_id)
            assert status["service"]["store_entries"] >= trials

    def test_cancel_endpoint(self, make_sweep, tmp_path):
        spec = make_sweep(sides=32, trials=20, label="cancel-e2e")
        with SweepService(_config(tmp_path / "svc")) as service:
            client = ServiceClient(service.url)
            sweep_id = client.submit(spec)["id"]
            assert client.cancel(sweep_id)["state"] == "cancelled"
            assert client.status(sweep_id)["state"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                client.watch(sweep_id, interval=0.05)
            assert err.value.status == 410

    def test_error_paths(self, tmp_path):
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as err:
                client.status("sw9-deadbeef")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/sweeps", {"nonsense": True})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/nope")
            assert err.value.status == 404

    def test_wrong_typed_submissions_are_400(self, sweep, tmp_path):
        """Regression: wrong-typed sweep fields and a null priority escaped
        as TypeErrors (HTTP 500), and a float or bool priority was
        silently truncated to an int."""
        good = sweep.to_dict()
        bodies = [
            dict(good, trials=None),
            dict(good, metrics=7),
            dict(good, policy={"kind": "cluster", "target": 0.05}),
            dict(good, policy={"kind": "budget", "budget": 10}),
            {"sweep": good, "priority": None},
            {"sweep": good, "priority": 1.5},
            {"sweep": good, "priority": True},
        ]
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            client = ServiceClient(service.url)
            for body in bodies:
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/sweeps", body)
                assert err.value.status == 400, body
            assert client.sweeps()["sweeps"] == []

    @pytest.mark.parametrize("trials", [1e308, 10**9], ids=["1e308", "1e9"])
    def test_huge_trial_count_is_400(self, sweep, trials, tmp_path):
        """Regression: a huge ``trials`` was accepted, and the scheduler
        built the first round's trial specs while holding its lock, so
        that POST and every later request hung."""
        body = dict(sweep.to_dict(), trials=trials)
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            client = ServiceClient(service.url, timeout=2)
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/sweeps", body)
            assert time.monotonic() - start < 2
            assert err.value.status == 400
            assert f"limit of {MAX_SWEEP_TRIALS} trials" in str(err.value)
            results = client.watch(
                client.submit(sweep)["id"], interval=0.01, timeout=30
            )
            assert results["complete"]

    @staticmethod
    def _raw_post(service, content_length):
        """POST /sweeps with a declared length and no body, keeping the
        connection open; returns the status code and the rest of what the
        server sent before closing."""
        with socket.create_connection(
            (service.config.host, service.port), timeout=2
        ) as sock:
            sock.sendall(
                b"POST /sweeps HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %s\r\n\r\n" % str(content_length).encode()
            )
            reply = sock.makefile("rb")
            status = int(reply.readline().split()[1])
            return status, reply.read()

    def test_negative_content_length_is_rejected(self, tmp_path):
        """A negative length used to make the handler read until the
        client hung up, pinning its thread."""
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            status, rest = self._raw_post(service, -1)
            assert status == 400
            assert b"Content-Length" in rest

    def test_oversized_content_length_is_refused(self, tmp_path):
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            status, rest = self._raw_post(service, MAX_BODY_BYTES + 1)
            assert status == 413
            assert b"exceeds" in rest

    def test_draining_returns_503(self, sweep, tmp_path):
        with SweepService(_config(tmp_path / "svc", workers=1)) as service:
            service.begin_drain()
            client = ServiceClient(service.url)
            assert client.healthz()["draining"]
            with pytest.raises(ServiceError) as err:
                client.submit(sweep)
            assert err.value.status == 503



class TestEventDrivenLoop:
    def test_no_request_waits_on_the_liveness_period(
        self, sweep, reference, tmp_path, monkeypatch
    ):
        """Worker events, submissions and shutdown each wake the service
        loop, so a sweep completes and the service stops promptly even
        with liveness checks a minute apart."""
        monkeypatch.setattr(server, "LIVENESS_PERIOD", 60.0)
        service = SweepService(_config(tmp_path / "svc")).start()
        try:
            client = ServiceClient(service.url)
            results = client.watch(
                client.submit(sweep)["id"], interval=0.01, timeout=10
            )
            assert results["fingerprint"] == reference.fingerprint()
        finally:
            start = time.monotonic()
            clean = service.stop()
            stop_s = time.monotonic() - start
        assert clean
        assert stop_s < 5
