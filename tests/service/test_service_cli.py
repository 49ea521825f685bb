"""CLI tests for ``python -m repro serve`` and the ``sweep --server`` verbs.

These drive ``repro.__main__.main`` in-process (like the other CLI
tests) against a real ``SweepService`` on an ephemeral port, so the
argv parsing, output formatting and exit codes of the remote paths are
exercised under pytest — not only by the CI smoke script.
"""

import json
import os
import signal
import threading

import pytest

from repro.__main__ import main
from repro.api.session import Session
from repro.api.sweeps import run_sweep
from repro.service import ServiceConfig, SweepService


@pytest.fixture
def sweep_file(tmp_path, sweep):
    path = tmp_path / "sweep.json"
    path.write_text(sweep.to_json())
    return path


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        store=str(tmp_path / "svc-store"),
        workers=1,
        port=0,
    )
    svc = SweepService(config)
    svc.start()
    yield svc
    svc.stop()


class TestRemoteVerbs:
    def test_submit_requires_server(self, sweep_file, capsys):
        assert main(["sweep", "submit", str(sweep_file)]) == 2
        assert "--server" in capsys.readouterr().err

    def test_plan_is_local_only(self, sweep_file, service, capsys):
        assert main(
            ["sweep", "plan", str(sweep_file), "--server", service.url]
        ) == 2
        assert "local-only" in capsys.readouterr().err

    def test_submit_watch_status_roundtrip(
        self, tmp_path, sweep, sweep_file, service, capsys
    ):
        assert main(
            ["sweep", "submit", str(sweep_file), "--server", service.url]
        ) == 0
        out = capsys.readouterr().out
        assert "submitted sweep" in out
        assert sweep.hash() in out

        # a second submit of the same file joins the existing sweep
        assert main(
            ["sweep", "submit", str(sweep_file), "--server", service.url]
        ) == 0
        assert "joined sweep" in capsys.readouterr().out

        json_out = tmp_path / "result.json"
        assert main(
            ["sweep", "watch", str(sweep_file), "--server", service.url,
             "--json", str(json_out)]
        ) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out

        # the fingerprint the CLI printed is the local one, bit for bit
        local = run_sweep(
            sweep, Session(store=str(tmp_path / "local-store"), workers=1)
        )
        assert f"fingerprint {local.fingerprint()}" in out
        assert json.loads(json_out.read_text())["fingerprint"] == \
            local.fingerprint()

        assert main(
            ["sweep", "status", str(sweep_file), "--server", service.url]
        ) == 0
        out = capsys.readouterr().out
        assert "state:    done" in out
        assert "service:" in out

    def test_watch_submits_when_absent(self, sweep_file, service, capsys):
        assert main(
            ["sweep", "watch", str(sweep_file), "--server", service.url]
        ) == 0
        out = capsys.readouterr().out
        assert "submitted sweep" in out
        assert "fingerprint" in out

    def test_status_of_unsubmitted_file(self, sweep_file, service, capsys):
        assert main(
            ["sweep", "status", str(sweep_file), "--server", service.url]
        ) == 2
        assert "submit it first" in capsys.readouterr().out

    def test_status_of_unknown_id(self, service, capsys):
        assert main(
            ["sweep", "status", "sw0-deadbeef", "--server", service.url]
        ) == 1
        assert "service error" in capsys.readouterr().err

    def test_unreachable_server(self, sweep_file, capsys):
        assert main(
            ["sweep", "submit", str(sweep_file),
             "--server", "http://127.0.0.1:9"]
        ) == 1
        assert "service error" in capsys.readouterr().err


class TestServeCommand:
    @pytest.fixture(autouse=True)
    def _restore_handlers(self):
        term = signal.getsignal(signal.SIGTERM)
        intr = signal.getsignal(signal.SIGINT)
        yield
        signal.signal(signal.SIGTERM, term)
        signal.signal(signal.SIGINT, intr)

    def test_serve_drains_on_sigterm(self, tmp_path, capsys):
        # `serve` blocks until signalled; SIGTERM ourselves once it is up.
        timer = threading.Timer(
            2.0, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            rc = main(
                ["serve", "--store", str(tmp_path / "store"),
                 "--workers", "1", "--port", "0"]
            )
        finally:
            timer.cancel()
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep service listening on http://" in out
        assert "received SIGTERM; draining" in out
        assert "drained cleanly" in out

    def test_serve_reports_port_conflict(self, tmp_path, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(
                ["serve", "--store", str(tmp_path / "store"),
                 "--workers", "1", "--port", str(port)]
            )
        finally:
            blocker.close()
        assert rc == 2
        assert "cannot start service" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", ["--job-chunk=0", "--max-attempts=0", "--store=FILE"]
    )
    def test_serve_reports_bad_option(
        self, tmp_path, capsys, monkeypatch, option
    ):
        store_file = tmp_path / "regular-file"
        store_file.write_text("")
        spawned = []

        def no_spawn(svc):
            # Fail fast instead of serving forever if an option slips by.
            spawned.append(svc)
            raise OSError("a worker was spawned")

        monkeypatch.setattr(SweepService, "_spawn_worker", no_spawn)
        rc = main(
            ["serve", "--store", str(tmp_path / "store"), "--workers", "1",
             "--port", "0", option.replace("FILE", str(store_file))]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot start service" in err
        assert "Traceback" not in err
        assert spawned == []
