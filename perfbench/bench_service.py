"""Run ``python -m repro serve`` as a subprocess, and stop it cleanly.

:class:`ServiceProcess` starts the server on an ephemeral port, reads the
bound URL from its ``sweep service listening on …`` line, and finishes
with a SIGTERM drain.  :meth:`ServiceProcess.stop` returns every breach
of that contract it sees: a non-zero exit, no ``drained cleanly`` line,
or a child process (a worker) still running after the server has exited
(such a process is killed).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["ServiceProcess", "parse_prometheus"]

_URL_LINE = re.compile(r"sweep service listening on (http://\S+)")


def _children(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (from every thread's children list)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            out += [int(c) for c in Path(f"/proc/{pid}/task/{tid}/children").read_text().split()]
        except OSError:
            continue
    return out


def _running(pid: int, cmdline: bytes) -> bool:
    """Whether ``pid`` still runs ``cmdline`` (zombies and reused pids
    do not count)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return False
        return Path(f"/proc/{pid}/cmdline").read_bytes() == cmdline
    except OSError:
        return False


def parse_prometheus(text: str, prefix: str = "repro_") -> Dict[str, float]:
    """``{name without prefix: value}`` from a Prometheus text body."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith(prefix):
            name, value = line.split()
            out[name[len(prefix):]] = float(value)
    return out


class ServiceProcess:
    """``python -m repro serve`` on a fresh store, 2 workers, port 0."""

    def __init__(self, src: Path, store: Path, *, workers: int = 2) -> None:
        self.src = src
        self.store = store
        self.workers = workers
        self.url: Optional[str] = None
        self.lines: List[str] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._url_seen = threading.Event()

    def start(self, timeout: float = 60.0) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(self.store),
                "--workers", str(self.workers),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._url_seen.wait(timeout) or self.url is None:
            problems = self.stop()
            raise RuntimeError(
                "service did not report its URL: "
                + " | ".join(self.lines[-5:] + problems)
            )
        return self.url

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _URL_LINE.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._url_seen.set()
        self._url_seen.set()  # EOF: stop waiting for a URL that never came

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        assert self._proc is not None
        for line in Path(f"/proc/{self._proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self, timeout: float = 60.0) -> List[str]:
        """SIGTERM drain; returns the problems seen (empty = clean)."""
        proc = self._proc
        if proc is None:
            return []
        self._proc = None
        problems: List[str] = []
        workers = {}
        for pid in _children(proc.pid):
            try:
                workers[pid] = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                pass
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
            problems.append(f"server ignored SIGTERM for {timeout:g}s")
        if self._reader is not None:
            self._reader.join(10.0)
        if code != 0:
            problems.append(f"server exited with code {code}")
        if not any("drained cleanly" in line for line in self.lines):
            problems.append("server did not report a clean drain")
        deadline = time.monotonic() + 10.0
        for pid, cmdline in workers.items():
            while _running(pid, cmdline) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _running(pid, cmdline):
                problems.append(f"child process {pid} survived the drain")
                os.kill(pid, signal.SIGKILL)
                while _running(pid, cmdline):
                    time.sleep(0.05)
        return problems
