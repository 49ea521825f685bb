"""Benchmark-suite fixtures.

Each experiment bench times its runner once (``benchmark.pedantic`` with a
single round — the experiments are minutes-scale aggregates, not
microseconds) and emits the regenerated paper table both to stdout and to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference stable
artifacts.  Kernel micro-benches use the default calibrated timing loop.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.report.tables import format_row_dicts

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report_table(results_dir, capsys):
    """Write an experiment's row-dicts to disk and echo them to the terminal."""

    def _report(name: str, rows, title: str | None = None) -> None:
        text = format_row_dicts(rows, title=title or name)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _report
