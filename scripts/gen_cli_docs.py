#!/usr/bin/env python
"""Generate docs/cli.md — the reference page for every `repro` subcommand.

The page is produced from the argparse parsers themselves (by capturing
each subcommand's ``--help`` output), so it cannot drift from the CLI:
``tests/integration/test_docs_snippets.py`` regenerates it and fails when
the committed file is stale.  Regenerate with::

    PYTHONPATH=src python scripts/gen_cli_docs.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

# Pin the help-text wrap width so the output is identical on every
# terminal/CI machine.
os.environ["COLUMNS"] = "79"

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.__main__ import main  # noqa: E402

#: (section title, argv that prints the help, lead-in description)
SECTIONS = [
    (
        "Experiment runner",
        ["--help"],
        "Regenerate paper experiments by id (`e1`..`e11`, or `all`).",
    ),
    (
        "`run` / `run-batch` — declarative scenarios",
        ["run", "--help"],
        "Execute scenario spec JSON (one object for `run`; `run-batch` "
        "takes an array, deduplicates baselines and fans out over worker "
        "processes).",
    ),
    (
        "`sweep` — declarative grids",
        ["sweep", "--help"],
        "Plan, execute or inspect a `SweepSpec` grid (trial-level caching "
        "and adaptive sampling policies). With `--server URL` the "
        "`submit`/`status`/`watch` verbs talk to a running sweep service "
        "instead of executing locally — results are bit-identical either "
        "way.",
    ),
    (
        "`serve` — the sweep service",
        ["serve", "--help"],
        "Run the long-running sweep service: an HTTP server "
        "(`/sweeps`, `/healthz`, `/metrics`) scheduling submitted sweeps "
        "over a pool of worker processes that share one result store. "
        "Identical concurrent submissions are deduplicated into one "
        "computation and warm grid points are served from the store. "
        "SIGTERM drains gracefully.",
    ),
    (
        "`paper run` — the reproduction artifact",
        ["paper", "run", "--help"],
        "Run the e1–e11 suite on a shared session and emit the "
        "self-contained artifact directory (report, figures, tables, "
        "manifest).",
    ),
    (
        "`paper render` — re-render without executing",
        ["paper", "render", "--help"],
        "Rebuild report.md / report.html / figures / manifest.json from an "
        "artifact's `tables/*.json` — zero engine calls.",
    ),
    (
        "`paper diff` — compare two runs",
        ["paper", "diff", "--help"],
        "Statistically compare two artifacts: flags only results whose "
        "confidence intervals do not overlap (exit code 1), reports "
        "everything else informationally.",
    ),
    (
        "`cache` — store maintenance",
        ["cache", "--help"],
        "Inspect, compact or clear a persistent result store.",
    ),
    (
        "`registry` — component listing",
        ["registry", "--help"],
        "List registered generators, fault models, pruners and cut finders "
        "with their signatures and metadata.",
    ),
]

HEADER = """\
# CLI reference

All commands run as `python -m repro ...` (or the `repro` console script
after `pip install -e .`). This page is generated from the argparse
parsers by `scripts/gen_cli_docs.py` — do not edit by hand.
"""


def _capture_help(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(argv)
        except SystemExit:
            pass
    return buf.getvalue().rstrip()


def generate() -> str:
    parts = [HEADER]
    for title, argv, blurb in SECTIONS:
        invocation = " ".join(["python -m repro"] + argv)
        parts.append(f"## {title}\n")
        parts.append(blurb + "\n")
        parts.append(f"```text\n$ {invocation}\n{_capture_help(argv)}\n```\n")
    return "\n".join(parts)


def main_cli() -> int:
    target = REPO / "docs" / "cli.md"
    content = generate()
    target.parent.mkdir(exist_ok=True)
    target.write_text(content, encoding="utf-8")
    print(f"wrote {target} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_cli())
