"""A store killed inside an append or a compaction reopens exactly.

A child process stores stale values for some keys of a stacked γ sweep
and supersedes them with the true ones, so a resurrected old value would
be visible.  It then runs the sweep into the store and SIGKILLs itself
at one of four points:

* ``append`` — partway through the stack's one append, leaving a torn
  line;
* ``compact-write`` — partway through writing compaction's new segment;
* ``compact-unlink`` — after the new segment is written, before the old
  segments are unlinked;
* ``compact-epoch`` — after the unlink, before the epoch bump.

The reopened store must serve every key it holds once, with its newest
value; count no corrupt record after ``compact(force=True)``; and give a
rerun the storeless sweep's fingerprint.
"""

import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.store import ResultStore
from repro.api.sweeps import Axis, SweepSpec, run_sweep

#: Fills the store, supersedes 8 stale records, then dies at ``argv[3]``.
CHILD = """
import dataclasses, os, signal, sys
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import SweepSpec, run_sweep
from repro.storage.log import RecordLog

sweep_file, store_dir, point = sys.argv[1:4]
sweep = SweepSpec.from_json(open(sweep_file).read())
fresh = [r for p in run_sweep(sweep, keep_results=True).points for r in p.results]
store = ResultStore(store_dir)
store.put_results(dataclasses.replace(r, label="stale") for r in fresh[:8])
store.put_results(fresh[:8])

def die():
    os.kill(os.getpid(), signal.SIGKILL)

def tear_results_write(start):
    real = RecordLog._finish_write

    def finish(log, fh):
        if log.path.name != "results":
            return real(log, fh)
        fh.flush()  # then lose the second half of what this open wrote
        cut = start + (fh.tell() - start) // 2
        with open(fh.name, "rb") as written:
            written.seek(cut - 1)
            if written.read(1) == b"\\n":  # tear a line, not between two
                cut += 1
        os.ftruncate(fh.fileno(), cut)
        die()

    RecordLog._finish_write = finish

if point == "append":
    tear_results_write(os.path.getsize(store.segment_files("results")[-1]))
    run_sweep(sweep, session=Session(store))
    sys.exit("the append was not torn")
run_sweep(sweep, session=Session(store))
if point == "compact-write":
    tear_results_write(0)
elif point == "compact-unlink":
    real_unlink = os.unlink
    os.unlink = lambda path: (
        die() if os.path.basename(os.path.dirname(path)) == "results" else real_unlink(path)
    )
elif point == "compact-epoch":
    real_epoch = RecordLog._write_epoch
    RecordLog._write_epoch = lambda log, value: (
        die() if log.path.name == "results" else real_epoch(log, value)
    )
store.compact(force=True)
sys.exit("the compaction was not killed")
"""


def stacked_sweep() -> SweepSpec:
    """3 points × 8 trials of γ on one graph: one 24-record stack."""
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 8, "d": 2}),
            fault=FaultSpec("random_node", {"p": 0.1}),
            analysis=AnalysisSpec(pruner=None, measure_expansion=False),
        ),
        axes=(Axis("fault.params.p", (0.1, 0.3, 0.5)),),
        trials=8,
        seed=11,
        metrics=("gamma",),
    )


def result_keys(store_dir: Path) -> Counter:
    """Every key a results line on disk is framed with, with its count."""
    keys: Counter = Counter()
    for seg in sorted((store_dir / "results").glob("seg-*.jsonl")):
        for line in seg.read_bytes().splitlines():
            keys[json.loads(line.split(b"\t", 1)[0])] += 1
    return keys


@pytest.mark.parametrize(
    "point", ["append", "compact-write", "compact-unlink", "compact-epoch"]
)
def test_killed_store_reopens_with_newest_values(tmp_path, point):
    sweep = stacked_sweep()
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(sweep.to_json())
    store_dir = tmp_path / "store"
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(sweep_file), str(store_dir), point],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    fresh = [r for p in run_sweep(sweep, keep_results=True).points for r in p.results]
    total = len(fresh)

    store = ResultStore(store_dir)
    torn = point in ("append", "compact-write")
    assert store.corrupt_entries == torn  # the healed tail, if any
    held = [r for r in fresh if r.spec in store]
    if point == "append":
        assert 8 < len(held) < total  # the torn append kept only its head
    else:
        assert len(held) == total
    assert len(store) == len(held)  # every key once
    for r in fresh[:8]:
        assert store.get_result(r.spec) == r  # never the stale value
    for r in held:
        assert store.get_result(r.spec) == r

    counts = store.compact(force=True)
    assert counts["corrupt"] == 0
    assert store.stats().corrupt == 0
    assert result_keys(store_dir) == Counter(r.spec.hash() for r in held)

    session = Session(ResultStore(store_dir))
    resumed = run_sweep(sweep, session=session)
    assert session.hits == len(held)
    assert session.misses == total - len(held)
    assert resumed.fingerprint() == run_sweep(sweep).fingerprint()
