"""A stacked sweep killed between its shard batches resumes exactly.

A child process runs a stacked γ sweep into a store and SIGKILLs itself
right after the k-th per-shard batch of the stack's results is written.
The store must then reopen clean: nothing corrupt, no key written twice,
and a rerun computes only the trials those batches did not write.
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

#: Runs ``run_sweep`` and kills itself once ``k`` results batches are on
#: disk, printing the records written so far after each batch.
CHILD = """
import os, signal, sys
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import SweepSpec, run_sweep
from repro.storage.shard import Shard

sweep_file, store_dir, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
real = Shard.append_many
written = []

def append_then_maybe_die(shard, items):
    out = real(shard, items)
    if shard.path.parent.name == "results":
        written.append(len(out))
        print(sum(written), flush=True)
        if len(written) == k:
            os.kill(os.getpid(), signal.SIGKILL)
    return out

Shard.append_many = append_then_maybe_die
run_sweep(SweepSpec.from_json(open(sweep_file).read()), session=Session(ResultStore(store_dir)))
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
    """Every key a results line on disk carries, with its line count."""
    keys: Counter = Counter()
    for seg in sorted((store_dir / "results").glob("shard-*/seg-*.jsonl")):
        for line in seg.read_bytes().splitlines():
            keys[json.loads(line)["key"]] += 1
    return keys


@pytest.mark.parametrize("k", [1, 4])
def test_killed_between_shard_batches_resumes_exactly(tmp_path, k):
    sweep = stacked_sweep()
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(sweep.to_json())
    store_dir = tmp_path / "store"
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(sweep_file), str(store_dir), str(k)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    progress = [int(n) for n in child.stdout.split()]
    assert len(progress) == k
    written = progress[-1]
    total = len(sweep.points()) * sweep.trials
    assert 0 < written < total

    keys = result_keys(store_dir)
    assert sum(keys.values()) == written
    assert max(keys.values()) == 1  # no key appears twice
    store = ResultStore(store_dir)
    counts = store.compact(force=True)
    assert counts["corrupt"] == 0
    assert counts["superseded"] == 0
    assert len(store) == written

    session = Session(store)
    resumed = run_sweep(sweep, session=session)
    assert session.hits == written
    assert session.misses == total - written
    assert resumed.fingerprint() == run_sweep(sweep).fingerprint()
