"""Batched trial engine benchmark: mask-matrix batches vs scalar engine calls.

Runs an E3/E5-style sweep — a chain-replacement graph (Theorem 2.3's
subject) under random node faults at three expansion-relative
probabilities, 60 Monte-Carlo trials per point — once through the scalar
per-trial engine and once through the batched ``(T × n)`` mask-matrix
path.  Two acceptance bars are pinned:

* **equivalence** — the sweep fingerprints (content hashes over every
  per-trial result) must be identical, i.e. batching is invisible in the
  numbers;
* **performance** — the batched pass must be >= 5x faster wall-clock
  (measured ~7x at authoring time), so hot-path regressions in the
  mask-parallel kernels show up in the perf trajectory.
"""

import time

from repro.api import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.session import Session
from repro.api.sweeps import Axis, SweepSpec, run_sweep
from repro.testing import scalar_sweep


def _sweep(trials=60):
    chain = GraphSpec(
        "chain_replacement",
        {"base": GraphSpec("expander", {"n": 48, "degree": 4, "seed": 3}), "k": 8},
    )
    return SweepSpec(
        base=ScenarioSpec(
            graph=chain,
            fault=FaultSpec("random_node", {"p": 0.02}),
            analysis=AnalysisSpec(pruner=None, measure_expansion=False),
        ),
        axes=(Axis("fault.params.p", (0.02, 0.05, 0.10)),),
        trials=trials,
        seed=7,
        metrics=("gamma",),
        label="bench-batched",
    )


def test_bench_batched_vs_scalar_trials(benchmark):
    sweep = _sweep()

    t0 = time.perf_counter()
    scalar = scalar_sweep(sweep)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = run_sweep(sweep, Session())
    batched_s = time.perf_counter() - t0

    assert batched.total_trials == scalar.total_trials == 180
    assert batched.fingerprint() == scalar.fingerprint(), (
        "batched execution changed the sweep's content fingerprint — the "
        "scalar-equivalence contract is broken"
    )
    assert scalar_s / batched_s >= 5, (
        f"batched speedup collapsed: scalar {scalar_s:.3f}s / batched "
        f"{batched_s:.3f}s = {scalar_s / batched_s:.1f}x (acceptance floor: 5x)"
    )

    # Recorded number: the steady-state batched sweep.
    result = benchmark.pedantic(
        lambda: run_sweep(sweep, Session()), rounds=3, iterations=1
    )
    assert result.fingerprint() == scalar.fingerprint()
