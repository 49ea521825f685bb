"""Cross-grid-point stacking benchmark.

A 96-point grid on one shared torus, 2 trials per point, evaluated per
point (one ``run_trials_batched`` kernel call per grid point) vs stacked
(one ``run_points_batched`` call evaluating all 192 trials as one mask
tensor), both measured on the same machine in the same process.
Required: >= 3x.

The regime is chosen where per-call overhead dominates row compute —
a small graph, many kernel invocations — because that is exactly the
regime stacking exists to fix; at large n the kernel itself dominates
and both paths converge.  The stacked records must be bit-identical to
the per-point records, so the speedup is a pure execution change.
Timings and the speedup ratio are written to
``benchmarks/results/BENCH_multipoint.json`` (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import time

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec

MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)
TORUS = GraphSpec("torus", {"sides": 8, "d": 2})

N_POINTS = 96
TRIALS_PER_POINT = 2
REPEATS = 5


def _groups():
    probs = [0.05 + 0.9 * i / (N_POINTS - 1) for i in range(N_POINTS)]
    return [
        [
            ScenarioSpec(
                graph=TORUS,
                fault=FaultSpec("random_node", {"p": round(p, 6)}),
                analysis=MEASURE_ONLY,
                seed=1000 * i + t,
            )
            for t in range(TRIALS_PER_POINT)
        ]
        for i, p in enumerate(probs)
    ]


def _best(fn):
    """(best wall-clock seconds, last return value) over ``REPEATS`` runs."""
    best, value = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_bench_multipoint_stacking(results_dir, capsys):
    groups = _groups()

    def per_point():
        sess = Session()  # fresh: no baseline/graph cache carry-over
        return [sess.run_trials_batched(g) for g in groups]

    def stacked():
        return Session().run_points_batched(groups)

    # warm once (imports, generator cache) before timing either side
    per_point(), stacked()
    solo_s, solo = _best(per_point)
    stack_s, stack = _best(stacked)

    assert [[r.to_dict() for r in rs] for rs in stack] == [
        [r.to_dict() for r in rs] for rs in solo
    ], "stacked records must be bit-identical to per-point records"

    speedup = solo_s / stack_s

    record = {
        "multipoint": {
            "points": N_POINTS,
            "trials_per_point": TRIALS_PER_POINT,
            "per_point_s": round(solo_s, 6),
            "stacked_s": round(stack_s, 6),
            "speedup": round(speedup, 3),
            "required": 3.0,
        },
    }
    (results_dir / "BENCH_multipoint.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    with capsys.disabled():
        print(f"\nmulti-point stacking: {solo_s*1e3:.1f} ms per-point -> "
              f"{stack_s*1e3:.1f} ms stacked ({speedup:.1f}x, need >= 3x)")

    assert speedup >= 3.0, f"multi-point stacking speedup {speedup:.2f}x < 3x"
