"""Adaptive sweeps: CI-driven trial allocation over a disintegration curve.

An e5-style experiment — γ(p) for a torus under random node faults — run
three ways through the first-class sweep layer (:mod:`repro.api.sweeps`):

1. **fixed** allocation: the classic "N trials per grid point";
2. **ci_width** (adaptive): every point keeps sampling until its 95% CI
   half-width drops below a target, so low-variance points stop early and
   the budget concentrates on the noisy transition region;
3. **resumed**: the same adaptive sweep re-run against a store — every
   trial is served from disk, and the final fingerprint is identical to
   the uninterrupted run (resume granularity is the *trial*, not the
   sweep);
4. **transition** (stateful): fit the γ(p) curve online and concentrate
   trials where predicted |slope| × CI half-width peaks — plateaus get a
   relaxed width target and stop at the bootstrap.

Run with ``PYTHONPATH=src python examples/adaptive_sweep.py``.
"""

import dataclasses
import tempfile

from repro.api import (
    AnalysisSpec,
    Axis,
    FaultSpec,
    GraphSpec,
    SamplingPolicy,
    ScenarioSpec,
    Session,
    SweepSpec,
    run_sweep,
)
from repro.report.tables import format_row_dicts


def build_sweep(policy: SamplingPolicy) -> SweepSpec:
    """γ(p) on a 16×16 torus: five fault levels spanning the transition."""
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 16, "d": 2}),
            fault=FaultSpec("random_node", {"p": 0.05}),
            analysis=AnalysisSpec(mode="node", pruner=None, measure_expansion=False),
        ),
        axes=(Axis("fault.params.p", (0.05, 0.2, 0.35, 0.5, 0.65)),),
        trials=24,  # per-point count (fixed) / cap (ci_width)
        seed=11,
        metrics=("gamma",),
        policy=policy,
        label="gamma-curve",
    )


def main() -> None:
    # -- 1. fixed: every point pays the full 24 trials ------------------- #
    fixed = run_sweep(build_sweep(SamplingPolicy()), Session())
    print(f"fixed allocation: {fixed.total_trials} trials\n")

    # -- 2. adaptive: stop each point at CI half-width <= 0.03 ------------ #
    adaptive_spec = build_sweep(
        SamplingPolicy(kind="ci_width", target=0.03, min_trials=6, chunk=6)
    )
    with tempfile.TemporaryDirectory() as store_dir:
        adaptive = run_sweep(adaptive_spec, Session(store_dir))
        print(
            f"adaptive allocation: {adaptive.total_trials} trials in "
            f"{adaptive.rounds} rounds — "
            f"{fixed.total_trials - adaptive.total_trials} saved\n"
        )
        rows = []
        for pf, pa in zip(fixed.points, adaptive.points):
            sf, sa = pf.stats["gamma"], pa.stats["gamma"]
            rows.append(
                {
                    "p": pf.coord_dict()["fault.params.p"],
                    "fixed_n": pf.n_trials,
                    "fixed_gamma": round(sf.mean, 4),
                    "adaptive_n": pa.n_trials,
                    "adaptive_gamma": round(sa.mean, 4),
                    "adaptive_hw": round(sa.halfwidth, 4),
                }
            )
        print(format_row_dicts(rows, title="fixed vs adaptive γ(p)"))

        # -- 3. resume: warm store, zero executions, same fingerprint ----- #
        warm_session = Session(store_dir)
        replay = run_sweep(adaptive_spec, warm_session)
        assert warm_session.misses == 0
        assert replay.fingerprint() == adaptive.fingerprint()
        print(
            f"\nwarm replay: {warm_session.hits} trials served from the "
            f"store, 0 computed — fingerprint {replay.fingerprint()} identical"
        )

    # -- 4. transition: spend only where the fitted curve is steep -------- #
    # A wider grid with plateau ends: the allocator fits gamma(p) online,
    # relaxes the width target on the flat ends, and spends its chunks
    # inside the disintegration band.
    curve_spec = dataclasses.replace(
        build_sweep(
            SamplingPolicy(kind="transition", target=0.025, min_trials=6, chunk=6)
        ),
        axes=(
            Axis("fault.params.p", (0.05, 0.12, 0.3, 0.4, 0.45, 0.5, 0.6, 0.75)),
        ),
    )
    curve = run_sweep(curve_spec, Session())
    per_point = ", ".join(str(p.n_trials) for p in curve.points)
    print(
        f"\ntransition allocation: {curve.total_trials} trials "
        f"([{per_point}] per point) — the chunks land on the steep band"
    )


if __name__ == "__main__":
    main()
